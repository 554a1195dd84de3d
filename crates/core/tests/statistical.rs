//! Statistical verification of the paper's theorems against measured
//! moments over many independent seeds.
//!
//! These tests are the reproduction's strongest correctness evidence: they
//! check not just that estimates are "close", but that the *distribution*
//! of FreeBS/FreeRS estimates matches Theorems 1 and 2 — unbiased, with
//! variance at (or below) the stated bound — and that the confidence
//! interval `serve` answers with covers the truth.

use freesketch::ingest::{DEFAULT_BATCH, DEFAULT_CHUNK};
use freesketch::{stream_into, theory};
use freesketch::{AnySketch, CardinalityEstimator, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS};
use graphstream::{Edge, SliceSource};

/// A two-user stream: the probe user's `n_probe` items interleaved with a
/// background user's `n_bg` items.
fn two_user_stream(n_probe: u64, n_bg: u64) -> Vec<Edge> {
    let mut edges = Vec::new();
    for i in 0..n_probe.max(n_bg) {
        if i < n_probe {
            edges.push(Edge::new(1, i));
        }
        if i < n_bg {
            edges.push(Edge::new(2, i.wrapping_mul(0x9E37_79B9) ^ 0xF00D));
        }
    }
    edges
}

/// The probe's estimate from each ingest path a user can select: edge by
/// edge through `process`, and batched through `stream_into` at the CLI's
/// chunk and batch defaults.
fn probe_estimates<E: CardinalityEstimator>(fresh: impl Fn() -> E, edges: &[Edge]) -> (f64, f64) {
    let mut per_edge = fresh();
    for e in edges {
        per_edge.process(e.user, e.item);
    }
    let mut batched = fresh();
    stream_into(
        &mut batched,
        &mut SliceSource::new(edges),
        DEFAULT_CHUNK,
        DEFAULT_BATCH,
    )
    .expect("an in-memory source cannot fail");
    (per_edge.estimate(1), batched.estimate(1))
}

fn moments(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

#[test]
fn freebs_unbiased_and_variance_bounded() {
    // Theorem 1: E[n̂] = n, Var(n̂) ≤ n_s (E[1/q_B(t)] − 1), on both
    // ingest paths.
    let m_bits = 4096usize;
    let n_probe = 600u64;
    let n_bg = 1400u64;
    let trials = 400;
    let edges = two_user_stream(n_probe, n_bg);
    let bound =
        theory::freebs_variance_bound(n_probe as f64, (n_probe + n_bg) as f64, m_bits as f64);
    let (per_edge, batched): (Vec<f64>, Vec<f64>) = (0..trials)
        .map(|t| probe_estimates(|| FreeBS::new(m_bits, 1000 + t), &edges))
        .unzip();
    for (path, samples) in [("per edge", per_edge), ("batched", batched)] {
        let (mean, var) = moments(&samples);
        // Unbiasedness: grand mean within 4 standard errors of the truth.
        let se = (var / trials as f64).sqrt();
        assert!(
            (mean - n_probe as f64).abs() < 4.0 * se + 1.0,
            "{path}: mean {mean} vs {n_probe} (se {se:.2})"
        );
        // Variance at or below the Theorem 1 bound, with sampling slack:
        // the χ²(399) spread allows ~±20% at 4σ.
        assert!(
            var < bound * 1.35,
            "{path}: measured var {var:.1} exceeds Theorem 1 bound {bound:.1}"
        );
        // And the bound is not vacuous: variance should be within an order
        // of magnitude of it for this geometry.
        assert!(
            var > bound * 0.1,
            "{path}: var {var:.1} suspiciously far below bound {bound:.1}"
        );
    }
}

#[test]
fn freers_unbiased_and_variance_bounded() {
    // Theorem 2: E[n̂] = n, Var(n̂) ≤ n_s (E[1/q_R(t)] − 1), on both
    // ingest paths.
    let m_regs = 1024usize;
    let n_probe = 1500u64;
    let n_bg = 2500u64;
    let trials = 400;
    let edges = two_user_stream(n_probe, n_bg);
    let bound =
        theory::freers_variance_bound(n_probe as f64, (n_probe + n_bg) as f64, m_regs as f64);
    let (per_edge, batched): (Vec<f64>, Vec<f64>) = (0..trials)
        .map(|t| probe_estimates(|| FreeRS::new(m_regs, 9000 + t), &edges))
        .unzip();
    for (path, samples) in [("per edge", per_edge), ("batched", batched)] {
        let (mean, var) = moments(&samples);
        let se = (var / trials as f64).sqrt();
        assert!(
            (mean - n_probe as f64).abs() < 4.0 * se + 1.0,
            "{path}: mean {mean} vs {n_probe} (se {se:.2})"
        );
        assert!(
            var < bound * 1.35,
            "{path}: measured var {var:.1} exceeds Theorem 2 bound {bound:.1}"
        );
    }
}

#[test]
fn freebs_beats_cse_variance_in_shared_regime() {
    // §IV-C claim: under the same M, FreeBS has lower variance than CSE
    // for small users drowned in noise. Measure both over seeds.
    let m_bits = 1 << 13;
    let m_virtual = 256;
    let n_probe = 50u64;
    let n_bg_users = 200u64;
    let trials = 150;

    let mut fbs_samples = Vec::with_capacity(trials);
    let mut cse_samples = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut fbs = FreeBS::new(m_bits, 31 * t + 7);
        let mut cse = freesketch::Cse::new(m_bits, m_virtual, 31 * t + 7);
        for d in 0..n_probe {
            fbs.process(0, d);
            cse.process(0, d);
        }
        for u in 1..=n_bg_users {
            for d in 0..40u64 {
                let item = d.wrapping_mul(u) ^ (u << 20);
                fbs.process(u, item);
                cse.process(u, item);
            }
        }
        fbs_samples.push(fbs.estimate(0));
        cse_samples.push(cse.estimate_fresh(0));
    }
    let (fbs_mean, fbs_var) = moments(&fbs_samples);
    let (_cse_mean, cse_var) = moments(&cse_samples);
    // FreeBS unbiased even here.
    let se = (fbs_var / trials as f64).sqrt();
    assert!((fbs_mean - n_probe as f64).abs() < 4.0 * se + 1.0);
    // MSE comparison: FreeBS strictly better for the small shared user.
    let mse = |samples: &[f64]| {
        samples
            .iter()
            .map(|e| (e - n_probe as f64).powi(2))
            .sum::<f64>()
            / samples.len() as f64
    };
    assert!(
        mse(&fbs_samples) < mse(&cse_samples),
        "FreeBS MSE {:.1} should beat CSE MSE {:.1}",
        mse(&fbs_samples),
        mse(&cse_samples)
    );
    let _ = cse_var;
}

#[test]
fn freers_beats_vhll_variance_in_shared_regime() {
    // §IV-C: Var(FreeRS) < Var(vHLL) under equal register budgets.
    let m_regs = 1 << 11;
    let m_virtual = 256;
    let n_probe = 100u64;
    let trials = 150;

    let mut frs_samples = Vec::with_capacity(trials);
    let mut vhll_samples = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut frs = FreeRS::new(m_regs, 77 * t + 3);
        let mut vhll = freesketch::VHll::new(m_regs, m_virtual, 77 * t + 3);
        for d in 0..n_probe {
            frs.process(0, d);
            vhll.process(0, d);
        }
        for u in 1..=300u64 {
            for d in 0..30u64 {
                let item = d.wrapping_mul(u) ^ (u << 22);
                frs.process(u, item);
                vhll.process(u, item);
            }
        }
        frs_samples.push(frs.estimate(0));
        vhll_samples.push(vhll.estimate_fresh(0));
    }
    let mse = |samples: &[f64]| {
        samples
            .iter()
            .map(|e| (e - n_probe as f64).powi(2))
            .sum::<f64>()
            / samples.len() as f64
    };
    assert!(
        mse(&frs_samples) < mse(&vhll_samples),
        "FreeRS MSE {:.1} should beat vHLL MSE {:.1}",
        mse(&frs_samples),
        mse(&vhll_samples)
    );
}

#[test]
fn anytime_estimates_track_truth_throughout_stream() {
    // The headline anytime property: at many checkpoints along one stream,
    // the estimate stays within a few σ of the running truth.
    let m_bits = 1 << 16;
    let mut f = FreeBS::new(m_bits, 5);
    let n = 20_000u64;
    let mut worst_rel = 0.0f64;
    for d in 0..n {
        f.process(1, d);
        if d % 1000 == 999 {
            let truth = (d + 1) as f64;
            let rel = (f.estimate(1) / truth - 1.0).abs();
            worst_rel = worst_rel.max(rel);
        }
    }
    assert!(
        worst_rel < 0.08,
        "worst checkpoint relative error {worst_rel} too high"
    );
}

/// A sketch kind the CLI builds, with the Theorem whose bound prices its
/// interval.
struct Kind {
    name: &'static str,
    /// `M`: bits for FreeBS, registers for FreeRS.
    m: usize,
    /// Shards `P`; 1 for the scalar kinds.
    shards: usize,
    bound: fn(f64, f64, f64) -> f64,
    build: fn(usize, usize, u64) -> AnySketch,
}

/// The 95% interval that `AnySketch::confidence` gives a 400-item probe,
/// over 200 seeds at each of two background loads: it covers the truth in
/// at least 90% of seeds (the nominal 95%, less three binomial sds), and
/// its mean std_dev is within 10% of the Theorem sd, so coverage is not
/// bought with a uselessly wide interval.
fn assert_served_interval_covers(kind: &Kind) {
    const Z95: f64 = 1.959_963_984_540_054;
    const SEEDS: u64 = 200;
    let n_probe = 400u64;
    let truth = n_probe as f64;
    for n_bg in [400u64, 1200] {
        let edges = two_user_stream(n_probe, n_bg);
        let mut covered = 0u32;
        let mut sd_sum = 0.0;
        for seed in 0..SEEDS {
            let mut sketch = (kind.build)(kind.m, kind.shards, 7000 + seed);
            sketch
                .ingest_stream(&mut SliceSource::new(&edges), DEFAULT_CHUNK, 1, None, 0)
                .expect("an in-memory source cannot fail");
            let ci = sketch.confidence(1, Z95);
            covered += u32::from(ci.lower <= truth && truth <= ci.upper);
            // The std_dev the interval was built with, as `upper` (never
            // clamped) shows it.
            sd_sum += (ci.upper - ci.estimate) / Z95;
        }
        // The Theorem sd summed over P shards of M/P slots, each with 1/P
        // of the probe's and of the stream's pairs.
        let p = kind.shards as f64;
        let n_total = (n_probe + n_bg) as f64;
        let theorem_sd = (p * (kind.bound)(truth / p, n_total / p, kind.m as f64 / p)).sqrt();
        let coverage = f64::from(covered) / SEEDS as f64;
        let mean_sd = sd_sum / SEEDS as f64;
        let what = format!("{}, P = {}, background {n_bg}", kind.name, kind.shards);
        assert!(coverage >= 0.90, "{what}: coverage {coverage}");
        assert!(
            (0.9..=1.1).contains(&(mean_sd / theorem_sd)),
            "{what}: mean std_dev {mean_sd:.2} vs Theorem sd {theorem_sd:.2}"
        );
    }
}

#[test]
fn served_confidence_interval_covers_the_truth() {
    // `CONFIDENCE` answers with `AnySketch::confidence`: the Theorem 1/2
    // bound priced at the sketch's estimate and smallest shard `q`. Each
    // kind is fed as `estimate` feeds it (`ingest_stream` at the default
    // chunk on one thread; for the sharded kinds those are the
    // default-batch `ingest_batch` calls `serve`'s writer makes). The
    // background user's 400 or 1,200 items take `q` from about 0.7
    // (FreeBS, light) to about 0.2 (FreeRS, heavy).
    let kinds = [
        Kind {
            name: "freebs",
            m: 2048,
            shards: 1,
            bound: theory::freebs_variance_bound,
            build: |m, _, seed| FreeBS::new(m, seed).into(),
        },
        Kind {
            name: "freers",
            m: 512,
            shards: 1,
            bound: theory::freers_variance_bound,
            build: |m, _, seed| FreeRS::new(m, seed).into(),
        },
        Kind {
            name: "sharded-freebs",
            m: 2048,
            shards: 1,
            bound: theory::freebs_variance_bound,
            build: |m, p, seed| ShardedFreeBS::new(m, p, seed).into(),
        },
        Kind {
            name: "sharded-freebs",
            m: 2048,
            shards: 2,
            bound: theory::freebs_variance_bound,
            build: |m, p, seed| ShardedFreeBS::new(m, p, seed).into(),
        },
        Kind {
            name: "sharded-freers",
            m: 512,
            shards: 1,
            bound: theory::freers_variance_bound,
            build: |m, p, seed| ShardedFreeRS::new(m, p, seed).into(),
        },
        Kind {
            name: "sharded-freers",
            m: 512,
            shards: 2,
            bound: theory::freers_variance_bound,
            build: |m, p, seed| ShardedFreeRS::new(m, p, seed).into(),
        },
    ];
    // Side by side: the 2,400 ingests of a debug build take seconds in
    // a row.
    std::thread::scope(|s| {
        for kind in &kinds {
            s.spawn(move || assert_served_interval_covers(kind));
        }
    });
}
