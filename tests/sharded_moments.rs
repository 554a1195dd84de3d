//! Moment checks for the sharded estimators over many seeds: unbiased per
//! edge and in batches on one writer, one-sided drift in batches on two
//! writers, and variance within the per-shard Theorem 1/2 bound summed
//! over shards (see the `sharded` module docs).
//!
//! The streams are the two-user streams of the scalar moment tests in
//! `crates/core/tests/statistical.rs`: a probe user's `n` items
//! interleaved with a background user's, `n = 600` and 1,400 in `M =
//! 4,096` bits for FreeBS, `n = 1,500` and 2,500 in `M = 1,024`
//! registers for FreeRS.

use freesketch::{stream_into_parallel, theory, ConcurrentEstimator, ShardedFreeBS, ShardedFreeRS};
use graphstream::{Edge, SliceSource};

const SEEDS: u64 = 400;

/// A moment test's stream and array: the probe's and the background
/// user's distinct items, the array size `M`, and Theorem 1 or 2.
struct Case {
    n_probe: u64,
    n_bg: u64,
    m: usize,
    bound: fn(f64, f64, f64) -> f64,
}

const FREEBS: Case = Case {
    n_probe: 600,
    n_bg: 1400,
    m: 4096,
    bound: theory::freebs_variance_bound,
};

const FREERS: Case = Case {
    n_probe: 1500,
    n_bg: 2500,
    m: 1024,
    bound: theory::freers_variance_bound,
};

impl Case {
    fn stream(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..self.n_probe.max(self.n_bg) {
            if i < self.n_probe {
                edges.push(Edge::new(1, i));
            }
            if i < self.n_bg {
                edges.push(Edge::new(2, i.wrapping_mul(0x9E37_79B9) ^ 0xF00D));
            }
        }
        edges
    }

    /// The bound summed over `P` independent shards of `M/P` slots, each
    /// holding `1/P` of the probe's and of the stream's distinct pairs.
    fn summed_bound(&self, shards: usize) -> f64 {
        let p = shards as f64;
        let n_total = (self.n_probe + self.n_bg) as f64;
        p * (self.bound)(self.n_probe as f64 / p, n_total / p, self.m as f64 / p)
    }
}

/// The probe user's estimate for every seed, the stream fed by
/// `stream_into_parallel` in one chunk split over `threads` threads, in
/// `batch`-edge slices (`0`: edge by edge). `inspect` sees each sketch
/// after ingest.
fn probe_estimates<E: ConcurrentEstimator>(
    case: &Case,
    build: impl Fn(u64) -> E,
    batch: usize,
    threads: usize,
    mut inspect: impl FnMut(&E),
) -> Vec<f64> {
    let edges = case.stream();
    (0..SEEDS)
        .map(|t| {
            let sketch = build(t);
            stream_into_parallel(
                &sketch,
                &mut SliceSource::new(&edges),
                edges.len(),
                batch,
                threads,
            )
            .expect("an in-memory source cannot fail");
            inspect(&sketch);
            sketch.estimate(1)
        })
        .collect()
}

/// Sample mean, sample variance and the standard error of the mean.
fn moments(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var, (var / n).sqrt())
}

/// Variance at or below the bound with the χ²(399) sampling slack of the
/// scalar tests, and not vacuously far below it.
fn assert_variance_within_bound(var: f64, bound: f64, what: &str) {
    assert!(
        var < bound * 1.35,
        "{what}: variance {var:.1} exceeds the summed bound {bound:.1}"
    );
    assert!(
        var > bound * 0.1,
        "{what}: variance {var:.1} suspiciously far below the bound {bound:.1}"
    );
}

#[test]
fn per_edge_ingest_is_unbiased_within_the_summed_bound() {
    for shards in [1usize, 4] {
        let freebs = probe_estimates(
            &FREEBS,
            |t| ShardedFreeBS::new(FREEBS.m, shards, 1000 + t),
            0,
            1,
            |_| {},
        );
        let freers = probe_estimates(
            &FREERS,
            |t| ShardedFreeRS::new(FREERS.m, shards, 9000 + t),
            0,
            1,
            |_| {},
        );
        for (name, case, samples) in [("FreeBS", &FREEBS, freebs), ("FreeRS", &FREERS, freers)] {
            let (mean, var, se) = moments(&samples);
            let n = case.n_probe as f64;
            assert!(
                (mean - n).abs() < 4.0 * se + 1.0,
                "{name}, P = {shards}: mean {mean:.1} vs {n} (se {se:.2})"
            );
            let what = format!("{name}, P = {shards}, per edge");
            assert_variance_within_bound(var, case.summed_bound(shards), &what);
        }
    }
}

#[test]
fn batched_ingest_drifts_one_sided_within_the_block_bound() {
    // One writer credits every growth at the q just before it, as per-edge
    // ingest does, so its batches are unbiased. A second writer's flips
    // reach the zero count once per block of its own, so a credit can miss
    // up to one block of them: that shrinks a credit by a relative factor
    // of at most batch/m₀, one-sided.
    let batch = 64usize;
    for (shards, threads) in [(4usize, 1usize), (1, 2), (4, 2)] {
        let mut min_zeros = usize::MAX;
        let samples = probe_estimates(
            &FREEBS,
            |t| ShardedFreeBS::new(FREEBS.m, shards, 1000 + t),
            batch,
            threads,
            |sketch| {
                for shard in sketch.shards() {
                    min_zeros = min_zeros.min(shard.store().zeros());
                }
            },
        );
        let (mean, var, se) = moments(&samples);
        let n = FREEBS.n_probe as f64;
        let what = format!("P = {shards}, {threads} thread(s), batch {batch}");
        if threads == 1 {
            assert!(
                (mean - n).abs() < 4.0 * se + 1.0,
                "{what}: mean {mean:.1} vs {n} (se {se:.2})"
            );
        } else {
            let drift = n * batch as f64 / min_zeros as f64;
            assert!(
                mean > n - drift - 4.0 * se && mean < n + 4.0 * se,
                "{what}: mean {mean:.1} outside [{:.1}, {:.1}]",
                n - drift - 4.0 * se,
                n + 4.0 * se
            );
        }
        assert_variance_within_bound(var, FREEBS.summed_bound(shards), &what);
    }
}
