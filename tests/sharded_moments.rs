//! Moment checks for the sharded estimator over many seeds: unbiased per
//! edge, one-sided block drift in batches, and variance within the summed
//! per-shard Theorem 1 bound (see the `sharded` module docs).
//!
//! The stream is the two-user stream of the scalar moment tests in
//! `crates/core/tests/statistical.rs`: a probe user with `n = 600` items
//! interleaved with a background user's 1,400, in `M = 4,096` bits.

use freesketch::{theory, ConcurrentEstimator, ShardedFreeBS};

const M_BITS: usize = 4096;
const N_PROBE: u64 = 600;
const N_BG: u64 = 1400;
const SEEDS: u64 = 400;

fn stream() -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..N_PROBE.max(N_BG) {
        if i < N_PROBE {
            edges.push((1, i));
        }
        if i < N_BG {
            edges.push((2, i.wrapping_mul(0x9E37_79B9) ^ 0xF00D));
        }
    }
    edges
}

/// The probe user's estimate for every seed, and the smallest zero count
/// any shard ended with. `batch == 0` ingests edge by edge.
fn probe_estimates(shards: usize, batch: usize) -> (Vec<f64>, usize) {
    let edges = stream();
    let mut min_zeros = usize::MAX;
    let samples = (0..SEEDS)
        .map(|t| {
            let sketch = ShardedFreeBS::new(M_BITS, shards, 1000 + t);
            if batch == 0 {
                for &(user, item) in &edges {
                    sketch.ingest(user, item);
                }
            } else {
                for slice in edges.chunks(batch) {
                    sketch.ingest_batch(slice);
                }
            }
            for shard in sketch.shards() {
                min_zeros = min_zeros.min(shard.store().zeros());
            }
            sketch.estimate(1)
        })
        .collect();
    (samples, min_zeros)
}

/// Sample mean, sample variance and the standard error of the mean.
fn moments(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var, (var / n).sqrt())
}

/// Theorem 1 summed over `P` independent shards of `M/P` bits, each
/// holding `1/P` of the probe's and of the stream's distinct pairs.
fn summed_bound(shards: usize) -> f64 {
    let p = shards as f64;
    let n_total = (N_PROBE + N_BG) as f64;
    p * theory::freebs_variance_bound(N_PROBE as f64 / p, n_total / p, M_BITS as f64 / p)
}

/// Variance at or below the bound with the χ²(399) sampling slack of the
/// scalar test, and not vacuously far below it.
fn assert_variance_within_bound(var: f64, shards: usize, what: &str) {
    let bound = summed_bound(shards);
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
        let (samples, _) = probe_estimates(shards, 0);
        let (mean, var, se) = moments(&samples);
        let n = N_PROBE as f64;
        assert!(
            (mean - n).abs() < 4.0 * se + 1.0,
            "P = {shards}: mean {mean:.1} vs {n} (se {se:.2})"
        );
        assert_variance_within_bound(var, shards, &format!("P = {shards}, per edge"));
    }
}

#[test]
fn batched_ingest_drifts_one_sided_within_the_block_bound() {
    // A batch freezes each shard's q for up to `batch` of its edges, which
    // shrinks every credit by a relative factor of at most batch/m₀.
    let (shards, batch) = (4usize, 64usize);
    let (samples, min_zeros) = probe_estimates(shards, batch);
    let (mean, var, se) = moments(&samples);
    let n = N_PROBE as f64;
    let drift = n * batch as f64 / min_zeros as f64;
    assert!(
        mean > n - drift - 4.0 * se && mean < n + 4.0 * se,
        "P = {shards}, batch {batch}: mean {mean:.1} outside [{:.1}, {:.1}]",
        n - drift - 4.0 * se,
        n + 4.0 * se
    );
    assert_variance_within_bound(var, shards, &format!("P = {shards}, batch {batch}"));
}
