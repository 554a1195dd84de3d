//! FreeBS — parameter-free bit sharing (§IV-A, Algorithm 1).
//!
//! Since the storage-generic refactor the whole update/estimate/batch
//! pipeline lives in [`crate::engine::SketchEngine`]; this module pins the
//! instantiation (bit array storage, exact-zero-count `q` tracking) and
//! the bit-specific conveniences.

use crate::engine::{SketchEngine, ZeroQ};
use bitpack::BitArray;

/// The FreeBS estimator: one shared bit array `B[1..M]`, one counter per
/// user.
///
/// Every edge `e = (s, d)` hashes — as a *pair* — to a single bit
/// `h*(e) ∈ 1..M`. If the bit flips from 0 to 1, the edge is certainly new,
/// and user `s`'s counter grows by `1/q_B(t)` where `q_B(t) = m₀(t−1)/M` is
/// the probability that a new edge hits a zero bit (Horvitz–Thompson).
/// Duplicate edges re-hit a set bit and are discarded for free.
///
/// Properties (Theorem 1): the estimate is **unbiased** for every user at
/// every time, with variance `Σ_{i∈T_s(t)} E[1/q_B(i)] − n_s(t)`; the
/// estimation range extends to `M ln M` (vs `m ln m` for CSE); and the
/// per-edge cost is O(1) — `m₀` is maintained exactly by the bit array.
pub type FreeBS = SketchEngine<BitArray, ZeroQ>;

impl FreeBS {
    /// Creates a FreeBS estimator over `m_bits` shared bits.
    ///
    /// # Panics
    /// Panics if `m_bits == 0`.
    #[must_use]
    pub fn new(m_bits: usize, seed: u64) -> Self {
        Self::from_store(BitArray::new(m_bits), seed)
    }

    /// Number of zero bits `m₀`.
    #[must_use]
    pub fn zeros(&self) -> usize {
        self.bit_array().zeros()
    }

    /// The top of the estimation range, `M ln M` (§IV-C): the expected total
    /// cardinality at which the last zero bit disappears.
    #[must_use]
    pub fn max_estimate(&self) -> f64 {
        let m = self.capacity() as f64;
        m * m.ln()
    }

    /// Read-only view of the shared bit array (for tests and diagnostics).
    #[must_use]
    pub fn bit_array(&self) -> &BitArray {
        self.store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CardinalityEstimator;

    #[test]
    fn unseen_user_estimates_zero() {
        let f = FreeBS::new(1024, 0);
        assert_eq!(f.estimate(99), 0.0);
        assert_eq!(f.total_estimate(), 0.0);
        assert_eq!(f.q(), 1.0);
    }

    #[test]
    fn first_edge_counts_exactly_one() {
        // q(1) = 1, so the first fresh edge adds exactly 1.
        let mut f = FreeBS::new(1024, 1);
        f.process(5, 77);
        assert_eq!(f.estimate(5), 1.0);
        assert_eq!(f.total_estimate(), 1.0);
    }

    #[test]
    fn duplicates_never_increase_estimates() {
        let mut f = FreeBS::new(4096, 2);
        for d in 0..100u64 {
            f.process(1, d);
        }
        let before = f.estimate(1);
        for d in 0..100u64 {
            f.process(1, d);
        }
        assert_eq!(f.estimate(1), before, "duplicates must be absorbed");
    }

    #[test]
    fn single_user_accuracy_light_load() {
        let mut f = FreeBS::new(1 << 16, 3);
        let n = 5_000u64;
        for d in 0..n {
            f.process(1, d);
        }
        let rel = (f.estimate(1) / n as f64 - 1.0).abs();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn multi_user_estimates_sum_to_total() {
        let mut f = FreeBS::new(1 << 14, 4);
        for u in 0..50u64 {
            for d in 0..(u + 1) * 10 {
                f.process(u, d);
            }
        }
        let mut sum = 0.0;
        f.for_each_estimate(&mut |_, e| sum += e);
        assert!((sum - f.total_estimate()).abs() < 1e-6);
        assert_eq!(f.user_count(), 50);
    }

    #[test]
    fn unbiased_over_seeds() {
        // Theorem 1: E[n̂_s] = n_s. Average over many independent seeds and
        // check the grand mean is within 4 standard errors.
        let n = 400u64;
        let m = 2048usize; // deliberately small so q drops well below 1
        let seeds = 300u64;
        let mut mean = 0.0;
        let mut estimates = Vec::with_capacity(seeds as usize);
        for seed in 0..seeds {
            let mut f = FreeBS::new(m, seed * 7 + 1);
            // Two users sharing the array so noise is present.
            for d in 0..n {
                f.process(1, d);
                f.process(2, d.wrapping_mul(31) ^ 0xABCD);
            }
            estimates.push(f.estimate(1));
            mean += f.estimate(1);
        }
        mean /= seeds as f64;
        let var: f64 =
            estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (seeds as f64 - 1.0);
        let se = (var / seeds as f64).sqrt();
        assert!(
            (mean - n as f64).abs() < 4.0 * se + 1.0,
            "mean {mean} vs true {n} (se {se})"
        );
    }

    #[test]
    fn q_decreases_monotonically() {
        let mut f = FreeBS::new(512, 6);
        let mut last_q = f.q();
        for d in 0..2000u64 {
            f.process(1, d);
            let q = f.q();
            assert!(q <= last_q);
            last_q = q;
        }
        assert!(last_q < 0.1, "array should be nearly full, q={last_q}");
    }

    #[test]
    fn estimation_range_exceeds_m() {
        // With n >> M the estimate can exceed M (up to M ln M) — CSE cannot
        // do this with m << M.
        let m = 1024usize;
        let mut f = FreeBS::new(m, 7);
        let n = 4000u64;
        for d in 0..n {
            f.process(1, d);
        }
        assert!(
            f.estimate(1) > m as f64,
            "estimate {} stuck below M",
            f.estimate(1)
        );
        assert!(f.estimate(1) < f.max_estimate());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FreeBS::new(4096, 9);
        let mut b = FreeBS::new(4096, 9);
        for d in 0..500u64 {
            a.process(d % 7, d);
            b.process(d % 7, d);
        }
        for u in 0..7u64 {
            assert_eq!(a.estimate(u), b.estimate(u));
        }
    }

    #[test]
    fn batch_is_per_edge_ingest_exactly() {
        let mut scalar = FreeBS::new(1 << 13, 21);
        let mut batch = FreeBS::new(1 << 13, 21);
        let edges: Vec<(u64, u64)> = (0..4_000u64)
            .map(|i| (i % 9, hashkit::splitmix64(i) >> 24))
            .collect();
        for &(u, d) in &edges {
            scalar.process(u, d);
        }
        batch.process_batch(&edges);
        assert_eq!(scalar.bit_array(), batch.bit_array());
        assert_eq!(scalar.total_estimate(), batch.total_estimate());
        for u in 0..9u64 {
            assert_eq!(scalar.estimate(u), batch.estimate(u), "user {u}");
        }
    }

    #[test]
    fn batch_empty_and_single_edge() {
        let mut f = FreeBS::new(1024, 3);
        f.process_batch(&[]);
        assert_eq!(f.total_estimate(), 0.0);
        f.process_batch(&[(5, 77)]);
        assert_eq!(f.estimate(5), 1.0);
    }

    #[test]
    fn all_duplicate_user_is_not_registered() {
        // Algorithm 1: an edge that lands on a set bit is discarded
        // entirely — a user whose every edge is a duplicate stays untracked.
        let mut f = FreeBS::new(1024, 1);
        f.process(1, 7);
        let slot_owner_estimate = f.estimate(1);
        assert_eq!(slot_owner_estimate, 1.0);
        f.process(2, 7); // same pair hashes differently; craft a real dup:
        f.process(1, 7); // exact duplicate of user 1's edge
        assert_eq!(f.estimate(1), 1.0);
        let mut users = Vec::new();
        f.for_each_estimate(&mut |u, _| users.push(u));
        users.sort_unstable();
        // User 2's edge is fresh with overwhelming probability at 2/1024
        // load; the invariant under test is that replaying user 1's edge
        // did not create duplicate bookkeeping.
        assert_eq!(users.iter().filter(|&&u| u == 1).count(), 1);
    }

    #[test]
    fn estimates_monotone_over_time() {
        let mut f = FreeBS::new(2048, 11);
        let mut last = 0.0;
        for d in 0..1000u64 {
            f.process(3, d);
            let e = f.estimate(3);
            assert!(e >= last);
            last = e;
        }
    }
}
