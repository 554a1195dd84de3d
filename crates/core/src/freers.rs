//! FreeRS — parameter-free register sharing (§IV-B, Algorithm 2).
//!
//! Since the storage-generic refactor the whole update/estimate/batch
//! pipeline lives in [`crate::engine::SketchEngine`]; this module pins the
//! instantiation (packed register storage, incremental-`Z` `q` tracking)
//! and the register-specific conveniences.

use crate::engine::{IncrementalZ, SketchEngine};
use bitpack::PackedArray;

/// The FreeRS estimator: one shared array of `M` w-bit registers, one
/// counter per user.
///
/// Every edge hashes to a register `h*(e)` and a Geometric(1/2) rank
/// `ρ*(e)`. If the rank exceeds the register, the register grows and user
/// `s`'s counter grows by `1/q_R(t)` where `q_R(t) = (Σ_j 2^{-R[j]})/M` is
/// the probability that a new edge grows *some* register. `Z = Σ 2^{-R[j]}`
/// is maintained incrementally, one addition per growth and never
/// rebuilt, so the per-edge cost is O(1).
///
/// Properties (Theorem 2): unbiased at every time for every user; variance
/// `Σ_{i∈T_s(t)} E[1/q_R(i)] − n_s(t)` with
/// `E[1/q_R] ≈ 1.386·n/M` for `n > 2.5M`; estimation range `≈ 2^(2^w)`.
///
/// ```
/// use freesketch::{CardinalityEstimator, FreeRS};
///
/// let mut frs = FreeRS::new(1 << 14, 7); // 16k five-bit registers = 10 KiB
/// for item in 0..50_000u64 {
///     frs.process(1, item);
/// }
/// assert!((frs.estimate(1) / 50_000.0 - 1.0).abs() < 0.1);
/// ```
pub type FreeRS = SketchEngine<PackedArray, IncrementalZ>;

impl FreeRS {
    /// The paper's register width: 5 bits (§V-B).
    pub const DEFAULT_WIDTH: u8 = 5;

    /// Creates a FreeRS estimator over `m_registers` registers of
    /// [`Self::DEFAULT_WIDTH`] bits.
    ///
    /// # Panics
    /// Panics if `m_registers == 0`.
    #[must_use]
    pub fn new(m_registers: usize, seed: u64) -> Self {
        Self::with_width(m_registers, Self::DEFAULT_WIDTH, seed)
    }

    /// Creates a FreeRS estimator with an explicit register width (the
    /// ablation A2 sweeps this).
    ///
    /// # Panics
    /// Panics if `m_registers == 0` or `width ∉ 1..=16`.
    #[must_use]
    pub fn with_width(m_registers: usize, width: u8, seed: u64) -> Self {
        Self::from_store(PackedArray::new(m_registers, width), seed)
    }

    /// Register width `w` in bits.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.registers().width()
    }

    /// The absolute distance between the incremental `Z` and the exact
    /// `Σ 2^{-R[j]}`: the drift accumulated over the whole stream (read by
    /// the drift ablation and tests; an O(M) scan).
    #[must_use]
    pub fn z_drift(&self) -> f64 {
        let (store, _, q, _, _) = self.parts();
        (q.z - store.sum_pow2_neg()).abs()
    }

    /// Read-only view of the shared registers.
    #[must_use]
    pub fn registers(&self) -> &PackedArray {
        self.store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CardinalityEstimator;

    #[test]
    fn unseen_user_estimates_zero() {
        let f = FreeRS::new(1024, 0);
        assert_eq!(f.estimate(42), 0.0);
        assert_eq!(f.q(), 1.0, "all-zero registers give q = 1");
    }

    #[test]
    fn first_edge_counts_exactly_one() {
        let mut f = FreeRS::new(1024, 1);
        f.process(5, 99);
        assert_eq!(f.estimate(5), 1.0);
    }

    #[test]
    fn duplicates_never_increase_estimates() {
        let mut f = FreeRS::new(4096, 2);
        for d in 0..200u64 {
            f.process(1, d);
        }
        let before = f.estimate(1);
        for d in 0..200u64 {
            f.process(1, d);
        }
        assert_eq!(f.estimate(1), before);
    }

    #[test]
    fn incremental_z_matches_exact() {
        let mut f = FreeRS::new(2048, 3);
        for u in 0..20u64 {
            for d in 0..500u64 {
                f.process(u, d.wrapping_mul(u + 1));
            }
        }
        let drift = f.z_drift();
        assert!(drift < 1e-9, "Z drift {drift} too large");
    }

    #[test]
    fn single_user_accuracy() {
        let mut f = FreeRS::new(1 << 14, 4);
        let n = 20_000u64;
        for d in 0..n {
            f.process(1, d);
        }
        let rel = (f.estimate(1) / n as f64 - 1.0).abs();
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn estimates_beyond_saturation_range_of_bits() {
        // FreeRS's range is ~2^2^w; with M = 1024 registers it can absorb
        // n >> M ln M where FreeBS would saturate.
        let m = 1024usize;
        let mut f = FreeRS::new(m, 5);
        let n = 60_000u64; // ≈ 8.6 × M ln M
        for d in 0..n {
            f.process(1, d);
        }
        let rel = (f.estimate(1) / n as f64 - 1.0).abs();
        assert!(rel < 0.25, "relative error {rel} at n >> M ln M");
    }

    #[test]
    fn unbiased_over_seeds() {
        // Theorem 2: E[n̂_s] = n_s.
        let n = 400u64;
        let m = 512usize;
        let seeds = 300u64;
        let mut mean = 0.0;
        let mut all = Vec::with_capacity(seeds as usize);
        for seed in 0..seeds {
            let mut f = FreeRS::new(m, seed * 13 + 5);
            for d in 0..n {
                f.process(1, d);
                f.process(2, d.wrapping_mul(17) ^ 0x5a5a);
            }
            all.push(f.estimate(1));
            mean += f.estimate(1);
        }
        mean /= seeds as f64;
        let var: f64 = all.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (seeds as f64 - 1.0);
        let se = (var / seeds as f64).sqrt();
        assert!(
            (mean - n as f64).abs() < 4.0 * se + 1.0,
            "mean {mean} vs true {n} (se {se})"
        );
    }

    #[test]
    fn q_decreases_monotonically() {
        let mut f = FreeRS::new(256, 6);
        let mut last = f.q();
        for d in 0..5000u64 {
            f.process(1, d);
            let q = f.q();
            assert!(q <= last + 1e-12);
            last = q;
        }
        assert!(last < 0.5);
    }

    #[test]
    fn width_sweep_constructs() {
        for w in [4u8, 5, 6, 8] {
            let mut f = FreeRS::with_width(512, w, 7);
            for d in 0..1000u64 {
                f.process(1, d);
            }
            assert!(f.estimate(1) > 0.0);
            assert_eq!(f.memory_bits(), 512 * usize::from(w));
        }
    }

    #[test]
    fn batch_is_per_edge_ingest_exactly() {
        let mut scalar = FreeRS::new(1 << 11, 23);
        let mut batch = FreeRS::new(1 << 11, 23);
        let edges: Vec<(u64, u64)> = (0..6_000u64)
            .map(|i| (i % 11, hashkit::splitmix64(i) >> 16))
            .collect();
        for &(u, d) in &edges {
            scalar.process(u, d);
        }
        batch.process_batch(&edges);
        assert_eq!(scalar.registers(), batch.registers());
        assert_eq!(scalar.total_estimate(), batch.total_estimate());
        for u in 0..11u64 {
            assert_eq!(scalar.estimate(u), batch.estimate(u), "user {u}");
        }
        assert!(batch.z_drift() < 1e-9, "batch Z must stay exact");
    }

    #[test]
    fn batch_matches_per_edge_over_a_million_growths() {
        // 2²¹ distinct edges into 2²⁰ registers make about 1.4M growths
        // over thousands of blocks: the tracker state must match as well,
        // and `Z`, never rebuilt, must still be the exact register sum.
        let m = 1 << 20;
        let edges: Vec<(u64, u64)> = (0..1u64 << 21).map(|i| (i % 101, i)).collect();
        let mut scalar = FreeRS::new(m, 31);
        let mut growths = 0u64;
        for &(u, d) in &edges {
            let before = scalar.total_estimate();
            scalar.process(u, d);
            growths += u64::from(scalar.total_estimate() != before);
        }
        assert!(growths > 1 << 20, "only {growths} growths");
        let sliced = |cut: usize| {
            let mut f = FreeRS::new(m, 31);
            for slice in edges.chunks(cut) {
                f.process_batch(slice);
            }
            f
        };
        let trace: Vec<graphstream::Edge> = edges
            .iter()
            .map(|&(u, d)| graphstream::Edge::new(u, d))
            .collect();
        let mut streamed = FreeRS::new(m, 31);
        let mut src = graphstream::SliceSource::new(&trace);
        crate::stream_into(&mut streamed, &mut src, 1000, crate::ingest::DEFAULT_BATCH)
            .expect("an in-memory source cannot fail");
        for (what, batch) in [
            ("slices of 100", sliced(100)),
            ("slices of 8192", sliced(8192)),
            ("stream_into", streamed),
        ] {
            assert_eq!(scalar.registers(), batch.registers(), "{what}");
            assert_eq!(scalar.parts().2, batch.parts().2, "{what}: tracker");
            assert_eq!(scalar.total_estimate(), batch.total_estimate(), "{what}");
            for u in 0..101u64 {
                assert_eq!(scalar.estimate(u), batch.estimate(u), "{what} user {u}");
            }
        }
        assert_eq!(scalar.z_drift(), 0.0);
    }

    #[test]
    fn batch_empty_and_single_edge() {
        let mut f = FreeRS::new(1024, 3);
        f.process_batch(&[]);
        assert_eq!(f.total_estimate(), 0.0);
        f.process_batch(&[(5, 77)]);
        assert_eq!(f.estimate(5), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FreeRS::new(2048, 9);
        let mut b = FreeRS::new(2048, 9);
        for d in 0..1000u64 {
            a.process(d % 5, d);
            b.process(d % 5, d);
        }
        for u in 0..5u64 {
            assert_eq!(a.estimate(u), b.estimate(u));
        }
    }
}
