//! HyperLogLog++ (Heule, Nunkesser & Hall, EDBT 2013).
//!
//! The three HLL++ refinements over plain HLL, all implemented here:
//!
//! 1. **64-bit hashing** — no large-range correction needed (ours already is
//!    64-bit end to end);
//! 2. **Empirical bias correction** in the `raw ≤ 5m` window, with tables we
//!    regenerate by simulation (see [`bias`]) rather than copying Google's —
//!    same mechanism, our own constants (substitutions listed in
//!    README.md, "Reproduction status");
//! 3. **Sparse representation** — below a size threshold, entries are kept
//!    as an exact `index → max-rank` map at a higher precision `p' = 20` and
//!    estimated by linear counting at `m' = 2^20`, converting to the dense
//!    6-bit register array once the map would outgrow it.
//!
//! One deliberate simplification relative to the Google implementation: the
//! rank is drawn from an independently re-mixed hash value rather than from
//! the bit-suffix of the index hash (see `hashkit::EdgeHasher`), which makes
//! the sparse→dense conversion lossless without the `idx'`-suffix rank
//! recovery dance. The estimator's distribution is identical since both are
//! ideal-uniform under the mixer assumption.

pub mod bias;

use crate::hll::alpha_m;
use crate::{DistinctCounter, GeometryError};
use bitpack::PackedArray;
use hashkit::{FxHashMap, UserItemHasher};

/// Sparse-mode precision: indices are tracked at `m' = 2^20` cells.
const SPARSE_PRECISION: u8 = 20;

/// Linear-counting thresholds from the HLL++ paper (Heule et al., Table in
/// the appendix): below this estimate, linear counting beats the
/// bias-corrected raw estimator for precision `p = index + 4`.
const LC_THRESHOLDS: [f64; 15] = [
    10.0, 20.0, 40.0, 80.0, 220.0, 400.0, 900.0, 1800.0, 3100.0, 6500.0, 11500.0, 20000.0, 50000.0,
    120000.0, 350000.0,
];

#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
enum Repr {
    /// Exact `index' → max rank` map at precision `p' = 20`.
    Sparse(FxHashMap<u32, u8>),
    /// 6-bit packed registers at precision `p`.
    Dense(PackedArray),
}

/// A HyperLogLog++ sketch with `m = 2^p` six-bit registers.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HyperLogLogPP {
    precision: u8,
    hasher: UserItemHasher,
    alpha: f64,
    repr: Repr,
}

impl HyperLogLogPP {
    /// Register width (bits): HLL++ uses 6-bit registers.
    pub const REGISTER_WIDTH: u8 = 6;

    /// Creates a sketch with precision `p` (i.e. `m = 2^p` registers).
    ///
    /// # Errors
    /// [`GeometryError::BadPrecision`] unless `4 ≤ p ≤ 18`.
    pub fn new(precision: u8, seed: u64) -> Result<Self, GeometryError> {
        if !(4..=18).contains(&precision) {
            return Err(GeometryError::BadPrecision {
                requested: precision,
            });
        }
        Ok(Self {
            precision,
            hasher: UserItemHasher::new(seed),
            alpha: alpha_m(1usize << precision),
            repr: Repr::Sparse(FxHashMap::default()),
        })
    }

    /// The precision `p`.
    #[must_use]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of dense registers `m = 2^p`.
    #[must_use]
    pub fn m(&self) -> usize {
        1usize << self.precision
    }

    /// Whether the sketch is still in the sparse representation.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Sparse→dense conversion threshold: convert once the map holds more
    /// entries than would fit in the dense array's memory (each sparse entry
    /// costs ~8 bytes against 6 bits per dense register, so `6m/64 · 8/6`
    /// simplified to `m/8` entries keeps sparse strictly smaller).
    fn sparse_capacity(&self) -> usize {
        (self.m() / 8).max(16)
    }

    fn convert_to_dense(&mut self) {
        if let Repr::Sparse(map) = &self.repr {
            let mut regs = PackedArray::new(self.m(), Self::REGISTER_WIDTH);
            let shift = SPARSE_PRECISION - self.precision;
            for (&idx20, &rank) in map {
                let idx = (idx20 >> shift) as usize;
                regs.store_max(idx, u16::from(rank));
            }
            self.repr = Repr::Dense(regs);
        }
    }

    /// Forces dense mode (used by merge and tests).
    pub fn densify(&mut self) {
        self.convert_to_dense();
    }

    /// The raw (uncorrected) dense estimate `α_m m² / Σ 2^{-R}`; exposed for
    /// the bias-table generator.
    #[must_use]
    pub fn raw_estimate(&self) -> f64 {
        match &self.repr {
            Repr::Sparse(_) => {
                // Not meaningful in sparse mode; fold to the dense registers
                // it would convert to.
                let mut clone = self.clone();
                clone.convert_to_dense();
                clone.raw_estimate()
            }
            Repr::Dense(regs) => {
                let m = regs.len() as f64;
                self.alpha * m * m / regs.sum_pow2_neg()
            }
        }
    }

    /// Merges another HLL++ with the same seed and precision. Both sketches
    /// are densified if either already is; two sparse sketches merge
    /// sparsely.
    ///
    /// # Panics
    /// Panics if seeds or precisions differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.hasher, other.hasher,
            "HLL++ merge requires identical seeds"
        );
        assert_eq!(
            self.precision, other.precision,
            "HLL++ merge requires equal precision"
        );
        match (&mut self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                for (&idx, &rank) in b {
                    let e = a.entry(idx).or_insert(0);
                    *e = (*e).max(rank);
                }
                if a.len() > self.sparse_capacity() {
                    self.convert_to_dense();
                }
            }
            (Repr::Dense(a), Repr::Dense(b)) => a.merge_max(b),
            _ => {
                self.convert_to_dense();
                let mut o = other.clone();
                o.convert_to_dense();
                if let (Repr::Dense(a), Repr::Dense(b)) = (&mut self.repr, &o.repr) {
                    a.merge_max(b);
                }
            }
        }
    }
}

impl DistinctCounter for HyperLogLogPP {
    #[inline]
    fn insert(&mut self, item: u64) -> bool {
        let (idx20, rank) = self
            .hasher
            .position_and_rank(item, 1usize << SPARSE_PRECISION);
        let rank = rank.saturated(Self::REGISTER_WIDTH);
        match &mut self.repr {
            Repr::Sparse(map) => {
                // Ranks are >= 1, so a freshly created entry (or_insert(0))
                // always registers as changed — which is correct: the sparse
                // state grew.
                let e = map.entry(idx20 as u32).or_insert(0);
                let changed = rank > *e;
                if changed {
                    *e = rank;
                }
                if map.len() > self.sparse_capacity() {
                    self.convert_to_dense();
                }
                changed
            }
            Repr::Dense(regs) => {
                let shift = SPARSE_PRECISION - self.precision;
                regs.store_max(idx20 >> shift, u16::from(rank)).is_some()
            }
        }
    }

    fn estimate(&self) -> f64 {
        match &self.repr {
            Repr::Sparse(map) => {
                // Linear counting at the sparse precision m' = 2^20.
                let m_prime = (1usize << SPARSE_PRECISION) as f64;
                let v = m_prime - map.len() as f64;
                if map.is_empty() {
                    0.0
                } else {
                    m_prime * (m_prime / v).ln()
                }
            }
            Repr::Dense(regs) => {
                let m = regs.len() as f64;
                let raw = self.alpha * m * m / regs.sum_pow2_neg();
                let corrected = if raw <= 5.0 * m {
                    raw - bias::estimate_bias(self.precision, raw)
                } else {
                    raw
                };
                let zeros = regs.count_zeros();
                if zeros > 0 {
                    let lc = m * (m / zeros as f64).ln();
                    let threshold = LC_THRESHOLDS[usize::from(self.precision) - 4];
                    if lc <= threshold {
                        return lc;
                    }
                }
                corrected
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sparse(map) => map.len() * (4 + 1 + 3), // entry + padding estimate
            Repr::Dense(regs) => regs.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_sparse_and_exact() {
        let mut pp = HyperLogLogPP::new(12, 1).expect("precision");
        assert!(pp.is_sparse());
        for i in 0..100u64 {
            pp.insert(i);
        }
        assert!(pp.is_sparse());
        // Sparse linear counting at 2^20 cells is essentially exact here.
        assert!((pp.estimate() - 100.0).abs() < 2.0, "est {}", pp.estimate());
    }

    #[test]
    fn converts_to_dense_and_stays_consistent() {
        let mut pp = HyperLogLogPP::new(8, 2).expect("precision"); // m=256, cap=32
        let mut i = 0u64;
        while pp.is_sparse() {
            pp.insert(i);
            i += 1;
            assert!(i < 100_000, "never converted");
        }
        assert!(!pp.is_sparse());
        // Estimate remains sane across the conversion boundary.
        let est = pp.estimate();
        assert!(
            (est / i as f64 - 1.0).abs() < 0.5,
            "est {est} vs {i} right after conversion"
        );
    }

    #[test]
    fn dense_large_range_accuracy() {
        let mut pp = HyperLogLogPP::new(10, 3).expect("precision"); // m=1024
        let n = 300_000u64;
        for i in 0..n {
            pp.insert(i);
        }
        let rel = (pp.estimate() / n as f64 - 1.0).abs();
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn precision_bounds_enforced() {
        assert!(HyperLogLogPP::new(3, 0).is_err());
        assert!(HyperLogLogPP::new(19, 0).is_err());
        assert!(HyperLogLogPP::new(4, 0).is_ok());
        assert!(HyperLogLogPP::new(18, 0).is_ok());
    }

    #[test]
    fn merge_sparse_sparse() {
        let mut a = HyperLogLogPP::new(12, 7).expect("precision");
        let mut b = HyperLogLogPP::new(12, 7).expect("precision");
        let mut u = HyperLogLogPP::new(12, 7).expect("precision");
        for i in 0..60u64 {
            a.insert(i);
            u.insert(i);
        }
        for i in 30..90u64 {
            b.insert(i);
            u.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn merge_mixed_densifies() {
        let mut a = HyperLogLogPP::new(6, 8).expect("precision");
        let mut b = HyperLogLogPP::new(6, 8).expect("precision");
        for i in 0..5000u64 {
            a.insert(i);
        }
        assert!(!a.is_sparse());
        for i in 4000..4010u64 {
            b.insert(i);
        }
        assert!(b.is_sparse(), "10 entries stay under the sparse cap of 16");
        a.merge(&b);
        assert!(!a.is_sparse());
        assert!(a.estimate() > 4000.0);
    }

    #[test]
    fn densify_preserves_estimate_scale() {
        let mut pp = HyperLogLogPP::new(10, 9).expect("precision");
        for i in 0..800u64 {
            pp.insert(i);
        }
        let sparse_est = pp.estimate();
        pp.densify();
        let dense_est = pp.estimate();
        assert!(
            (dense_est / sparse_est - 1.0).abs() < 0.25,
            "sparse {sparse_est} vs dense {dense_est}"
        );
    }

    #[test]
    fn dense_insert_change_signal() {
        let mut pp = HyperLogLogPP::new(4, 10).expect("precision");
        pp.densify();
        let mut any_change = false;
        for i in 0..100u64 {
            any_change |= pp.insert(i);
        }
        assert!(any_change);
        for i in 0..100u64 {
            assert!(!pp.insert(i), "duplicate changed dense state");
        }
    }
}
