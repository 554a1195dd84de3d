//! # cardsketch — single-stream cardinality sketches
//!
//! The classical distinct-counting sketches the paper builds on and compares
//! against, implemented from scratch:
//!
//! * [`LinearCounting`] (LPC) — Whang, Vander-Zanden & Taylor 1990 (§III-A1);
//! * [`HyperLogLog`] — Flajolet, Fusy, Gandouet & Meunier 2007 (§III-A2),
//!   with the exact `α_m` bias constant computed by numerical integration
//!   for *any* `m` and the small-range linear-counting fallback;
//! * [`HyperLogLogPP`] (HLL++) — Heule, Nunkesser & Hall 2013: 6-bit
//!   registers, a sparse representation for small sets, and empirical bias
//!   correction (tables regenerated by our own simulation, see
//!   `hllpp::bias`).
//!
//! All sketches implement [`DistinctCounter`], insert items in O(1), never
//! allocate per item (outside sparse-mode growth), and are
//! duplicate-insensitive by construction.
//!
//! ```
//! use cardsketch::{DistinctCounter, HyperLogLog};
//!
//! let mut h = HyperLogLog::new(1024, 7).expect("valid geometry");
//! for i in 0..50_000u64 {
//!     h.insert(i);
//!     h.insert(i); // duplicates change nothing
//! }
//! let est = h.estimate();
//! assert!((est / 50_000.0 - 1.0).abs() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hll;
pub mod hllpp;
mod lpc;

pub use error::GeometryError;
pub use hll::{alpha_m, HyperLogLog};
pub use hllpp::HyperLogLogPP;
pub use lpc::LinearCounting;

/// A streaming distinct counter over `u64` items.
///
/// Implementations must be duplicate-insensitive: re-inserting an item the
/// sketch has already absorbed leaves both the state and the estimate
/// unchanged.
pub trait DistinctCounter {
    /// Absorbs an item. Returns `true` iff the sketch *state* changed — the
    /// signal the paper's streaming estimators key off.
    fn insert(&mut self, item: u64) -> bool;

    /// Current cardinality estimate.
    fn estimate(&self) -> f64;

    /// Heap memory used by the sketch payload, in bytes (for the paper's
    /// equal-memory comparisons).
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<C: DistinctCounter>(mut c: C, n: u64, tol: f64) {
        for i in 0..n {
            c.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let est = c.estimate();
        let err = (est / n as f64 - 1.0).abs();
        assert!(err < tol, "estimate {est} vs true {n} (err {err:.3})");
    }

    #[test]
    fn lpc_counts() {
        exercise(
            LinearCounting::new(1 << 16, 1).expect("geometry"),
            10_000,
            0.05,
        );
    }

    #[test]
    fn hll_counts() {
        exercise(HyperLogLog::new(1024, 3).expect("geometry"), 100_000, 0.12);
    }

    #[test]
    fn hllpp_counts() {
        exercise(HyperLogLogPP::new(10, 4).expect("precision"), 100_000, 0.12);
    }

    #[test]
    fn duplicate_insensitivity_across_impls() {
        let mut lpc = LinearCounting::new(4096, 9).expect("geometry");
        let mut hll = HyperLogLog::new(256, 9).expect("geometry");
        let mut pp = HyperLogLogPP::new(8, 9).expect("precision");
        for i in 0..1000u64 {
            lpc.insert(i);
            hll.insert(i);
            pp.insert(i);
        }
        let (e1, e2, e3) = (lpc.estimate(), hll.estimate(), pp.estimate());
        for i in 0..1000u64 {
            assert!(!lpc.insert(i));
            assert!(!hll.insert(i));
            assert!(!pp.insert(i));
        }
        assert_eq!(e1, lpc.estimate());
        assert_eq!(e2, hll.estimate());
        assert_eq!(e3, pp.estimate());
    }
}
