//! Property-based tests for the single-stream sketches.

use cardsketch::{DistinctCounter, HyperLogLog, HyperLogLogPP, LinearCounting};
use proptest::prelude::*;

/// Inserting a multiset gives the same state as inserting its distinct
/// elements once each (duplicate-insensitivity), for every sketch type.
fn check_duplicate_insensitive<C, F>(make: F, items: &[u64])
where
    C: DistinctCounter,
    F: Fn() -> C,
{
    let mut with_dups = make();
    for &it in items {
        with_dups.insert(it);
        with_dups.insert(it); // immediate duplicate
    }
    let mut once = make();
    let mut seen = std::collections::HashSet::new();
    for &it in items {
        if seen.insert(it) {
            once.insert(it);
        }
    }
    assert_eq!(with_dups.estimate(), once.estimate());
}

proptest! {
    #[test]
    fn lpc_duplicate_insensitive(items in prop::collection::vec(any::<u64>(), 0..400)) {
        check_duplicate_insensitive(|| LinearCounting::new(2048, 5).expect("geometry"), &items);
    }

    #[test]
    fn hll_duplicate_insensitive(items in prop::collection::vec(any::<u64>(), 0..400)) {
        check_duplicate_insensitive(|| HyperLogLog::new(128, 5).expect("geometry"), &items);
    }

    #[test]
    fn hllpp_duplicate_insensitive(items in prop::collection::vec(any::<u64>(), 0..400)) {
        check_duplicate_insensitive(|| HyperLogLogPP::new(6, 5).expect("precision"), &items);
    }

    /// Insertion order never matters: sketches are commutative monoids.
    #[test]
    fn hll_order_insensitive(mut items in prop::collection::vec(any::<u64>(), 0..300), seed: u64) {
        let mut fwd = HyperLogLog::new(64, 9).expect("geometry");
        for &it in &items {
            fwd.insert(it);
        }
        // Deterministic shuffle driven by the proptest-provided seed.
        let mut rng = hashkit::SplitMix64::new(seed);
        for i in (1..items.len()).rev() {
            items.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut rev = HyperLogLog::new(64, 9).expect("geometry");
        for &it in &items {
            rev.insert(it);
        }
        prop_assert_eq!(fwd.estimate(), rev.estimate());
    }

    /// Merge(a, b) estimate equals the estimate of the concatenated stream.
    #[test]
    fn merge_is_union(xs in prop::collection::vec(any::<u64>(), 0..200),
                      ys in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut a = HyperLogLog::new(64, 11).expect("geometry");
        let mut b = HyperLogLog::new(64, 11).expect("geometry");
        let mut u = HyperLogLog::new(64, 11).expect("geometry");
        for &x in &xs { a.insert(x); u.insert(x); }
        for &y in &ys { b.insert(y); u.insert(y); }
        a.merge(&b);
        prop_assert_eq!(a.estimate(), u.estimate());
    }

    /// LPC estimates are monotone in the number of distinct inserts.
    #[test]
    fn lpc_monotone(items in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut s = LinearCounting::new(1024, 13).expect("geometry");
        let mut last = s.estimate();
        for &it in &items {
            s.insert(it);
            let e = s.estimate();
            prop_assert!(e >= last - 1e-9);
            last = e;
        }
    }

    /// HLL++ sparse-mode estimates are near-exact (LC at 2^20 cells).
    #[test]
    fn hllpp_sparse_near_exact(items in prop::collection::hash_set(any::<u64>(), 0..100)) {
        let mut pp = HyperLogLogPP::new(14, 3).expect("precision");
        for &it in &items {
            pp.insert(it);
        }
        prop_assert!(pp.is_sparse());
        let est = pp.estimate();
        let n = items.len() as f64;
        prop_assert!((est - n).abs() <= 2.0 + 0.02 * n, "est {} vs n {}", est, n);
    }

    /// Serde round-trips preserve estimates exactly.
    #[cfg(feature = "serde")]
    #[test]
    fn hll_estimate_stable_under_clone(items in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut s = HyperLogLog::new(32, 17).expect("geometry");
        for &it in &items {
            s.insert(it);
        }
        let c = s.clone();
        prop_assert_eq!(s.estimate(), c.estimate());
    }
}
