//! Property-based tests for the evaluation metrics.

use metrics::{ccdf, DetectionOutcome, RseBins};
use proptest::prelude::*;

proptest! {
    /// CCDF starts at 1, is strictly decreasing over strictly increasing
    /// values, and its smallest fraction is 1/n.
    #[test]
    fn ccdf_shape(values in prop::collection::vec(0u64..1000, 1..300)) {
        let c = ccdf(&values);
        prop_assert!(!c.is_empty());
        prop_assert_eq!(c[0].fraction, 1.0);
        for w in c.windows(2) {
            prop_assert!(w[0].value < w[1].value);
            prop_assert!(w[0].fraction > w[1].fraction);
        }
        let min_frac = c.last().expect("non-empty").fraction;
        prop_assert!(min_frac >= 1.0 / values.len() as f64 - 1e-12);
    }

    /// RSE of exact estimates is zero; RSE is invariant to the sign of the
    /// error only through the square.
    #[test]
    fn rse_zero_for_exact(actuals in prop::collection::vec(1u64..10_000, 1..200)) {
        let mut bins = RseBins::new(4);
        for &a in &actuals {
            bins.record(a, a as f64);
        }
        prop_assert_eq!(bins.mean_rse(), 0.0);
        prop_assert_eq!(bins.total_count(), actuals.len() as u64);
    }

    /// Estimates off by ±ε·n (`ups` of them high, the rest low) produce
    /// mean RSE close to ε when all observations share one bin, and the
    /// bin's mean estimate is the plain mean of the recorded estimates.
    #[test]
    fn rse_captures_relative_error(n in 100u64..10_000, eps in 0.01f64..0.5, ups in 0usize..=50) {
        let mut bins = RseBins::new(1);
        let estimates: Vec<f64> = (0..50)
            .map(|i| n as f64 * if i < ups { 1.0 + eps } else { 1.0 - eps })
            .collect();
        for &e in &estimates {
            bins.record(n, e);
        }
        let series = bins.series();
        prop_assert_eq!(series.len(), 1);
        prop_assert!((series[0].rse - eps).abs() < 1e-9);
        let naive_mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        prop_assert!((series[0].mean_estimate - naive_mean).abs() < 1e-9 * naive_mean);
    }

    /// Detection outcome counts are conserved: TP + FN = |actual| and
    /// TP + FP = |predicted|.
    #[test]
    fn detection_conservation(actual in prop::collection::hash_set(0u64..100, 0..50),
                              predicted in prop::collection::hash_set(0u64..100, 0..50)) {
        let a: hashkit::FxHashSet<u64> = actual.iter().copied().collect();
        let p: hashkit::FxHashSet<u64> = predicted.iter().copied().collect();
        let out = DetectionOutcome::compare(&a, &p, 1000);
        prop_assert_eq!(out.true_positives + out.false_negatives, a.len() as u64);
        prop_assert_eq!(out.true_positives + out.false_positives, p.len() as u64);
        prop_assert!((0.0..=1.0).contains(&out.fnr()));
        prop_assert!((0.0..=1.0).contains(&out.fpr()));
    }
}
