//! Per-user confidence intervals for the Horvitz–Thompson estimators.
//!
//! Theorems 1 and 2 give `Var(n̂_s) = Σ_{i∈T_s} E[1/q(i)] − n_s`. The same
//! martingale structure (cf. Ting, KDD 2014 — the paper's ref. [40]) yields
//! an *online, per-user variance estimate*: each sampled increment at
//! probability `q` contributes `(1 − q)/q²` to the user's variance
//! accumulator, and the accumulated value is an unbiased estimate of the
//! estimator's variance at every time. From it, [`ConfidenceTracking`]
//! derives normal-approximation confidence intervals — something the paper
//! itself never exposes but any production deployment wants ("user X is
//! above threshold *with 99% confidence*").
//!
//! Implemented as a wrapper so the plain estimators keep their lean hot
//! path; the wrapper pays one extra map update per *sampled* edge only.

use crate::engine::{QTracker, SketchEngine};
use crate::CardinalityEstimator;
use bitpack::SlotStore;
use hashkit::FxHashMap;

/// An estimate together with an uncertainty quantification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateWithCi {
    /// The point estimate `n̂_s`.
    pub estimate: f64,
    /// The estimated standard deviation of `n̂_s`.
    pub std_dev: f64,
    /// Lower bound of the two-sided interval (clamped at 0).
    pub lower: f64,
    /// Upper bound of the two-sided interval.
    pub upper: f64,
}

/// A normal-approximation confidence interval derived from the *current*
/// sampling probability alone — the anytime variant a live query path can
/// afford when it has no per-edge variance accumulator.
///
/// [`ConfidenceTracking`] charges each sampled increment its exact
/// `(1 − q)/q²` at the `q` in force when it happened; a concurrent sketch
/// queried mid-stream only knows the current `q(t)`. Since `q` is
/// non-increasing, pricing all ≈ `n̂·q` sampled increments at the current
/// `q` gives `Var ≈ n̂ (1 − q)/q` — an upper-biased (conservative)
/// interval that converges to the tracked one as the stream settles.
///
/// Total over its whole input domain: non-finite or negative inputs are
/// clamped rather than panicking, so a protocol layer can call it on
/// whatever state it happens to read.
#[must_use]
pub fn anytime_ci(estimate: f64, q: f64, z: f64) -> EstimateWithCi {
    let estimate = if estimate.is_finite() {
        estimate.max(0.0)
    } else {
        0.0
    };
    let q = if q.is_finite() {
        q.clamp(f64::MIN_POSITIVE, 1.0)
    } else {
        1.0
    };
    let z = if z.is_finite() { z.max(0.0) } else { 0.0 };
    let std_dev = (estimate * (1.0 - q) / q).sqrt();
    // `0 × inf` (z clamped to 0 against a denormal-q overflow) is NaN;
    // a zero z must mean a zero-width interval.
    let margin = z * std_dev;
    let margin = if margin.is_nan() { 0.0 } else { margin };
    EstimateWithCi {
        estimate,
        std_dev,
        lower: (estimate - margin).max(0.0),
        upper: estimate + margin,
    }
}

/// Wraps a [`SketchEngine`] ([`crate::FreeBS`] or [`crate::FreeRS`]) with
/// per-user variance accumulators.
///
/// The inner engine is consulted for `q` *before* each edge is applied
/// ([`SketchEngine::q`]), and the indicator "did this edge change the array"
/// is recovered by comparing the user's estimate before and after — which
/// keeps this wrapper independent of estimator internals.
#[derive(Debug, Clone)]
pub struct ConfidenceTracking<E> {
    inner: E,
    variances: FxHashMap<u64, f64>,
}

impl<S: SlotStore, Q: QTracker<S>> ConfidenceTracking<SketchEngine<S, Q>> {
    /// Wraps an engine (typically freshly constructed).
    pub fn new(inner: SketchEngine<S, Q>) -> Self {
        Self {
            inner,
            variances: FxHashMap::default(),
        }
    }

    /// Observes one edge, updating both the estimate and the user's
    /// variance accumulator.
    pub fn process(&mut self, user: u64, item: u64) {
        let q = self.inner.q();
        let before = self.inner.estimate(user);
        self.inner.process(user, item);
        if self.inner.estimate(user) > before {
            // The edge was sampled at probability q: the HT increment 1/q
            // contributes variance (1 − q)/q² (Bernoulli(q) scaled by 1/q).
            *self.variances.entry(user).or_insert(0.0) += (1.0 - q) / (q * q);
        }
    }

    /// The point estimate (same as the inner estimator's).
    #[must_use]
    pub fn estimate(&self, user: u64) -> f64 {
        self.inner.estimate(user)
    }

    /// The running variance estimate for a user.
    #[must_use]
    pub fn variance(&self, user: u64) -> f64 {
        self.variances.get(&user).copied().unwrap_or(0.0)
    }

    /// A two-sided normal-approximation confidence interval;
    /// `z` is the normal quantile (1.96 ≈ 95%, 2.58 ≈ 99%).
    ///
    /// # Panics
    /// Panics if `z` is not positive and finite.
    #[must_use]
    pub fn estimate_with_ci(&self, user: u64, z: f64) -> EstimateWithCi {
        assert!(z > 0.0 && z.is_finite(), "z must be a positive quantile");
        let estimate = self.estimate(user);
        let std_dev = self.variance(user).sqrt();
        EstimateWithCi {
            estimate,
            std_dev,
            lower: (estimate - z * std_dev).max(0.0),
            upper: estimate + z * std_dev,
        }
    }

    /// Access to the wrapped engine.
    #[must_use]
    pub fn inner(&self) -> &SketchEngine<S, Q> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeBS, FreeRS};

    #[test]
    fn exact_regime_has_zero_variance() {
        // While q = 1 (empty array), increments are deterministic: the
        // variance accumulator must stay 0.
        let mut c = ConfidenceTracking::new(FreeBS::new(1 << 20, 1));
        for d in 0..10u64 {
            c.process(1, d);
        }
        // q was essentially 1 for all ten edges (10/2^20 bits set).
        assert!(c.variance(1) < 1e-4, "variance {}", c.variance(1));
        let ci = c.estimate_with_ci(1, 1.96);
        // Each increment is M/m0 with m0 within 10 of M: estimate within
        // ~1e-4 of exactly 10.
        assert!(
            (ci.estimate - 10.0).abs() < 1e-3,
            "estimate {}",
            ci.estimate
        );
        assert!(ci.upper - ci.lower < 0.1);
    }

    #[test]
    fn variance_grows_with_load() {
        let mut c = ConfidenceTracking::new(FreeBS::new(2048, 2));
        for d in 0..200u64 {
            c.process(1, d);
        }
        let v1 = c.variance(1);
        for d in 200..800u64 {
            c.process(1, d);
        }
        let v2 = c.variance(1);
        assert!(v2 > v1, "variance must grow: {v1} -> {v2}");
        assert!(v2 > 0.0);
    }

    #[test]
    fn variance_estimate_matches_theorem_bound_scale() {
        // Average the online variance estimate over seeds and compare to
        // the measured variance of the point estimate — they should agree
        // within a factor of ~2 (both estimate the same quantity).
        let n = 500u64;
        let m = 2048usize;
        let trials = 200;
        let mut var_estimates = 0.0;
        let mut points = Vec::with_capacity(trials);
        for t in 0..trials as u64 {
            let mut c = ConfidenceTracking::new(FreeBS::new(m, 3 + 7 * t));
            for d in 0..n {
                c.process(1, d);
                c.process(2, d.wrapping_mul(31) ^ 0xFFFF);
            }
            var_estimates += c.variance(1);
            points.push(c.estimate(1));
        }
        let mean_var_est = var_estimates / trials as f64;
        let mean: f64 = points.iter().sum::<f64>() / trials as f64;
        let measured_var: f64 =
            points.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (trials as f64 - 1.0);
        let ratio = mean_var_est / measured_var;
        assert!(
            (0.5..2.0).contains(&ratio),
            "online variance {mean_var_est:.1} vs measured {measured_var:.1} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn ci_coverage_is_near_nominal() {
        // 95% CIs should contain the truth ~95% of the time (allow 88%+
        // with 200 trials and the normal approximation).
        let n = 400u64;
        let trials = 200;
        let mut covered = 0;
        for t in 0..trials as u64 {
            let mut c = ConfidenceTracking::new(FreeRS::new(512, 11 + 13 * t));
            for d in 0..n {
                c.process(1, d);
                c.process(2, d.wrapping_mul(17) ^ 0xAAAA);
            }
            let ci = c.estimate_with_ci(1, 1.96);
            if (ci.lower..=ci.upper).contains(&(n as f64)) {
                covered += 1;
            }
        }
        let coverage = f64::from(covered) / trials as f64;
        assert!(
            coverage > 0.88,
            "95% CI covered the truth only {:.0}% of the time",
            coverage * 100.0
        );
    }

    #[test]
    fn unseen_user_has_zero_everything() {
        let c = ConfidenceTracking::new(FreeBS::new(64, 1));
        assert_eq!(c.estimate(9), 0.0);
        assert_eq!(c.variance(9), 0.0);
        let ci = c.estimate_with_ci(9, 2.58);
        assert_eq!(ci.lower, 0.0);
        assert_eq!(ci.upper, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive quantile")]
    fn bad_z_rejected() {
        let c = ConfidenceTracking::new(FreeBS::new(64, 1));
        let _ = c.estimate_with_ci(1, 0.0);
    }

    #[test]
    fn anytime_ci_is_total_and_conservative() {
        // Exact regime: q = 1 means no sampling noise at all.
        let exact = anytime_ci(10.0, 1.0, 1.96);
        assert_eq!(exact.std_dev, 0.0);
        assert_eq!(exact.lower, 10.0);
        assert_eq!(exact.upper, 10.0);

        // Sampling regime: interval widens as q drops, lower clamped at 0.
        let loose = anytime_ci(100.0, 0.25, 1.96);
        let looser = anytime_ci(100.0, 0.05, 1.96);
        assert!(looser.std_dev > loose.std_dev);
        assert!(loose.lower >= 0.0 && loose.upper > loose.estimate);

        // Degenerate inputs are clamped, never a panic or NaN.
        for ci in [
            anytime_ci(f64::NAN, 0.5, 1.96),
            anytime_ci(-3.0, 0.5, 1.96),
            anytime_ci(50.0, 0.0, 1.96),
            anytime_ci(50.0, f64::NAN, 1.96),
            anytime_ci(50.0, 0.5, f64::INFINITY),
            anytime_ci(50.0, -1.0, -2.0),
        ] {
            assert!(ci.estimate.is_finite() && ci.estimate >= 0.0);
            assert!(!ci.std_dev.is_nan(), "{ci:?}");
            assert!(ci.lower >= 0.0 && !ci.lower.is_nan(), "{ci:?}");
            assert!(!ci.upper.is_nan() && ci.lower <= ci.upper, "{ci:?}");
        }
    }

    #[test]
    fn anytime_ci_dominates_tracked_ci_late_in_stream() {
        // The anytime interval prices every increment at the current
        // (smallest-so-far) q, so it must be at least as wide as the
        // exactly-tracked interval over the same stream.
        let mut c = ConfidenceTracking::new(FreeBS::new(2048, 9));
        for d in 0..600u64 {
            c.process(1, d);
        }
        let tracked = c.estimate_with_ci(1, 1.96);
        let anytime = anytime_ci(c.estimate(1), c.inner().q(), 1.96);
        assert!(
            anytime.std_dev >= tracked.std_dev * 0.99,
            "anytime {} vs tracked {}",
            anytime.std_dev,
            tracked.std_dev
        );
    }

    #[test]
    fn duplicates_add_no_variance() {
        let mut c = ConfidenceTracking::new(FreeBS::new(4096, 5));
        for d in 0..100u64 {
            c.process(1, d);
        }
        let v = c.variance(1);
        for d in 0..100u64 {
            c.process(1, d);
        }
        assert_eq!(c.variance(1), v);
    }
}
