//! Anytime confidence intervals for the Horvitz–Thompson estimators.
//!
//! Theorems 1 and 2 give `Var(n̂_s(t)) = Σ_{i∈T_s} E[1/q(i)] − n_s(t)`,
//! summed over the user's distinct items, each priced at the sampling
//! probability `q` just before it arrived. `q` never rises, so every term
//! is at most `E[1/q(t)]`, which gives both theorems' bound
//! `Var(n̂_s(t)) ≤ n_s(t) (E[1/q(t)] − 1)`. [`anytime_ci`] prices that
//! bound from what any sketch knows at query time, its estimate `n̂_s(t)`
//! and its current `q(t)`, and builds a normal-approximation interval on
//! it: something the paper never exposes, but a deployment wants ("user
//! X is above threshold *with 99% confidence*").
//!
//! [`crate::AnySketch::confidence`] applies it to any sketch the CLI
//! builds, and `serve`'s `CONFIDENCE` verb answers through it.
//! `crates/core/tests/statistical.rs` checks the interval's coverage
//! against the truth on every kind.

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

/// A normal-approximation confidence interval from an estimate and the
/// *current* sampling probability alone: `n̂ ± z·σ` with
/// `σ² = n̂ (1 − q)/q`, the Theorem 1/2 bound `n_s (1/q(t) − 1)` with
/// `n̂` for `n_s`. Pricing every increment at the current, smallest-so-far
/// `q` makes the interval conservative while `q` is still falling.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
