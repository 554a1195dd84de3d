//! Relative standard error grouped by actual cardinality.
//!
//! §V-C of the paper defines, for a given time `t` and cardinality value
//! `n`,
//!
//! ```text
//! RSE(n) = (1/n) · sqrt( Σ_s (n̂_s − n)² 1(n_s = n) / Σ_s 1(n_s = n) )
//! ```
//!
//! i.e. the root-mean-square error over all users whose actual cardinality
//! equals `n`, relative to `n`. Synthetic datasets contain thousands of
//! distinct `n` values, so we aggregate into geometric bins (a fixed number
//! of bins per decade) — the same presentation the paper's log–log Fig. 5
//! uses.

/// An accumulator of `(actual, estimate)` observations, log-binned by the
/// actual cardinality.
#[derive(Debug, Clone)]
pub struct RseBins {
    bins_per_decade: usize,
    // bin index -> (count, sum of squared errors, sum of actuals, sum of
    // estimates)
    bins: std::collections::BTreeMap<i64, BinAcc>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BinAcc {
    count: u64,
    sq_err: f64,
    actual_sum: f64,
    estimate_sum: f64,
}

/// One aggregated bin of the RSE series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RseBin {
    /// The mean actual cardinality of the bin's users.
    pub cardinality: f64,
    /// The relative standard error of estimates in this bin.
    pub rse: f64,
    /// The mean estimate of the bin's users (Fig. 4's estimated-vs-actual
    /// view).
    pub mean_estimate: f64,
    /// Number of `(actual, estimate)` observations aggregated.
    pub count: u64,
}

impl RseBins {
    /// Creates an accumulator with `bins_per_decade` geometric bins per
    /// factor of 10 in actual cardinality.
    ///
    /// # Panics
    /// Panics if `bins_per_decade == 0`.
    #[must_use]
    pub fn new(bins_per_decade: usize) -> Self {
        assert!(bins_per_decade > 0);
        Self {
            bins_per_decade,
            bins: std::collections::BTreeMap::new(),
        }
    }

    /// Records one user: actual cardinality `actual > 0` and its estimate.
    ///
    /// Observations with `actual == 0` are ignored (RSE is undefined at
    /// `n = 0`; the paper's figures start at `n = 1`).
    pub fn record(&mut self, actual: u64, estimate: f64) {
        if actual == 0 {
            return;
        }
        let idx = self.bin_index(actual);
        let acc = self.bins.entry(idx).or_default();
        acc.count += 1;
        let err = estimate - actual as f64;
        acc.sq_err += err * err;
        acc.actual_sum += actual as f64;
        acc.estimate_sum += estimate;
    }

    fn bin_index(&self, actual: u64) -> i64 {
        ((actual as f64).log10() * self.bins_per_decade as f64).floor() as i64
    }

    /// The aggregated series, ordered by cardinality.
    #[must_use]
    pub fn series(&self) -> Vec<RseBin> {
        self.bins
            .values()
            .map(|acc| {
                let mean_actual = acc.actual_sum / acc.count as f64;
                let rmse = (acc.sq_err / acc.count as f64).sqrt();
                RseBin {
                    cardinality: mean_actual,
                    rse: rmse / mean_actual,
                    mean_estimate: acc.estimate_sum / acc.count as f64,
                    count: acc.count,
                }
            })
            .collect()
    }

    /// Total number of recorded observations.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.bins.values().map(|a| a.count).sum()
    }

    /// The observation-weighted mean RSE across all bins (one scalar for
    /// ablation comparisons).
    #[must_use]
    pub fn mean_rse(&self) -> f64 {
        let total = self.total_count();
        if total == 0 {
            return 0.0;
        }
        self.series()
            .iter()
            .map(|b| b.rse * b.count as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimates_give_zero_rse() {
        let mut r = RseBins::new(5);
        for n in 1..1000u64 {
            r.record(n, n as f64);
        }
        for bin in r.series() {
            assert_eq!(bin.rse, 0.0);
        }
        assert_eq!(r.total_count(), 999);
        assert_eq!(r.mean_rse(), 0.0);
    }

    #[test]
    fn constant_relative_error_is_recovered() {
        // Estimates 10% high everywhere -> RSE ~0.1 in every bin (approx:
        // binning mixes nearby n, so tolerance is loose).
        let mut r = RseBins::new(10);
        for n in 1..10_000u64 {
            r.record(n, n as f64 * 1.1);
        }
        for bin in r.series() {
            assert!(
                (bin.rse - 0.1).abs() < 0.02,
                "bin at {} has rse {}",
                bin.cardinality,
                bin.rse
            );
        }
    }

    #[test]
    fn zero_actual_ignored() {
        let mut r = RseBins::new(5);
        r.record(0, 100.0);
        assert_eq!(r.total_count(), 0);
        assert!(r.series().is_empty());
    }

    #[test]
    fn bins_separate_decades() {
        let mut r = RseBins::new(1);
        r.record(5, 6.0);
        r.record(50, 40.0);
        r.record(500, 500.0);
        let s = r.series();
        assert_eq!(s.len(), 3);
        assert!(s[0].cardinality < s[1].cardinality);
        assert!(s[1].cardinality < s[2].cardinality);
        let means: Vec<f64> = s.iter().map(|b| b.mean_estimate).collect();
        assert_eq!(means, [6.0, 40.0, 500.0]);
    }

    #[test]
    fn single_n_bin_matches_paper_definition() {
        // All users share n=100; estimates {90, 110}. RSE = 10/100 = 0.1.
        let mut r = RseBins::new(5);
        r.record(100, 90.0);
        r.record(100, 110.0);
        let s = r.series();
        assert_eq!(s.len(), 1);
        assert!((s[0].rse - 0.1).abs() < 1e-12);
        assert_eq!(s[0].count, 2);
        assert!((s[0].cardinality - 100.0).abs() < 1e-12);
        assert!((s[0].mean_estimate - 100.0).abs() < 1e-12);
    }

    #[test]
    fn mean_rse_weights_by_count() {
        let mut r = RseBins::new(1);
        // 3 observations at rse 0 (n=10), 1 at rse 1.0 (n=1000 est 2000).
        r.record(10, 10.0);
        r.record(10, 10.0);
        r.record(10, 10.0);
        r.record(1000, 2000.0);
        assert!((r.mean_rse() - 0.25).abs() < 1e-12);
    }
}
