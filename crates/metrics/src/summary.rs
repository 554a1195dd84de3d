//! Scalar sample aggregation for ablation experiments.

/// A streaming collector of f64 samples with mean/variance/quantiles.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample. Non-finite values are rejected with a panic — a NaN
    /// estimate is always an estimator bug in this workspace.
    ///
    /// # Panics
    /// Panics on NaN/±∞ input.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample {x}");
        self.samples.push(x);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean (0 for the empty summary).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The `q`-quantile by nearest-rank on the sorted sample
    /// (`q ∈ [0, 1]`; 0 for the empty summary).
    ///
    /// # Panics
    /// Panics if `q` outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// Root mean square of the samples.
    #[must_use]
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.iter().map(|x| x * x).sum::<f64>() / self.samples.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.rms(), 0.0);
    }

    #[test]
    fn known_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; unbiased multiplies by 8/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.quantile(0.0) - 2.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_sample() {
        let mut s = Summary::new();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.quantile(0.5), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Summary::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_quantile_rejected() {
        let mut s = Summary::new();
        s.push(1.0);
        let _ = s.quantile(1.5);
    }

    #[test]
    fn rms_of_signed_errors() {
        let mut s = Summary::new();
        s.push(-3.0);
        s.push(4.0);
        assert!((s.rms() - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
