//! Summary statistics shared by the benchmark harness and applications.
//!
//! The figure harness reports medians (robust against scheduler noise on a
//! shared machine) plus mean/min/max, matching how the paper reports
//! latency/bandwidth series.

/// Online summary of a series of `f64` samples.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum sample (0.0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_finite()
    }

    /// Maximum sample (0.0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// Median via partial sort (0.0 when empty).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
        v[rank.min(v.len() - 1)]
    }

    /// Sample standard deviation (0.0 with fewer than two samples).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|s| (s - m) * (s - m)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    /// Maps the +/-infinity sentinels from empty folds to 0.0.
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Percentage improvement of `better` over `worse` for a lower-is-better
/// metric (latency, time): `(worse - better) / worse * 100`.
#[must_use]
pub fn pct_improvement_lower(better: f64, worse: f64) -> f64 {
    if worse == 0.0 {
        return 0.0;
    }
    (worse - better) / worse * 100.0
}

/// Percentage improvement of `better` over `worse` for a higher-is-better
/// metric (bandwidth): `(better - worse) / worse * 100`.
#[must_use]
pub fn pct_improvement_higher(better: f64, worse: f64) -> f64 {
    if worse == 0.0 {
        return 0.0;
    }
    (better - worse) / worse * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn basic_moments() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.stddev() - 1.5811388).abs() < 1e-6);
    }

    #[test]
    fn percentiles() {
        let mut s = Summary::new();
        for v in 0..101 {
            s.push(f64::from(v));
        }
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(100.0), 100.0);
    }

    #[test]
    fn improvements() {
        // 24.4% latency improvement: UD 25µs vs RC 33.07µs.
        assert!((pct_improvement_lower(25.0, 33.07) - 24.4).abs() < 0.1);
        // 256% bandwidth improvement: 3.56x.
        assert!((pct_improvement_higher(356.0, 100.0) - 256.0).abs() < 1e-9);
        assert_eq!(pct_improvement_lower(1.0, 0.0), 0.0);
        assert_eq!(pct_improvement_higher(1.0, 0.0), 0.0);
    }
}
