//! Streaming summary statistics.

use core::fmt;

/// Streaming mean/variance/extrema over `f64` samples (Welford's online
/// algorithm), used wherever the paper reports averages and standard
/// deviations (e.g. Figure 11's per-size latency σ across vaults).
///
/// # Examples
///
/// ```
/// use hmc_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "summary samples must not be NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Arithmetic mean, or 0 for an empty summary.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`), or 0 with fewer than one
    /// sample.
    pub(crate) fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} σ={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.population_std_dev(),
            self.min.min(self.max),
            self.max.max(self.min),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(samples: impl IntoIterator<Item = f64>) -> Summary {
        let mut s = Summary::new();
        for x in samples {
            s.record(x);
        }
        s
    }

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [1.0, 2.5, 3.5, 10.0, -4.0, 7.25];
        let s = summary_of(xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!((s.min, s.max), (-4.0, 10.0));
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = summary_of([42.0]);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new().record(f64::NAN);
    }
}
