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

    /// Merges another summary into this one (parallel-sweep reduction).
    ///
    /// Kept public with the unit tests that check it; only those tests
    /// call it (see ROADMAP).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    fn merge_equals_concatenation() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(20);
        let mut left = summary_of(a.iter().copied());
        let right = summary_of(b.iter().copied());
        left.merge(&right);
        let whole = summary_of(xs.iter().copied());
        assert_eq!(left.count, whole.count);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!((left.min, left.max), (whole.min, whole.max));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = summary_of([1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new().record(f64::NAN);
    }
}
