//! Fixed-range histograms for the paper's heatmap figures.

use core::fmt;

/// A histogram over a fixed `[lo, hi)` range with equally wide bins.
///
/// Figures 10 and 12 of the paper bin per-vault average latencies into nine
/// intervals between the observed extremes; this type reproduces that
/// construction.
///
/// # Out-of-range samples
///
/// Samples outside `[lo, hi)` **clamp** into the edge bins — they are
/// never dropped, so counts are conserved (property-tested) and the total
/// still matches the number of `record` calls. This choice matches the
/// paper's construction, where the range is derived from the observed
/// extremes and nothing can fall outside it; when a fixed range is reused
/// (e.g. across runs), clamped samples would otherwise silently distort
/// the edge bins. The histogram therefore also counts how many samples
/// clamped ([`clamped`](Histogram::clamped), and
/// [`clamped_hi`](Histogram::clamped_hi) for the top edge) so reports can
/// surface them.
///
/// # Examples
///
/// ```
/// use hmc_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 90.0, 9);
/// for x in [5.0, 15.0, 15.5, 89.0, 100.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.bin_counts()[0], 1);
/// assert_eq!(h.bin_counts()[1], 2);
/// assert_eq!(h.bin_counts()[8], 2); // 89.0 and the clamped 100.0
/// assert_eq!(h.clamped_hi(), 1); // the 100.0 was out of range
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    clamped_lo: u64,
    clamped_hi: u64,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo >= hi`, or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            clamped_lo: 0,
            clamped_hi: 0,
        }
    }

    /// The inclusive lower bound of the range.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The exclusive upper bound of the range.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Number of bins.
    #[inline]
    pub(crate) fn bins(&self) -> usize {
        self.counts.len()
    }

    /// The width of each bin.
    #[inline]
    pub(crate) fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Records a sample, clamping out-of-range values into the edge bins
    /// (see the type-level docs: clamp, not drop). Clamped samples are
    /// additionally tallied per side.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "histogram samples must not be NaN");
        if x < self.lo {
            self.clamped_lo += 1;
        } else if x >= self.hi {
            self.clamped_hi += 1;
        }
        let idx = ((x - self.lo) / self.bin_width()).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Samples at or above `hi` that clamped into the last bin.
    #[inline]
    pub fn clamped_hi(&self) -> u64 {
        self.clamped_hi
    }

    /// Total out-of-range samples (both sides). These are *included* in
    /// [`count`](Histogram::count) — clamping conserves observations.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped_lo + self.clamped_hi
    }

    /// Per-bin counts.
    #[inline]
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bin counts normalized by the total (empty histogram → all zeros).
    pub fn normalized(&self) -> Vec<f64> {
        let total = self.count();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// The midpoint value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Merges another histogram with identical geometry.
    ///
    /// Kept public with the unit tests that check it; only those tests
    /// call it (see ROADMAP).
    ///
    /// # Panics
    ///
    /// Panics if ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram ranges differ");
        assert_eq!(self.hi, other.hi, "histogram ranges differ");
        assert_eq!(self.counts.len(), other.counts.len(), "bin counts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.clamped_lo += other.clamped_lo;
        self.clamped_hi += other.clamped_hi;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hist[{:.1}..{:.1})x{} n={}",
            self.lo,
            self.hi,
            self.bins(),
            self.count()
        )
    }
}

/// Builds a set of histograms that share one range derived from the global
/// extremes of previously collected samples — how Figures 10/12 align all
/// 16 vault rows onto one latency axis.
///
/// # Examples
///
/// ```
/// use hmc_stats::SharedRange;
///
/// let mut r = SharedRange::new();
/// r.observe(10.0);
/// r.observe(20.0);
/// let h = r.histogram(5).expect("samples were observed");
/// assert_eq!(h.lo(), 10.0);
/// assert!(h.hi() > 20.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SharedRange {
    min: Option<f64>,
    max: Option<f64>,
}

impl SharedRange {
    /// An empty range.
    pub fn new() -> SharedRange {
        SharedRange::default()
    }

    /// Extends the range to include `x`.
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "range samples must not be NaN");
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// The observed `(min, max)`, if any samples were seen.
    pub(crate) fn bounds(&self) -> Option<(f64, f64)> {
        Some((self.min?, self.max?))
    }

    /// Creates an empty histogram spanning the observed range with `bins`
    /// bins. The upper bound is nudged up slightly so the maximum sample
    /// falls inside the last bin rather than on the excluded edge.
    ///
    /// Returns `None` if no samples were observed.
    pub fn histogram(&self, bins: usize) -> Option<Histogram> {
        let (lo, hi) = self.bounds()?;
        let hi = if hi > lo {
            hi + (hi - lo) * 1e-9
        } else {
            lo + 1.0
        };
        Some(Histogram::new(lo, hi, bins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.999);
        h.record(5.0);
        h.record(9.999);
        assert_eq!(h.bin_counts()[0], 2);
        assert_eq!(h.bin_counts()[5], 1);
        assert_eq!(h.bin_counts()[9], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-100.0);
        h.record(100.0);
        h.record(10.0); // exactly hi clamps into last bin
        assert_eq!(h.bin_counts()[0], 1);
        assert_eq!(h.bin_counts()[4], 2);
        // Clamp, not drop: the total is conserved and both sides are
        // tallied separately.
        assert_eq!(h.count(), 3);
        assert_eq!(h.clamped_lo, 1);
        assert_eq!(h.clamped_hi(), 2);
        assert_eq!(h.clamped(), 3);
    }

    #[test]
    fn in_range_samples_do_not_count_as_clamped() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(0.0); // inclusive lower edge is in range
        h.record(9.999);
        assert_eq!(h.clamped(), 0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn merge_adds_clamp_tallies() {
        let mut a = Histogram::new(0.0, 10.0, 2);
        let mut b = Histogram::new(0.0, 10.0, 2);
        a.record(-1.0);
        b.record(11.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.clamped_lo, 1);
        assert_eq!(a.clamped_hi(), 1);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn normalization_sums_to_one() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for x in [0.5, 1.5, 1.6, 3.9] {
            h.record(x);
        }
        let total: f64 = h.normalized().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(h.normalized()[1], 0.5);
    }

    #[test]
    fn empty_normalizations_are_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.normalized(), vec![0.0; 3]);
    }

    #[test]
    fn bin_geometry() {
        let h = Histogram::new(10.0, 20.0, 5);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 11.0);
        assert_eq!(h.bin_center(4), 19.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 2);
        let mut b = Histogram::new(0.0, 10.0, 2);
        a.record(1.0);
        b.record(1.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.bin_counts(), &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "ranges differ")]
    fn merge_rejects_mismatched_ranges() {
        let mut a = Histogram::new(0.0, 10.0, 2);
        let b = Histogram::new(0.0, 11.0, 2);
        a.merge(&b);
    }

    #[test]
    fn shared_range_covers_max_sample() {
        let mut r = SharedRange::new();
        for x in [3.0, 7.0, 5.0] {
            r.observe(x);
        }
        let mut h = r.histogram(9).unwrap();
        h.record(7.0); // the global max must not clamp
        assert_eq!(h.bin_counts()[8], 1);
        assert_eq!(r.bounds(), Some((3.0, 7.0)));
    }

    #[test]
    fn shared_range_handles_degenerate_case() {
        let mut r = SharedRange::new();
        r.observe(5.0);
        let h = r.histogram(3).unwrap();
        assert_eq!(h.lo(), 5.0);
        assert!(h.hi() > 5.0);
        assert!(SharedRange::new().histogram(3).is_none());
    }
}
