//! A deterministic, mergeable quantile sketch for streaming latency tails.
//!
//! The paper's figures report *mean* latencies, but the interesting
//! congestion behaviour (the fig. 6 saturation knee, NOM-style multi-tenant
//! interference) lives in the tail. This sketch tracks p50/p99/p999 of
//! picosecond latencies with a **fixed bucket structure**: bucket
//! boundaries depend only on compile-time constants, never on the data, so
//! per-thread shards merge by elementwise addition and every merge order
//! yields byte-identical counts — and therefore byte-identical quantiles.
//! That property is what lets `--threads 1/2/N` runs produce identical
//! percentile rows.
//!
//! The sketch is also the workspace's one latency aggregate: besides the
//! buckets it keeps the exact count, `u128` total, minimum and maximum the
//! FPGA monitoring logic reports — "the total number of read and write
//! requests and the total, minimum, and maximum of read latencies"
//! (Section III-B) — so every port records into one.

use core::fmt;

/// Values below this threshold get an exact (width-1) bucket each.
const LINEAR_CUTOFF: u64 = 64;
/// Sub-buckets per power-of-two octave above the linear range.
const SUBBUCKET_BITS: u32 = 5;
const SUBBUCKETS: usize = 1 << SUBBUCKET_BITS; // 32
/// Octaves covered: values with MSB in 6..=63.
#[cfg(test)]
const OCTAVES: usize = 58;
/// Total bucket count: 64 exact + 58 octaves × 32 sub-buckets.
#[cfg(test)]
const BUCKETS: usize = LINEAR_CUTOFF as usize + OCTAVES * SUBBUCKETS; // 1920

/// A fixed-structure log-linear quantile sketch over `u64` samples
/// (picosecond latencies in this workspace).
///
/// Values `< 64` are counted exactly; larger values land in one of 32
/// logarithmically spaced sub-buckets per power of two, bounding the
/// relative error of any reported quantile by `2^-5` (~3.1%). Quantile
/// queries return a bucket's inclusive upper bound clamped into the true
/// observed `[min, max]`, so results are deterministic integers.
///
/// Buckets are allocated on demand, a whole octave at a time, up to the
/// octave of the largest sample: an empty sketch allocates nothing, and
/// a port's sketch stays a few hundred buckets for nanosecond-to-
/// microsecond latencies. Growing one bucket at a time instead
/// reallocates on almost every new maximum while queues build up, and
/// that churn fragments the heap.
///
/// # Examples
///
/// ```
/// use hmc_stats::LatencySketch;
///
/// let mut s = LatencySketch::new();
/// for ps in 1..=1000u64 {
///     s.record_ps(ps);
/// }
/// let p50 = s.quantile_ps(0.50).unwrap();
/// assert!((468..=532).contains(&p50), "p50 within 3.2%: {p50}");
/// assert_eq!(s.quantile_ps(1.0), Some(1000)); // clamped to true max
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LatencySketch {
    counts: Vec<u64>,
    count: u64,
    total_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl Default for LatencySketch {
    fn default() -> LatencySketch {
        LatencySketch::new()
    }
}

/// Bucket index for a sample. Pure function of the value — no data
/// dependence, which is what makes shard merging order-independent.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= 6
        let offset = ((v >> (msb - SUBBUCKET_BITS)) as usize) & (SUBBUCKETS - 1);
        LINEAR_CUTOFF as usize + (msb as usize - 6) * SUBBUCKETS + offset
    }
}

/// Inclusive upper bound of bucket `idx` (the value a quantile query
/// reports before clamping into the observed range).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_CUTOFF as usize;
        let msb = (rel / SUBBUCKETS) as u32 + 6;
        let offset = (rel % SUBBUCKETS) as u64;
        let width = 1u64 << (msb - SUBBUCKET_BITS);
        let lower = (1u64 << msb) + offset * width;
        lower + (width - 1)
    }
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> LatencySketch {
        LatencySketch {
            counts: Vec::new(),
            count: 0,
            total_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    /// Records one sample in picoseconds.
    #[inline]
    pub fn record_ps(&mut self, ps: u64) {
        let idx = bucket_of(ps);
        if self.counts.len() <= idx {
            // The length is a function of the largest bucket only, so two
            // sketches of the same samples still compare equal.
            let len = (idx | (SUBBUCKETS - 1)) + 1;
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.total_ps += u128::from(ps);
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Aggregate latency in picoseconds (exact: a `u128` never overflows
    /// on `u64` samples).
    #[inline]
    pub fn total_ps(&self) -> u128 {
        self.total_ps
    }

    /// True observed minimum, if any samples were recorded.
    pub fn min_ps(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ps)
    }

    /// True observed maximum, if any samples were recorded.
    pub fn max_ps(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ps)
    }

    /// Exact mean in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ps as f64 / self.count as f64 / 1e3
        }
    }

    /// Exact mean in microseconds (0 if empty).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1e3
    }

    /// True observed maximum in microseconds (0 if empty).
    pub fn max_us(&self) -> f64 {
        self.max_ps().unwrap_or(0) as f64 / 1e6
    }

    /// The quantile `q` in `[0, 1]` as a deterministic picosecond value:
    /// the inclusive upper bound of the bucket holding the rank-`⌈q·n⌉`
    /// sample, clamped into the observed `[min, max]`. Returns `None` for
    /// an empty sketch.
    ///
    /// # Panics
    ///
    /// Panics if `q` is NaN.
    pub fn quantile_ps(&self, q: f64) -> Option<u64> {
        assert!(!q.is_nan(), "quantile must not be NaN");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(idx).clamp(self.min_ps, self.max_ps));
            }
        }
        // Unreachable: bucket counts always sum to `count`.
        Some(self.max_ps)
    }

    /// `[p50, p99, p999]` in picoseconds, or `None` for an empty sketch.
    pub fn tail_ps(&self) -> Option<[u64; 3]> {
        Some([
            self.quantile_ps(0.50)?,
            self.quantile_ps(0.99)?,
            self.quantile_ps(0.999)?,
        ])
    }

    /// Merges another sketch into this one. Elementwise addition over a
    /// fixed structure, extended to the longer side — commutative and
    /// associative, so any merge order over the same shards yields
    /// identical state.
    pub fn merge(&mut self, other: &LatencySketch) {
        if self.counts.len() < other.counts.len() {
            self.counts
                .reserve_exact(other.counts.len() - self.counts.len());
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.total_ps += other.total_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Clears all counters (used at the end of the warmup window).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.count = 0;
        self.total_ps = 0;
        self.min_ps = u64::MAX;
        self.max_ps = 0;
    }
}

impl fmt::Debug for LatencySketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencySketch")
            .field("count", &self.count)
            .field("min_ps", &self.min_ps())
            .field("max_ps", &self.max_ps())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_structure_is_monotone_and_covers_u64() {
        let mut prev_upper = None;
        for idx in 0..BUCKETS {
            let u = bucket_upper(idx);
            if let Some(p) = prev_upper {
                assert!(u > p, "bucket {idx} upper {u} <= {p}");
            }
            prev_upper = Some(u);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn samples_land_at_or_below_their_bucket_upper() {
        for v in (0..10_000u64).chain([1 << 20, u64::MAX / 3, u64::MAX]) {
            let idx = bucket_of(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "value {v} below bucket {idx}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = LatencySketch::new();
        for v in 0..64u64 {
            s.record_ps(v);
        }
        assert_eq!(s.quantile_ps(0.0), Some(0));
        assert_eq!(s.quantile_ps(1.0), Some(63));
        // rank 32 → value 31 (exact linear buckets).
        assert_eq!(s.quantile_ps(0.5), Some(31));
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut s = LatencySketch::new();
        for ps in (1_000_000..2_000_000u64).step_by(1000) {
            s.record_ps(ps);
        }
        for &(q, exact) in &[
            (0.5, 1_500_000.0),
            (0.99, 1_990_000.0),
            (0.999, 1_999_000.0),
        ] {
            let got = s.quantile_ps(q).unwrap() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.04, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn empty_sketch_is_safe() {
        let s = LatencySketch::new();
        assert_eq!(s.quantile_ps(0.5), None);
        assert_eq!(s.min_ps(), None);
        assert_eq!(s.max_ps(), None);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.tail_ps(), None);
    }

    #[test]
    fn empty_sketch_reports_zero_mean_and_max_us() {
        let s = LatencySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.total_ps(), 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.max_us(), 0.0);
    }

    #[test]
    fn tracks_min_max_total() {
        let mut s = LatencySketch::new();
        for ps in [500, 1500, 1000] {
            s.record_ps(ps);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.total_ps(), 3000);
        assert_eq!(s.min_ps(), Some(500));
        assert_eq!(s.max_ps(), Some(1500));
        assert_eq!(s.mean_ns(), 1.0);
        assert_eq!(s.max_us(), 0.0015);
    }

    #[test]
    fn total_is_exact_past_u64() {
        let mut s = LatencySketch::new();
        for _ in 0..1000 {
            s.record_ps(u64::MAX / 2);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.total_ps(), 1000 * u128::from(u64::MAX / 2));
    }

    #[test]
    fn merge_combines_extremes() {
        let mut a = LatencySketch::new();
        a.record_ps(100);
        let mut b = LatencySketch::new();
        b.record_ps(50);
        b.record_ps(200);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total_ps(), 350);
        assert_eq!(a.min_ps(), Some(50));
        assert_eq!(a.max_ps(), Some(200));
    }

    #[test]
    fn buckets_grow_by_octave_to_the_largest_sample() {
        let octave_end = |v: u64| (bucket_of(v) / SUBBUCKETS + 1) * SUBBUCKETS;
        let mut s = LatencySketch::new();
        assert_eq!(s.counts.capacity(), 0, "an empty sketch allocates nothing");
        s.record_ps(700_000);
        s.record_ps(1_000);
        assert_eq!(s.counts.len(), octave_end(700_000));
        assert_eq!(s.counts.capacity(), s.counts.len());
        let mut wide = LatencySketch::new();
        wide.record_ps(5_000_000);
        s.merge(&wide);
        assert_eq!(s.counts.len(), octave_end(5_000_000));
        wide.merge(&LatencySketch::new());
        assert_eq!(wide.counts.len(), octave_end(5_000_000));
        let mut small = LatencySketch::new();
        small.record_ps(3);
        assert_eq!(small.counts.len(), SUBBUCKETS);
    }

    #[test]
    fn tail_is_p50_p99_p999() {
        let mut s = LatencySketch::new();
        for ps in 1..=1000u64 {
            s.record_ps(ps);
        }
        let tail = s.tail_ps().unwrap();
        assert_eq!(
            tail,
            [
                s.quantile_ps(0.50).unwrap(),
                s.quantile_ps(0.99).unwrap(),
                s.quantile_ps(0.999).unwrap(),
            ]
        );
        assert!(tail[0] <= tail[1] && tail[1] <= tail[2]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = LatencySketch::new();
        s.record_ps(123);
        s.reset();
        assert_eq!(s, LatencySketch::new());
    }

    #[test]
    fn reset_drops_buckets_grown_by_a_large_sample() {
        let mut s = LatencySketch::new();
        s.record_ps(10_000_000);
        assert!(!s.counts.is_empty());
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min_ps(), None);
        assert!(s.counts.is_empty());
        assert_eq!(s, LatencySketch::new());
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut whole = LatencySketch::new();
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        for v in 0..5000u64 {
            let ps = v * 977 + 13;
            whole.record_ps(ps);
            if v % 2 == 0 { &mut a } else { &mut b }.record_ps(ps);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        let mut reversed = b;
        reversed.merge(&a);
        assert_eq!(reversed, whole, "merge order must not matter");
    }

    proptest! {
        /// Merging shards in any order yields identical sketch state, and
        /// therefore byte-identical quantiles — the property the
        /// `--threads` invariance of percentile rows rests on.
        #[test]
        fn shard_merge_is_order_independent(
            samples in prop::collection::vec(any::<u64>(), 1..400),
            cuts in prop::collection::vec(0usize..4, 1..400),
            rotate in 0usize..4,
        ) {
            // Split the sample stream into up to 4 shards.
            let mut shards = vec![LatencySketch::new(); 4];
            for (v, c) in samples.iter().zip(cuts.iter().cycle()) {
                shards[*c].record_ps(*v);
            }
            // Merge in two different orders.
            let mut fwd = LatencySketch::new();
            for s in &shards {
                fwd.merge(s);
            }
            let mut rev = LatencySketch::new();
            let n = shards.len();
            shards.rotate_left(rotate % n);
            for s in shards.iter().rev() {
                rev.merge(s);
            }
            prop_assert_eq!(&fwd, &rev);
            for &q in &[0.0, 0.5, 0.99, 0.999, 1.0] {
                prop_assert_eq!(fwd.quantile_ps(q), rev.quantile_ps(q));
            }
        }

        /// Quantiles are exact order statistics up to the documented 2^-5
        /// relative error (exact below the linear cutoff).
        #[test]
        fn quantile_error_bound(samples in prop::collection::vec(1u64..u64::MAX / 2, 1..200)) {
            let mut s = LatencySketch::new();
            for &v in &samples {
                s.record_ps(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &q in &[0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1] as f64;
                let got = s.quantile_ps(q).unwrap() as f64;
                prop_assert!(got >= exact * (1.0 - 1.0 / 32.0) - 1.0);
                prop_assert!(got <= exact * (1.0 + 1.0 / 32.0) + 1.0);
            }
        }
    }
}
