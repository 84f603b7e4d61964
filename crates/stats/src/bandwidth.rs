//! Bandwidth accounting.

use core::fmt;

/// Accumulates transferred bytes and converts to GB/s over an elapsed
/// window, following the paper's formula: "multiplying the number of
/// accesses by the cumulative size of request and response packets
/// including header, tail and data payload, and dividing it by the elapsed
/// time" (Section III-B). GB here is 10⁹ bytes, as in the paper's
/// link-rate arithmetic (Equation 1).
///
/// # Examples
///
/// ```
/// use hmc_stats::BandwidthMeter;
///
/// let mut bw = BandwidthMeter::new();
/// bw.add_bytes(160);
/// bw.add_bytes(160);
/// assert_eq!(bw.bytes(), 320);
/// // 2 accesses in 16 ns = 125 M accesses/s.
/// assert_eq!(bw.accesses_per_s(16_000), 1.25e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandwidthMeter {
    bytes: u64,
    accesses: u64,
}

impl BandwidthMeter {
    /// An empty meter.
    pub fn new() -> BandwidthMeter {
        BandwidthMeter::default()
    }

    /// Adds one access moving `bytes` (both directions combined).
    pub fn add_bytes(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.accesses += 1;
    }

    /// Total bytes accumulated.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total accesses accumulated.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Access throughput in accesses per second over `elapsed_ps`.
    pub fn accesses_per_s(&self, elapsed_ps: u64) -> f64 {
        if elapsed_ps == 0 {
            return 0.0;
        }
        self.accesses as f64 * 1e12 / elapsed_ps as f64
    }

    /// Merges another meter into this one.
    ///
    /// Kept public with the unit tests that check it; only those tests
    /// call it (see ROADMAP).
    pub fn merge(&mut self, other: &BandwidthMeter) {
        self.bytes += other.bytes;
        self.accesses += other.accesses;
    }

    /// Clears the meter (end of warmup).
    pub fn reset(&mut self) {
        *self = BandwidthMeter::default();
    }
}

impl fmt::Display for BandwidthMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} accesses, {} bytes", self.accesses, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_link_bandwidth_equation_1() {
        // Equation 1: 2 links × 8 lanes × 15 Gb/s × 2 (duplex) = 60 GB/s.
        // One second of full-duplex traffic on both links:
        let bytes_per_s = 2.0 * 8.0 * 15e9 / 8.0 * 2.0;
        assert_eq!(bytes_per_s / 1e9, 60.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let bw = BandwidthMeter::new();
        assert_eq!(bw.accesses_per_s(0), 0.0);
    }

    #[test]
    fn accesses_per_second() {
        let mut bw = BandwidthMeter::new();
        for _ in 0..100 {
            bw.add_bytes(48);
        }
        // 100 accesses in 1 µs = 1e8/s.
        assert_eq!(bw.accesses_per_s(1_000_000), 1e8);
    }

    #[test]
    fn merge_and_reset() {
        let mut a = BandwidthMeter::new();
        a.add_bytes(10);
        let mut b = BandwidthMeter::new();
        b.add_bytes(20);
        a.merge(&b);
        assert_eq!(a.bytes(), 30);
        assert_eq!(a.accesses(), 2);
        a.reset();
        assert_eq!(a.bytes(), 0);
    }
}
