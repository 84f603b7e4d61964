//! Validated data-payload sizes.

use core::fmt;

use crate::flit::FLIT_BYTES;

/// Error returned when a byte count is not a legal HMC data-payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPayloadSize {
    /// The rejected byte count.
    pub bytes: u32,
}

impl fmt::Display for InvalidPayloadSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid HMC payload size {} B (must be a multiple of {} between {} and {})",
            self.bytes,
            FLIT_BYTES,
            FLIT_BYTES,
            PayloadSize::MAX_BYTES
        )
    }
}

impl std::error::Error for InvalidPayloadSize {}

/// A data-payload size carried by a request or response packet.
///
/// HMC 1.1 moves data in 16 B flits; a packet carries between one and eight
/// data flits (16–128 B). The type guarantees the invariant at construction
/// (C-VALIDATE), so flit arithmetic downstream cannot go out of range.
///
/// # Examples
///
/// ```
/// use hmc_packet::PayloadSize;
///
/// let size = PayloadSize::new(64)?;
/// assert_eq!(size.bytes(), 64);
/// assert_eq!(size.data_flits(), 4);
/// assert!(PayloadSize::new(20).is_err());
/// # Ok::<(), hmc_packet::InvalidPayloadSize>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PayloadSize(u32);

impl PayloadSize {
    /// 16 B — one data flit; the smallest request the paper issues.
    pub const B16: PayloadSize = PayloadSize(16);
    /// 32 B — the DRAM data-bus granularity of a vault.
    pub const B32: PayloadSize = PayloadSize(32);
    /// 64 B.
    pub const B64: PayloadSize = PayloadSize(64);
    /// 128 B — the largest HMC 1.1 payload and the paper's largest request.
    pub const B128: PayloadSize = PayloadSize(128);

    /// Largest legal payload in bytes.
    pub const MAX_BYTES: u32 = 128;

    /// The four sizes the paper sweeps in every experiment.
    pub const PAPER_SWEEP: [PayloadSize; 4] = [
        PayloadSize::B16,
        PayloadSize::B32,
        PayloadSize::B64,
        PayloadSize::B128,
    ];

    /// Creates a payload size after validating it is a flit multiple in
    /// `16..=128`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPayloadSize`] if `bytes` is zero, not a multiple of
    /// 16, or greater than 128.
    pub fn new(bytes: u32) -> Result<PayloadSize, InvalidPayloadSize> {
        if bytes == 0 || !bytes.is_multiple_of(FLIT_BYTES as u32) || bytes > Self::MAX_BYTES {
            return Err(InvalidPayloadSize { bytes });
        }
        Ok(PayloadSize(bytes))
    }

    /// The payload size in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        self.0
    }

    /// The number of 16 B data flits this payload occupies (1–8).
    #[inline]
    pub const fn data_flits(self) -> u32 {
        self.0 / FLIT_BYTES as u32
    }

    /// The number of 32 B DRAM bursts needed to move this payload across a
    /// vault's TSV data bus. Payloads smaller than the 32 B bus granularity
    /// still consume one full burst (Section IV-A of the paper).
    #[inline]
    pub const fn dram_bursts(self) -> u32 {
        self.0.div_ceil(32)
    }
}

impl fmt::Display for PayloadSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_flit_multiples() {
        for bytes in (16..=128).step_by(16) {
            let s = PayloadSize::new(bytes).expect("legal size");
            assert_eq!(s.bytes(), bytes);
            assert_eq!(s.data_flits(), bytes / 16);
        }
    }

    #[test]
    fn rejects_illegal_sizes() {
        for bytes in [0, 1, 8, 15, 17, 24, 130, 144, 256] {
            assert_eq!(PayloadSize::new(bytes), Err(InvalidPayloadSize { bytes }));
        }
    }

    #[test]
    fn dram_bursts_round_up_to_bus_granularity() {
        assert_eq!(PayloadSize::B16.dram_bursts(), 1);
        assert_eq!(PayloadSize::B32.dram_bursts(), 1);
        assert_eq!(PayloadSize::new(48).unwrap().dram_bursts(), 2);
        assert_eq!(PayloadSize::B64.dram_bursts(), 2);
        assert_eq!(PayloadSize::B128.dram_bursts(), 4);
    }

    #[test]
    fn paper_sweep_is_the_four_figure_sizes() {
        let bytes: Vec<u32> = PayloadSize::PAPER_SWEEP.iter().map(|s| s.bytes()).collect();
        assert_eq!(bytes, vec![16, 32, 64, 128]);
    }

    #[test]
    fn error_display_mentions_bounds() {
        let err = PayloadSize::new(20).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("20"));
        assert!(text.contains("128"));
    }
}
