//! Flit constants and helpers.
//!
//! HMC packets are built from 16-byte units called *flits* (Section II-B of
//! the paper, Figure 4). Every request and response carries exactly one flit
//! of overhead — a 64-bit header and a 64-bit tail packed into the first and
//! last flit — and zero to eight data flits.

/// Bytes per flit.
pub const FLIT_BYTES: usize = 16;

/// Flits of header+tail overhead carried by every packet (Table I).
pub const OVERHEAD_FLITS: u32 = 1;

/// Converts a flit count to bytes.
///
/// # Examples
///
/// ```
/// assert_eq!(hmc_packet::flits_to_bytes(9), 144);
/// ```
#[inline]
pub const fn flits_to_bytes(flits: u32) -> u64 {
    flits as u64 * FLIT_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_byte_conversion() {
        assert_eq!(flits_to_bytes(0), 0);
        assert_eq!(flits_to_bytes(1), 16);
        assert_eq!(flits_to_bytes(9), 144);
    }

    #[test]
    fn efficiency_matches_paper_examples() {
        // Section IV-A quotes 16/(16+16) = 50% and 128/(128+16) = 89%:
        // data bytes over the bytes of the data flits plus one overhead flit.
        let efficiency = |data: u32| {
            f64::from(data) / flits_to_bytes(data / FLIT_BYTES as u32 + OVERHEAD_FLITS) as f64
        };
        assert_eq!(efficiency(16), 0.5);
        assert!((efficiency(128) - 0.8888888).abs() < 1e-6);
    }
}
