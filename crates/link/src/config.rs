//! External link configuration.

use hmc_des::Delay;

use hmc_packet::FLIT_BYTES;

/// Width of one external link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkWidth {
    /// 8 lanes per direction ("half-width", as on the AC-510).
    Half,
    /// 16 lanes per direction ("full-width").
    Full,
}

impl LinkWidth {
    /// Lanes per direction.
    #[inline]
    pub(crate) const fn lanes(self) -> u32 {
        match self {
            LinkWidth::Half => 8,
            LinkWidth::Full => 16,
        }
    }
}

/// Configuration of one full-duplex serialized link between host and cube.
///
/// The defaults describe the AC-510: a half-width (8-lane) link at 15 Gbps
/// per lane, i.e. 15 GB/s of raw bandwidth per direction, two of which give
/// the board its 60 GB/s peak (Equation 1 of the paper).
///
/// `protocol_overhead` folds everything the transaction layer does not see
/// — token-return flow packets, CRC/retry, lane run-length coding, packet
/// gaps — into a per-packet serialization stretch. The default of 0.40
/// (≈71% efficiency) reproduces the ≈23 GB/s effective ceiling the paper
/// measures for 128 B reads (Figures 6 and 13) against the 30 GB/s raw
/// response-direction bandwidth.
///
/// # Examples
///
/// ```
/// use hmc_link::LinkConfig;
///
/// let link = LinkConfig::ac510_default();
/// assert_eq!(link.raw_gb_per_s_per_direction(), 15.0);
/// // One flit = 16 B at 15 GB/s ≈ 1.067 ns before overhead.
/// assert_eq!(link.flit_time().as_ps(), 1_067);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link width (lanes per direction).
    pub width: LinkWidth,
    /// Signalling rate per lane in Gbps (10, 12.5 or 15 for HMC 1.1).
    pub lane_gbps: f64,
    /// Fixed one-way latency: SerDes TX + flight + SerDes RX.
    pub serdes_latency: Delay,
    /// Fractional serialization stretch per packet for protocol overhead.
    pub protocol_overhead: f64,
    /// Receiver input-buffer size in flits — the token pool of the HMC
    /// flow-control protocol.
    pub input_buffer_flits: u32,
    /// Minimum wire occupancy per packet, regardless of length: models the
    /// controller's per-packet processing rate (the Pico controller hands
    /// off roughly one packet per FPGA cycle pair per link, which is what
    /// keeps small-packet bandwidth below large-packet bandwidth in
    /// Figures 6 and 13 even though small packets serialize faster).
    pub min_packet_time: Delay,
}

impl LinkConfig {
    /// The AC-510 link: half-width, 15 Gbps lanes.
    pub fn ac510_default() -> LinkConfig {
        LinkConfig {
            width: LinkWidth::Half,
            lane_gbps: 15.0,
            serdes_latency: Delay::from_ps(55_000),
            protocol_overhead: 0.40,
            input_buffer_flits: 256,
            min_packet_time: Delay::from_ps(10_667),
        }
    }

    /// Raw bandwidth per direction in GB/s (10⁹ B/s).
    pub fn raw_gb_per_s_per_direction(&self) -> f64 {
        f64::from(self.width.lanes()) * self.lane_gbps / 8.0
    }

    /// Time to serialize one flit at the raw lane rate.
    pub fn flit_time(&self) -> Delay {
        let ns = FLIT_BYTES as f64 / self.raw_gb_per_s_per_direction();
        Delay::from_ns_f64(ns)
    }

    /// Wire occupancy of a packet of `flits` flits: serialization at the
    /// effective rate, floored by the per-packet processing time.
    pub fn packet_time(&self, flits: u32) -> Delay {
        self.packet_time_from(self.effective_flit_time(), flits)
    }

    /// [`LinkConfig::packet_time`] given this configuration's effective
    /// flit time, already derived.
    pub(crate) fn packet_time_from(&self, flit_time: Delay, flits: u32) -> Delay {
        (flit_time * flits).max(self.min_packet_time)
    }

    /// Time to serialize one flit including protocol overhead — the
    /// effective per-flit cost the transaction layer experiences.
    pub(crate) fn effective_flit_time(&self) -> Delay {
        let ns =
            FLIT_BYTES as f64 / self.raw_gb_per_s_per_direction() * (1.0 + self.protocol_overhead);
        Delay::from_ns_f64(ns)
    }

    /// Effective bandwidth per direction after protocol overhead, GB/s.
    ///
    /// Kept public as the reference value this crate's serializer tests
    /// assert against.
    pub fn effective_gb_per_s_per_direction(&self) -> f64 {
        self.raw_gb_per_s_per_direction() / (1.0 + self.protocol_overhead)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.lane_gbps > 0.0 && self.lane_gbps.is_finite()) {
            return Err("lane rate must be positive".to_owned());
        }
        if !(self.protocol_overhead >= 0.0 && self.protocol_overhead.is_finite()) {
            return Err("protocol overhead must be non-negative".to_owned());
        }
        if self.input_buffer_flits == 0 {
            return Err("receiver input buffer must hold at least one flit".to_owned());
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig::ac510_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_1_peak_bandwidth() {
        // 2 links × 8 lanes × 15 Gbps × 2 (duplex) = 60 GB/s.
        let link = LinkConfig::ac510_default();
        let peak = 2.0 * link.raw_gb_per_s_per_direction() * 2.0;
        assert_eq!(peak, 60.0);
    }

    #[test]
    fn full_width_doubles_rate() {
        let mut link = LinkConfig::ac510_default();
        link.width = LinkWidth::Full;
        assert_eq!(link.raw_gb_per_s_per_direction(), 30.0);
        assert_eq!(LinkWidth::Full.lanes(), 16);
    }

    #[test]
    fn effective_rate_reflects_overhead() {
        let link = LinkConfig::ac510_default();
        let eff = link.effective_gb_per_s_per_direction();
        assert!((eff - 15.0 / 1.4).abs() < 1e-9);
        assert!(link.effective_flit_time() > link.flit_time());
        // Two links of effective response bandwidth land near the paper's
        // ≈21 GB/s response ceiling (⇒ ≈23 GB/s counted bidirectionally).
        assert!((2.0 * eff - 21.4).abs() < 0.1);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut link = LinkConfig::ac510_default();
        link.lane_gbps = 0.0;
        assert!(link.validate().is_err());
        let mut link = LinkConfig::ac510_default();
        link.protocol_overhead = -0.5;
        assert!(link.validate().is_err());
        let mut link = LinkConfig::ac510_default();
        link.input_buffer_flits = 0;
        assert!(link.validate().is_err());
        assert!(LinkConfig::ac510_default().validate().is_ok());
    }

    #[test]
    fn slower_lane_rates_supported() {
        let mut link = LinkConfig::ac510_default();
        link.lane_gbps = 10.0;
        assert_eq!(link.raw_gb_per_s_per_direction(), 10.0);
        assert_eq!(link.flit_time().as_ps(), 1_600);
    }
}
