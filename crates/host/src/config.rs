//! Host-side (FPGA) configuration.

use hmc_des::Delay;
use hmc_link::LinkConfig;

/// Configuration of the modelled FPGA: the Pico HMC controller, its links
/// and the per-port interfaces.
///
/// Calibration: the paper reports that "approximately 547 ns of all
/// latencies ... belongs to FPGA and data transmission stages"
/// (Section IV-B). The defaults charge a controller pipeline of ~240 ns per
/// direction, one 187.5 MHz FPGA cycle of port-side queuing, 55 ns of
/// SerDes per direction, plus serialization — which lands the no-load round
/// trip at ≈0.7 µs including the cube, as in Figure 7.
///
/// # Examples
///
/// ```
/// use hmc_host::HostConfig;
///
/// let cfg = HostConfig::ac510_default();
/// // 187.5 MHz user clock.
/// assert_eq!(cfg.fpga_period.as_ps(), 5_333);
/// ```
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// FPGA user-clock period (187.5 MHz ⇒ 5333 ps). Each port issues at
    /// most one request per cycle.
    pub fpga_period: Delay,
    /// Downstream (host→cube) link configuration. `input_buffer_flits`
    /// must equal the cube's link input buffer (the system wiring sets it
    /// from `hmc_device::HmcDevice::request_tokens_per_link`).
    pub link: LinkConfig,
    /// Number of external links (2 on the AC-510).
    pub link_count: u8,
    /// Per-port request FIFO depth in the controller, in packets
    /// ("Wr. Req. FIFO" in Figure 5).
    pub port_fifo_packets: usize,
    /// Controller egress FIFO per link, in flits: how much serialized
    /// backlog the controller buffers ahead of each link.
    pub link_fifo_flits: u32,
    /// Controller pipeline latency charged on the request path.
    pub ctrl_latency_req: Delay,
    /// Controller pipeline latency charged on the response path.
    pub ctrl_latency_resp: Delay,
    /// Per-flit time to drain a response across a port's AXI interface
    /// (16 B per 187.5 MHz FPGA cycle: 3 GB/s per port). Stream ports pay
    /// one extra flit per response to ship the address back to the host
    /// (the PicoStream read-address channel of Figure 5b).
    pub port_rx_flit_time: Delay,
}

impl HostConfig {
    /// The AC-510 host defaults described above.
    pub fn ac510_default() -> HostConfig {
        HostConfig {
            fpga_period: Delay::from_ps(5_333),
            link: LinkConfig::ac510_default(),
            link_count: 2,
            port_fifo_packets: 4,
            link_fifo_flits: 36,
            ctrl_latency_req: Delay::from_ps(240_000),
            ctrl_latency_resp: Delay::from_ps(240_000),
            port_rx_flit_time: Delay::from_ps(5_333),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.link.validate()?;
        if self.fpga_period.is_zero() {
            return Err("FPGA period must be positive".to_owned());
        }
        if self.link_count == 0 {
            return Err("host needs at least one link".to_owned());
        }
        if self.port_fifo_packets == 0 {
            return Err("port FIFOs need nonzero capacity".to_owned());
        }
        if self.link_fifo_flits < 9 {
            return Err("link FIFOs must hold at least one max-size packet".to_owned());
        }
        if self.port_rx_flit_time.is_zero() {
            return Err("port RX drain rate must be positive".to_owned());
        }
        Ok(())
    }
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig::ac510_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(HostConfig::ac510_default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        let mut c = HostConfig::ac510_default();
        c.fpga_period = Delay::ZERO;
        assert!(c.validate().is_err());
        let mut c = HostConfig::ac510_default();
        c.link_count = 0;
        assert!(c.validate().is_err());
        let mut c = HostConfig::ac510_default();
        c.port_fifo_packets = 0;
        assert!(c.validate().is_err());
        let mut c = HostConfig::ac510_default();
        c.link_fifo_flits = 1;
        assert!(c.validate().is_err());
        let mut c = HostConfig::ac510_default();
        c.port_rx_flit_time = Delay::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn port_drain_rate_is_16b_per_fpga_cycle() {
        let c = HostConfig::ac510_default();
        // 16 B per 5.333 ns = 3 GB/s per port; a 128 B response drains in
        // 48 ns, setting the per-port slope of Figure 13d.
        let gbs = 16.0 / c.port_rx_flit_time.as_ns_f64();
        assert!((gbs - 3.0).abs() < 0.01);
    }
}
