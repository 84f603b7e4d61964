//! DRAM timing parameters.

use hmc_des::Delay;

/// Core DRAM timing constraints for the stacked dies behind a vault
/// controller.
///
/// The paper cites tRCD + tCL + tRP ≈ 41 ns for the HMC (Section IV-B,
/// following Rosenfeld's dissertation); the defaults split that evenly and
/// pair it with a 3.2 ns burst beat — one 32 B transfer on the vault's
/// 32-TSV data bus, which is what caps a vault at 10 GB/s of data.
///
/// # Examples
///
/// ```
/// use hmc_dram::DramTiming;
///
/// let t = DramTiming::hmc_gen2();
/// let core = t.t_rcd + t.t_cl + t.t_rp;
/// assert!((core.as_ns_f64() - 41.25).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Activate-to-column command delay.
    pub t_rcd: Delay,
    /// Column access (CAS) latency.
    pub t_cl: Delay,
    /// Precharge time.
    pub t_rp: Delay,
    /// Minimum row-active time.
    pub t_ras: Delay,
    /// Column-to-column delay: one 32 B burst beat on the vault data bus.
    pub t_ccd: Delay,
    /// Write recovery time (last write data to precharge).
    pub t_wr: Delay,
}

impl DramTiming {
    /// Timing for the HMC 1.1 Gen2 stacked DRAM.
    pub fn hmc_gen2() -> DramTiming {
        DramTiming {
            t_rcd: Delay::from_ps(13_750),
            t_cl: Delay::from_ps(13_750),
            t_rp: Delay::from_ps(13_750),
            t_ras: Delay::from_ps(27_500),
            t_ccd: Delay::from_ps(3_200),
            t_wr: Delay::from_ps(15_000),
        }
    }

    /// A DDR4-2400-flavoured timing set for the baseline channel model
    /// (`hmc-ddr`): slightly slower core than the stacked dies, 8n-prefetch
    /// burst of 64 B over a 64-bit bus at 2400 MT/s ≈ 3.33 ns.
    pub fn ddr4_2400() -> DramTiming {
        DramTiming {
            t_rcd: Delay::from_ps(14_160),
            t_cl: Delay::from_ps(14_160),
            t_rp: Delay::from_ps(14_160),
            t_ras: Delay::from_ps(32_000),
            t_ccd: Delay::from_ps(3_330),
            t_wr: Delay::from_ps(15_000),
        }
    }

    /// Minimum interval between successive activations of one bank
    /// (tRC = tRAS + tRP).
    ///
    /// Kept public as the reference value this crate's bank tests assert
    /// against.
    pub fn t_rc(&self) -> Delay {
        self.t_ras + self.t_rp
    }

    /// Validates ordering constraints between the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_ras < self.t_rcd {
            return Err("tRAS must cover at least tRCD".to_owned());
        }
        if self.t_ccd.is_zero() {
            return Err("tCCD must be positive".to_owned());
        }
        Ok(())
    }
}

impl Default for DramTiming {
    fn default() -> DramTiming {
        DramTiming::hmc_gen2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_core_latency_matches_paper() {
        let t = DramTiming::hmc_gen2();
        // "tRCD + tCL + tRP is around 41 ns for HMC" (Section IV-B).
        assert!(((t.t_rcd + t.t_cl + t.t_rp).as_ns_f64() - 41.25).abs() < 0.5);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn burst_beat_yields_10_gbs_bus() {
        let t = DramTiming::hmc_gen2();
        // 32 B per beat.
        let gbs = 32.0 / t.t_ccd.as_ns_f64();
        assert_eq!(gbs, 10.0);
    }

    #[test]
    fn t_rc_is_ras_plus_rp() {
        let t = DramTiming::hmc_gen2();
        assert_eq!(t.t_rc(), t.t_ras + t.t_rp);
        assert!((t.t_rc().as_ns_f64() - 41.25).abs() < 0.01);
    }

    #[test]
    fn validate_catches_inverted_ras() {
        let mut t = DramTiming::hmc_gen2();
        t.t_ras = Delay::from_ps(1);
        assert!(t.validate().is_err());
        let mut t = DramTiming::hmc_gen2();
        t.t_ccd = Delay::ZERO;
        assert!(t.validate().is_err());
    }

    #[test]
    fn ddr4_profile_is_sane() {
        let t = DramTiming::ddr4_2400();
        assert!(t.validate().is_ok());
        let core = |t: DramTiming| t.t_rcd + t.t_cl + t.t_rp;
        assert!(core(t) > core(DramTiming::hmc_gen2()));
    }
}
