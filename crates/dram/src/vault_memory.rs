//! The DRAM side of one vault: banks sharing a TSV data bus.

use hmc_des::Time;

use crate::bank::Bank;
use crate::bus::DataBus;
use crate::timing::DramTiming;

/// The memory stack behind one vault controller: `banks` closed-page banks
/// (one per partition slice across the DRAM dies) sharing the vault's 32 B
/// TSV data bus.
///
/// [`VaultMemory::read`] and [`VaultMemory::write`] resolve the complete
/// timing of one access — bank activation, column access and the bus
/// transfer — and return when the transaction's data is available at the
/// logic layer (reads) or when the write has committed (writes).
///
/// # Examples
///
/// ```
/// use hmc_des::Time;
/// use hmc_dram::{DramTiming, VaultMemory};
///
/// let mut vault = VaultMemory::new(16, DramTiming::hmc_gen2());
/// // A 128 B read (4 bursts) from bank 3, issued at t=0.
/// let done = vault.read(Time::ZERO, 3, 4);
/// // tRCD + tCL + 4 beats on the bus.
/// assert_eq!(done.as_ps(), 13_750 + 13_750 + 4 * 3_200);
/// ```
#[derive(Debug, Clone)]
pub struct VaultMemory {
    banks: Vec<Bank>,
    bus: DataBus,
    timing: DramTiming,
}

impl VaultMemory {
    /// Creates an idle vault memory with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or the timing fails validation.
    pub fn new(banks: usize, timing: DramTiming) -> VaultMemory {
        assert!(banks > 0, "a vault has at least one bank");
        timing.validate().expect("valid DRAM timing");
        VaultMemory {
            banks: vec![Bank::new(); banks],
            bus: DataBus::new(timing.t_ccd),
            timing,
        }
    }

    /// Performs a read of `bursts` 32 B beats from `bank`, issued at `now`.
    /// Returns when the last data beat crosses the TSV bus into the logic
    /// layer.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or `bursts` is zero.
    pub fn read(&mut self, now: Time, bank: usize, bursts: u32) -> Time {
        let access = self.banks[bank].schedule_read(now, bursts, &self.timing);
        let (_, end) = self.bus.reserve(access.data_ready, bursts);
        end
    }

    /// Performs a write of `bursts` 32 B beats to `bank`, issued at `now`.
    /// The write data first crosses the bus, then commits in the bank;
    /// returns the commit time (when the ack can be generated).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or `bursts` is zero.
    pub fn write(&mut self, now: Time, bank: usize, bursts: u32) -> Time {
        // Data moves over the shared bus to the bank first.
        let (_, bus_done) = self.bus.reserve(now, bursts);
        let access = self.banks[bank].schedule_write(bus_done, bursts, &self.timing);
        access.data_ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_des::Delay;

    fn vault() -> VaultMemory {
        VaultMemory::new(16, DramTiming::hmc_gen2())
    }

    #[test]
    fn read_latency_is_core_plus_bus() {
        let mut v = vault();
        let done = v.read(Time::ZERO, 0, 1);
        assert_eq!(done.as_ps(), 13_750 + 13_750 + 3_200);
    }

    #[test]
    fn same_bank_reads_serialize_on_trc() {
        let mut v = vault();
        let first = v.read(Time::ZERO, 5, 1);
        let second = v.read(Time::ZERO, 5, 1);
        assert!(second - first >= Delay::from_ps(41_250 - 3_200));
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let mut v = vault();
        // 16 concurrent single-burst reads, one per bank.
        let mut completions: Vec<Time> = (0..16).map(|b| v.read(Time::ZERO, b, 1)).collect();
        completions.sort();
        // All bank cores overlap; the bus serializes the 16 beats.
        // First completion: core latency + 1 beat.
        assert_eq!(completions[0].as_ps(), 27_500 + 3_200);
        // Last completion: core latency + 16 beats.
        assert_eq!(completions[15].as_ps(), 27_500 + 16 * 3_200);
    }

    #[test]
    fn bus_saturates_at_10_gbs_under_blp() {
        let mut v = vault();
        // Stream 128 B reads round-robin over all banks: the bus should be
        // the limiter, i.e. throughput ≈ 32 B per 3.2 ns = 10 GB/s of data.
        let mut last = Time::ZERO;
        let reads = 2_000u64;
        for i in 0..reads {
            let done = v.read(Time::ZERO, (i % 16) as usize, 4);
            last = last.max(done);
        }
        let data_bytes = reads as f64 * 128.0;
        let gbs = data_bytes * 1e3 / last.as_ps() as f64;
        assert!((gbs - 10.0).abs() < 0.5, "measured {gbs} GB/s");
    }

    #[test]
    fn single_bank_stream_is_trc_limited() {
        let mut v = vault();
        let reads = 1_000u64;
        let mut last = Time::ZERO;
        for _ in 0..reads {
            last = v.read(Time::ZERO, 0, 4);
        }
        // Per access the bank is busy ~max(tRAS, tRCD+4*tCCD)+tRP = 41.25ns.
        let per_access_ns = last.as_ps() as f64 / 1e3 / reads as f64;
        assert!(
            (per_access_ns - 41.25).abs() < 1.0,
            "measured {per_access_ns} ns"
        );
    }

    #[test]
    fn write_commits_after_bus_and_bank() {
        let mut v = vault();
        let done = v.write(Time::ZERO, 0, 1);
        // Bus first (3.2 ns), then tRCD + tCCD in the bank.
        assert_eq!(done.as_ps(), 3_200 + 13_750 + 3_200);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = VaultMemory::new(0, DramTiming::hmc_gen2());
    }
}
