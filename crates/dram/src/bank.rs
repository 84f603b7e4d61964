//! A closed-page DRAM bank state machine.

use hmc_des::Time;

use crate::timing::DramTiming;

/// When the phases of one bank access happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// When the activate command issued (after any bank-busy wait).
    pub start: Time,
    /// When the first data beat is available at the bank's sense amps
    /// (reads) or when the last data beat must have arrived (writes).
    pub data_ready: Time,
    /// When the bank has precharged and can accept the next activate.
    pub bank_free: Time,
}

/// One DRAM bank under a closed-page policy: every access activates a row,
/// moves its bursts, and precharges. HMC vaults run closed-page because the
/// in-order, highly interleaved traffic sees almost no row locality — which
/// is also why the paper can model a vault as a queue with a fixed service
/// time (Section IV-B).
///
/// # Examples
///
/// ```
/// use hmc_des::Time;
/// use hmc_dram::{Bank, DramTiming};
///
/// let t = DramTiming::hmc_gen2();
/// let mut bank = Bank::new();
/// let a = bank.schedule_read(Time::ZERO, 1, &t);
/// // Data appears after tRCD + tCL.
/// assert_eq!(a.data_ready, Time::ZERO + t.t_rcd + t.t_cl);
/// // A second access must wait for tRC-class recovery.
/// let b = bank.schedule_read(Time::ZERO, 1, &t);
/// assert!(b.start >= a.bank_free);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bank {
    free_at: Time,
}

impl Bank {
    /// A bank that is idle at time zero.
    pub fn new() -> Bank {
        Bank::default()
    }

    /// Schedules a closed-page read of `bursts` 32 B beats.
    ///
    /// # Panics
    ///
    /// Panics if `bursts` is zero.
    pub fn schedule_read(&mut self, now: Time, bursts: u32, t: &DramTiming) -> AccessTiming {
        assert!(bursts > 0, "a read moves at least one burst");
        let start = now.max(self.free_at);
        let data_ready = start + t.t_rcd + t.t_cl;
        // The row must stay open until the last column read (tRAS also
        // bounds from below), then precharge.
        let last_col_done = start + t.t_rcd + t.t_ccd * bursts;
        let pre_start = last_col_done.max(start + t.t_ras);
        let bank_free = pre_start + t.t_rp;
        self.free_at = bank_free;
        AccessTiming {
            start,
            data_ready,
            bank_free,
        }
    }

    /// Schedules a closed-page write of `bursts` 32 B beats.
    ///
    /// # Panics
    ///
    /// Panics if `bursts` is zero.
    pub(crate) fn schedule_write(
        &mut self,
        now: Time,
        bursts: u32,
        t: &DramTiming,
    ) -> AccessTiming {
        assert!(bursts > 0, "a write moves at least one burst");
        let start = now.max(self.free_at);
        let last_data = start + t.t_rcd + t.t_ccd * bursts;
        let data_ready = last_data;
        let pre_start = (last_data + t.t_wr).max(start + t.t_ras);
        let bank_free = pre_start + t.t_rp;
        self.free_at = bank_free;
        AccessTiming {
            start,
            data_ready,
            bank_free,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::hmc_gen2()
    }

    #[test]
    fn single_burst_read_timing() {
        let t = t();
        let mut b = Bank::new();
        let a = b.schedule_read(Time::ZERO, 1, &t);
        assert_eq!(a.start, Time::ZERO);
        assert_eq!(a.data_ready.as_ps(), 27_500); // tRCD + tCL
                                                  // tRAS (27.5 ns) dominates one burst, then tRP.
        assert_eq!(a.bank_free.as_ps(), 41_250);
    }

    #[test]
    fn multi_burst_read_extends_row_occupancy() {
        let t = t();
        let mut b = Bank::new();
        let a = b.schedule_read(Time::ZERO, 4, &t);
        // 4 bursts: last column done at tRCD + 4*tCCD = 26.55 ns < tRAS,
        // so tRAS still dominates here.
        assert_eq!(a.bank_free.as_ps(), 41_250);
        // 8 bursts: tRCD + 8*tCCD = 39.35 ns > tRAS → precharge later.
        let mut b = Bank::new();
        let a = b.schedule_read(Time::ZERO, 8, &t);
        assert_eq!(a.bank_free.as_ps(), 13_750 + 8 * 3_200 + 13_750);
    }

    #[test]
    fn back_to_back_reads_respect_trc() {
        let t = t();
        let mut b = Bank::new();
        let a = b.schedule_read(Time::ZERO, 1, &t);
        let c = b.schedule_read(Time::ZERO, 1, &t);
        assert_eq!(c.start, a.bank_free);
        assert!(c.start - a.start >= t.t_rc());
    }

    #[test]
    fn idle_bank_starts_immediately() {
        let t = t();
        let mut b = Bank::new();
        b.schedule_read(Time::ZERO, 1, &t);
        // Arriving long after the bank went idle: no extra wait.
        let late = Time::from_ns(1_000);
        let a = b.schedule_read(late, 1, &t);
        assert_eq!(a.start, late);
    }

    #[test]
    fn write_timing_includes_recovery() {
        let t = t();
        let mut b = Bank::new();
        let a = b.schedule_write(Time::ZERO, 1, &t);
        // last data at tRCD + tCCD = 16.95 ns; +tWR = 31.95 > tRAS;
        // +tRP → 45.7 ns.
        assert_eq!(a.bank_free.as_ps(), 13_750 + 3_200 + 15_000 + 13_750);
    }

    #[test]
    #[should_panic(expected = "at least one burst")]
    fn zero_bursts_rejected() {
        Bank::new().schedule_read(Time::ZERO, 0, &t());
    }
}
