//! A shared, serially reserved data bus (the vault's 32 TSVs).

use hmc_des::{Delay, Time};

/// A bus that moves one fixed-size beat per `beat` interval and is shared
/// by every bank in a vault. For HMC 1.1 this is the 32-TSV, 32 B-wide
/// vault data bus: 32 B / 3.2 ns = 10 GB/s — the "maximum internal
/// bandwidth of a vault" that caps the single-vault curves in Figures 6
/// and 13.
///
/// # Examples
///
/// ```
/// use hmc_des::{Delay, Time};
/// use hmc_dram::DataBus;
///
/// let mut bus = DataBus::new(Delay::from_ns_f64(3.2));
/// let (s0, e0) = bus.reserve(Time::ZERO, 4);
/// assert_eq!(s0, Time::ZERO);
/// assert_eq!(e0.as_ps(), 12_800);
/// // A second transfer queues behind the first.
/// let (s1, _) = bus.reserve(Time::ZERO, 1);
/// assert_eq!(s1, e0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBus {
    beat: Delay,
    free_at: Time,
}

impl DataBus {
    /// Creates an idle bus with the given beat time.
    ///
    /// # Panics
    ///
    /// Panics if `beat` is zero.
    pub fn new(beat: Delay) -> DataBus {
        assert!(!beat.is_zero(), "bus beat must be positive");
        DataBus {
            beat,
            free_at: Time::ZERO,
        }
    }

    /// Reserves the bus for `beats` consecutive beats, no earlier than
    /// `earliest`. Returns `(start, end)` of the transfer.
    ///
    /// # Panics
    ///
    /// Panics if `beats` is zero.
    pub fn reserve(&mut self, earliest: Time, beats: u32) -> (Time, Time) {
        assert!(beats > 0, "a transfer moves at least one beat");
        let start = earliest.max(self.free_at);
        let end = start + self.beat * beats;
        self.free_at = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_reservations_queue() {
        let mut bus = DataBus::new(Delay::from_ps(3_200));
        let (_, e0) = bus.reserve(Time::ZERO, 1);
        let (s1, e1) = bus.reserve(Time::ZERO, 2);
        assert_eq!(s1, e0);
        assert_eq!(e1 - s1, Delay::from_ps(6_400));
    }

    #[test]
    fn idle_gap_not_charged() {
        let mut bus = DataBus::new(Delay::from_ps(3_200));
        bus.reserve(Time::ZERO, 1);
        // A transfer arriving after the bus went idle starts at once and
        // owes nothing for the gap.
        let (s, e) = bus.reserve(Time::from_ns(100), 1);
        assert_eq!(s, Time::from_ns(100));
        assert_eq!(e - s, Delay::from_ps(3_200));
    }

    #[test]
    fn sustained_rate_is_ten_gb_per_s() {
        let mut bus = DataBus::new(Delay::from_ps(3_200));
        let mut end = Time::ZERO;
        for _ in 0..1000 {
            end = bus.reserve(Time::ZERO, 1).1;
        }
        let bytes = 1000.0 * 32.0;
        let gbs = bytes * 1e3 / (end - Time::ZERO).as_ps() as f64;
        assert!((gbs - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one beat")]
    fn zero_beats_rejected() {
        DataBus::new(Delay::from_ps(1)).reserve(Time::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "beat must be positive")]
    fn zero_beat_time_rejected() {
        let _ = DataBus::new(Delay::ZERO);
    }
}
