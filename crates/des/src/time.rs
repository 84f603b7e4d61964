//! Simulation time types.
//!
//! The kernel measures time in integer **picoseconds**. A picosecond grid is
//! fine enough to represent every clock in the modeled system exactly enough
//! for our purposes (a 15 Gbps lane moves one bit in ~66.7 ps; the 187.5 MHz
//! FPGA user clock is 5333.3 ps, rounded to 5333 ps — a 0.006% error that is
//! irrelevant next to the paper's measurement noise) while keeping all
//! arithmetic in exact `u64` math so simulations are bit-for-bit
//! reproducible.
//!
//! Two newtypes keep absolute and relative time from being confused
//! (C-NEWTYPE): [`Time`] is an absolute instant since simulation start and
//! [`Delay`] is a span. `Time + Delay = Time`, `Time - Time = Delay`.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation instant, in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use hmc_des::{Delay, Time};
///
/// let t = Time::ZERO + Delay::from_ns(5);
/// assert_eq!(t.as_ps(), 5_000);
/// assert_eq!(t - Time::ZERO, Delay::from_ns(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use hmc_des::Delay;
///
/// let beat = Delay::from_ns_f64(3.2);
/// assert_eq!(beat.as_ps(), 3_200);
/// assert_eq!((beat * 4u32).as_ns_f64(), 12.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Delay(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant at `ps` picoseconds after the epoch.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates an instant at `ns` nanoseconds after the epoch.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Creates an instant at `us` microseconds after the epoch.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// This instant as picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant as (possibly fractional) nanoseconds since the epoch.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant as (possibly fractional) seconds since the epoch.
    ///
    /// Kept public with the unit test that checks it; only that test
    /// calls it (see ROADMAP).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The span from `earlier` to `self`, or [`Delay::ZERO`] if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Delay {
        Delay(self.0.saturating_sub(earlier.0))
    }
}

impl Delay {
    /// A zero-length span.
    pub const ZERO: Delay = Delay(0);
    /// The longest representable span; used as an "infinite" sentinel.
    pub const MAX: Delay = Delay(u64::MAX);

    /// Creates a span of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Delay {
        Delay(ps)
    }

    /// Creates a span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Delay {
        Delay(ns * 1_000)
    }

    /// Creates a span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Delay {
        Delay(us * 1_000_000)
    }

    /// Creates a span from fractional nanoseconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Delay {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "delay must be finite and non-negative"
        );
        Delay((ns * 1e3).round() as u64)
    }

    /// This span in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This span in (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span in (possibly fractional) seconds.
    ///
    /// Kept public with the unit test that checks it; only that test
    /// calls it (see ROADMAP).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// `true` if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Delay> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Delay) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Delay> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Delay) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Delay;
    /// The span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Time) -> Delay {
        Delay(self.0 - rhs.0)
    }
}

impl Add<Delay> for Delay {
    type Output = Delay;
    #[inline]
    fn add(self, rhs: Delay) -> Delay {
        Delay(self.0 + rhs.0)
    }
}

impl AddAssign<Delay> for Delay {
    #[inline]
    fn add_assign(&mut self, rhs: Delay) {
        self.0 += rhs.0;
    }
}

impl Sub<Delay> for Delay {
    type Output = Delay;
    #[inline]
    fn sub(self, rhs: Delay) -> Delay {
        Delay(self.0 - rhs.0)
    }
}

impl SubAssign<Delay> for Delay {
    #[inline]
    fn sub_assign(&mut self, rhs: Delay) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Delay {
    type Output = Delay;
    #[inline]
    fn mul(self, rhs: u64) -> Delay {
        Delay(self.0 * rhs)
    }
}

impl Mul<u32> for Delay {
    type Output = Delay;
    #[inline]
    fn mul(self, rhs: u32) -> Delay {
        Delay(self.0 * u64::from(rhs))
    }
}

impl Div<u64> for Delay {
    type Output = Delay;
    #[inline]
    fn div(self, rhs: u64) -> Delay {
        Delay(self.0 / rhs)
    }
}

impl Sum for Delay {
    fn sum<I: Iterator<Item = Delay>>(iter: I) -> Delay {
        iter.fold(Delay::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Time::from_ns(1).as_ps(), 1_000);
        assert_eq!(Time::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Delay::from_ns(7).as_ps(), 7_000);
        assert_eq!(Delay::from_us(3).as_ps(), 3_000_000);
    }

    #[test]
    fn fractional_constructors_round() {
        assert_eq!(Delay::from_ns_f64(3.2).as_ps(), 3_200);
        assert_eq!(Delay::from_ns_f64(1.0666666).as_ps(), 1_067);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        let _ = Delay::from_ns_f64(-1.0);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = Time::from_ns(100);
        let d = Delay::from_ns(50);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.as_ns_f64(), 150.0);
    }

    #[test]
    fn delay_scalar_ops() {
        let d = Delay::from_ps(100);
        assert_eq!((d * 4u64).as_ps(), 400);
        assert_eq!((d / 2).as_ps(), 50);
        assert_eq!((d + d - d).as_ps(), 100);
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        assert_eq!(Time::ZERO.saturating_since(Time::from_ns(5)), Delay::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_ns(1);
        let b = Time::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Delay::from_ns(1).max(Delay::from_ns(2)), Delay::from_ns(2));
    }

    #[test]
    fn seconds_conversion() {
        assert_eq!(Time::from_us(1_000_000).as_secs_f64(), 1.0);
        assert_eq!(Delay::from_us(1_000_000).as_secs_f64(), 1.0);
    }

    #[test]
    fn sum_of_delays() {
        let total: Delay = [1u64, 2, 3].iter().map(|&n| Delay::from_ns(n)).sum();
        assert_eq!(total, Delay::from_ns(6));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Time::from_ns(3)).is_empty());
        assert!(!format!("{}", Delay::from_ps(1)).is_empty());
    }
}
