//! Credit counters for lossless flow control, with a "credit became
//! available" notification so consumers wake on returns instead of polling.

/// A credit counter tracking free space in a downstream buffer, in
/// arbitrary units (flits here, tag slots in the host model).
///
/// Credits are the simulator-side equivalent of the HMC link token protocol
/// (Section II-B): a sender holds credits for the receiver's input buffer,
/// spends them when it transmits, and regains them when the receiver drains
/// — so buffers can never overflow and full buffers backpressure the
/// sender. Conservation (`taken + available == max`) is property-tested.
///
/// ## Starvation notification
///
/// A failed [`Credits::try_take`] (or an explicit
/// `Credits::mark_starved`) records that a consumer is blocked on this
/// pool. The next [`Credits::put`] then returns `true` — "a blocked
/// consumer may now progress" — which event-driven callers use to trigger
/// exactly one service pass instead of polling the pool every cycle. A
/// `put` into a pool nobody was starving on returns `false` and needs no
/// service pass.
///
/// # Examples
///
/// ```
/// use hmc_noc::Credits;
///
/// let mut c = Credits::new(9);
/// assert!(c.try_take(9));
/// assert!(!c.try_take(1)); // blocked: marks the pool starved
/// assert!(c.put(4), "return after starvation notifies");
/// assert!(!c.put(2), "no one waiting: no notification");
/// assert_eq!(c.available(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credits {
    max: u32,
    available: u32,
    starved: bool,
}

impl Credits {
    /// Creates a counter with `max` credits, all available.
    pub fn new(max: u32) -> Credits {
        Credits {
            max,
            available: max,
            starved: false,
        }
    }

    /// Credits currently available to spend.
    #[inline]
    pub fn available(&self) -> u32 {
        self.available
    }

    /// Credits currently outstanding (spent, not yet returned).
    #[inline]
    pub fn in_flight(&self) -> u32 {
        self.max - self.available
    }

    /// `true` if `n` credits can be taken.
    #[inline]
    pub(crate) fn can_take(&self, n: u32) -> bool {
        self.available >= n
    }

    /// Takes `n` credits if available; returns whether it succeeded. A
    /// failure marks the pool starved (see the type docs).
    pub fn try_take(&mut self, n: u32) -> bool {
        if self.available >= n {
            self.available -= n;
            true
        } else {
            self.starved = true;
            false
        }
    }

    /// Records that a consumer is blocked on this pool without attempting
    /// a take — for callers that gate on [`Credits::can_take`] (e.g. an
    /// arbiter predicate that must not mutate).
    #[inline]
    pub(crate) fn mark_starved(&mut self) {
        self.starved = true;
    }

    /// Returns `n` credits to the pool. Returns `true` if a consumer was
    /// starving on the pool (the flag clears; the caller should run one
    /// service pass), `false` if nobody was waiting.
    ///
    /// # Panics
    ///
    /// Panics if the return would exceed the pool size — that is a protocol
    /// bug (returning credits that were never taken), not a recoverable
    /// condition.
    pub fn put(&mut self, n: u32) -> bool {
        assert!(
            self.available + n <= self.max,
            "credit overflow: returning {} with {}/{} available",
            n,
            self.available,
            self.max
        );
        self.available += n;
        std::mem::take(&mut self.starved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_and_put_conserve() {
        let mut c = Credits::new(10);
        assert!(c.try_take(4));
        assert_eq!(c.available(), 6);
        assert_eq!(c.in_flight(), 4);
        c.put(4);
        assert_eq!(c.available(), 10);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn put_notifies_only_after_starvation() {
        let mut c = Credits::new(4);
        assert!(c.try_take(4));
        assert!(!c.put(1), "no consumer waiting");
        assert!(!c.try_take(4), "blocked: marks starved");
        assert!(c.starved);
        assert!(c.put(1), "return while a consumer waits notifies");
        assert!(!c.starved, "notification clears the flag");
        assert!(!c.put(2), "flag does not linger");
    }

    #[test]
    fn explicit_mark_starved_notifies() {
        let mut c = Credits::new(3);
        c.mark_starved();
        assert!(c.try_take(3), "marking does not consume");
        assert!(c.put(3));
    }

    #[test]
    fn take_fails_without_enough() {
        let mut c = Credits::new(3);
        assert!(!c.try_take(4));
        assert_eq!(c.available(), 3, "failed take must not consume");
        assert!(c.can_take(3));
        assert!(!c.can_take(4));
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn over_return_panics() {
        let mut c = Credits::new(2);
        c.put(1);
    }

    #[test]
    fn zero_sized_pool_blocks_everything() {
        let mut c = Credits::new(0);
        assert!(!c.try_take(1));
        assert!(c.try_take(0));
    }
}
