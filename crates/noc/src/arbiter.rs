//! Arbitration policies for shared resources.

/// A rotating-priority (round-robin) arbiter over `n` requesters.
///
/// After a grant, priority moves to the requester after the winner, which
/// guarantees starvation freedom: any persistent requester is granted
/// within `n` grants (property-tested). This is the policy the modelled
/// quadrant switches use at every output port.
///
/// # Examples
///
/// ```
/// use hmc_noc::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(3);
/// assert_eq!(arb.grant(|i| i != 1), Some(0));
/// assert_eq!(arb.grant(|i| i != 1), Some(2)); // skips 1, wraps past 0
/// assert_eq!(arb.grant(|_| false), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    n: usize,
    next: usize,
    grants: u64,
    conflicts: u64,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters, with initial priority at 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> RoundRobinArbiter {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobinArbiter {
            n,
            next: 0,
            grants: 0,
            conflicts: 0,
        }
    }

    /// Number of requesters.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: the constructor rejects zero requesters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants to the first ready requester at or after the priority
    /// pointer, advancing the pointer past the winner. `ready(i)` reports
    /// whether requester `i` wants the resource.
    ///
    /// Returns `None` if no requester is ready.
    ///
    /// The simulator's hot paths (switch outputs, the host's port
    /// arbiter) call [`RoundRobinArbiter::grant_mask`] instead; this
    /// per-requester scan stays as the reference that the property tests
    /// check `grant_mask` against.
    pub fn grant<F: FnMut(usize) -> bool>(&mut self, mut ready: F) -> Option<usize> {
        let mut contenders = 0usize;
        let mut winner = None;
        for off in 0..self.n {
            let i = (self.next + off) % self.n;
            if ready(i) {
                contenders += 1;
                if winner.is_none() {
                    winner = Some(i);
                }
            }
        }
        if let Some(w) = winner {
            self.next = (w + 1) % self.n;
            self.grants += 1;
            if contenders > 1 {
                self.conflicts += 1;
            }
        }
        winner
    }

    /// [`RoundRobinArbiter::grant`] over a ready set given as a bitmask:
    /// bit `i` of `ready` is set when requester `i` wants the resource.
    /// Picks the first set bit at or after the priority pointer, wrapping,
    /// and counts contenders by popcount — the same winner, pointer move
    /// and counters as `grant`, at a cost independent of `n`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ready` has a bit at or above `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hmc_noc::RoundRobinArbiter;
    ///
    /// let mut arb = RoundRobinArbiter::new(3);
    /// assert_eq!(arb.grant_mask(0b101), Some(0));
    /// assert_eq!(arb.grant_mask(0b101), Some(2)); // skips 1, wraps past 0
    /// assert_eq!(arb.grant_mask(0), None);
    /// assert_eq!(arb.conflicts(), 2);
    /// ```
    #[inline]
    pub fn grant_mask(&mut self, ready: u64) -> Option<usize> {
        debug_assert!(
            self.n >= 64 || ready >> self.n == 0,
            "ready bit past the requester count"
        );
        if ready == 0 {
            return None;
        }
        // `next < n <= 64`, so the shift stays below the word width.
        let at_or_after = ready >> self.next;
        let w = if at_or_after != 0 {
            self.next + at_or_after.trailing_zeros() as usize
        } else {
            ready.trailing_zeros() as usize
        };
        self.next = (w + 1) % self.n;
        self.grants += 1;
        if ready.count_ones() > 1 {
            self.conflicts += 1;
        }
        Some(w)
    }

    /// Total grants issued.
    #[inline]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Grants for which more than one requester was ready — a direct
    /// measure of NoC contention.
    #[inline]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_after_grant() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.grant(|_| true), Some(0));
        assert_eq!(a.grant(|_| true), Some(1));
        assert_eq!(a.grant(|_| true), Some(2));
        assert_eq!(a.grant(|_| true), Some(3));
        assert_eq!(a.grant(|_| true), Some(0));
    }

    #[test]
    fn skips_not_ready() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.grant(|i| i == 2), Some(2));
        assert_eq!(a.grant(|i| i == 1), Some(1));
        assert_eq!(a.grant(|_| false), None);
    }

    #[test]
    fn no_starvation_with_persistent_contender() {
        // Requester 3 stays ready while 0..3 also stay ready; it must be
        // granted within 4 rounds.
        let mut a = RoundRobinArbiter::new(4);
        let mut granted3 = false;
        for _ in 0..4 {
            if a.grant(|_| true) == Some(3) {
                granted3 = true;
            }
        }
        assert!(granted3);
    }

    #[test]
    fn conflict_counting() {
        let mut a = RoundRobinArbiter::new(3);
        a.grant(|_| true); // 3 contenders
        a.grant(|i| i == 0); // 1 contender
        assert_eq!(a.grants(), 2);
        assert_eq!(a.conflicts(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_requesters_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }
}
