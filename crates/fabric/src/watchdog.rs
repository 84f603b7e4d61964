//! A run-progress watchdog for wedged simulations.
//!
//! A conservative-parallel run can only wedge if a worker stops making
//! progress while its siblings spin at the next rendezvous (a bug, or a
//! pathological configuration — the scheduler itself is deadlock-free by
//! construction). The watchdog gives drivers a way out: the domain
//! scheduler registers every run's `PhaseBarrier` here and ticks the
//! progress counters each rendezvous round, and a driver arms a
//! [`Deadline`]. If the deadline passes before the driver disarms it,
//! the watchdog [`trip`]s — poisoning every live barrier so workers
//! unwind instead of spinning forever — and runs the driver's callback,
//! which typically prints the progress counters and exits nonzero.
//!
//! A one-domain run dispatches its whole simulation in a single window,
//! which a poisoned barrier cannot interrupt; a tripped watchdog still
//! fires the callback, whose `exit` ends the wedged process all the same.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::domain::PhaseBarrier;

/// Rendezvous rounds completed by the lead scheduler group, process-wide.
static ROUNDS: AtomicU64 = AtomicU64::new(0);
/// Lookahead windows granted across those rounds.
static WINDOWS: AtomicU64 = AtomicU64::new(0);

/// The barriers of every live run, plus the fired flag.
pub(crate) struct Registry {
    fired: AtomicBool,
    barriers: Mutex<Vec<Weak<PhaseBarrier>>>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            fired: AtomicBool::new(false),
            barriers: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn register(&self, barrier: &Arc<PhaseBarrier>) {
        let mut list = self.barriers.lock().unwrap_or_else(|e| e.into_inner());
        list.retain(|w| w.strong_count() > 0);
        list.push(Arc::downgrade(barrier));
    }

    /// Poisons every live registered barrier; returns how many it hit.
    pub(crate) fn trip(&self) -> usize {
        self.fired.store(true, Ordering::Release);
        let list = self.barriers.lock().unwrap_or_else(|e| e.into_inner());
        let mut hit = 0;
        for w in list.iter() {
            if let Some(b) = w.upgrade() {
                b.poison();
                hit += 1;
            }
        }
        hit
    }

    pub(crate) fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

static GLOBAL: LazyLock<Arc<Registry>> = LazyLock::new(|| Arc::new(Registry::new()));

/// Registers a run's barrier with the global watchdog.
pub(crate) fn register_barrier(barrier: &Arc<PhaseBarrier>) {
    GLOBAL.register(barrier);
}

/// One rendezvous round completed (lead scheduler group only, so the
/// count is not multiplied by the worker count).
pub(crate) fn note_round() {
    ROUNDS.fetch_add(1, Ordering::Relaxed);
}

/// `n` lookahead windows granted this round.
pub(crate) fn note_windows(n: u64) {
    WINDOWS.fetch_add(n, Ordering::Relaxed);
}

/// `(rounds, windows)` the domain scheduler has completed process-wide
/// — the progress diagnostic a tripped deadline prints. A one-domain run
/// counts one round of one window.
pub fn progress() -> (u64, u64) {
    (
        ROUNDS.load(Ordering::Relaxed),
        WINDOWS.load(Ordering::Relaxed),
    )
}

/// `true` once the global watchdog has tripped.
pub fn fired() -> bool {
    GLOBAL.fired()
}

/// Trips the global watchdog now: poisons every live run's barrier so
/// its workers unwind with an error instead of spinning at a rendezvous
/// that can never complete.
pub fn trip() {
    GLOBAL.trip();
}

/// An armed watchdog deadline. Dropping (or [`Deadline::disarm`]ing) it
/// cancels the timer; if the timeout elapses first, the watchdog trips
/// and the `on_fire` callback runs on the timer thread.
pub struct Deadline {
    signal: Arc<(Mutex<bool>, Condvar)>,
}

impl Deadline {
    /// Arms a deadline against the global watchdog.
    pub fn arm<F>(timeout: Duration, on_fire: F) -> Deadline
    where
        F: FnOnce() + Send + 'static,
    {
        Deadline::arm_on(GLOBAL.clone(), timeout, on_fire)
    }

    pub(crate) fn arm_on<F>(registry: Arc<Registry>, timeout: Duration, on_fire: F) -> Deadline
    where
        F: FnOnce() + Send + 'static,
    {
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        // A deadline past `Instant`'s range never fires: no timer thread.
        let Some(end) = Instant::now().checked_add(timeout) else {
            return Deadline { signal };
        };
        let timer = signal.clone();
        std::thread::spawn(move || {
            let (lock, cv) = &*timer;
            let mut disarmed = lock.lock().unwrap_or_else(|e| e.into_inner());
            while !*disarmed {
                let now = Instant::now();
                if now >= end {
                    drop(disarmed);
                    registry.trip();
                    on_fire();
                    return;
                }
                disarmed = cv
                    .wait_timeout(disarmed, end - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        });
        Deadline { signal }
    }

    /// Cancels the deadline; the callback will not run.
    pub fn disarm(&self) {
        let (lock, cv) = &*self.signal;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }
}

impl Drop for Deadline {
    fn drop(&mut self) {
        self.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::BarrierPoisoned;

    // The tests drive their own Registry rather than the global one: a
    // global trip would poison the barriers of fabric tests running
    // concurrently in this same process.

    #[test]
    fn deadline_trips_a_wedged_scheduler() {
        let registry = Arc::new(Registry::new());
        // A toy wedged run: a 2-party barrier with only one waiter — the
        // other "worker" never arrives, so the wait can only end poisoned.
        let barrier = Arc::new(PhaseBarrier::new(2));
        registry.register(&barrier);
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let _deadline = Deadline::arm_on(registry.clone(), Duration::from_millis(20), move || {
            flag.store(true, Ordering::Release);
        });
        let waited = std::thread::scope(|s| s.spawn(|| barrier.wait()).join().unwrap());
        assert_eq!(waited, Err(BarrierPoisoned), "poison must free the waiter");
        assert!(registry.fired());
        // The callback runs on the timer thread; give it a moment.
        for _ in 0..200 {
            if fired.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("on_fire callback never ran");
    }

    #[test]
    fn disarm_prevents_firing() {
        let registry = Arc::new(Registry::new());
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let deadline = Deadline::arm_on(registry.clone(), Duration::from_millis(30), move || {
            flag.store(true, Ordering::Release);
        });
        deadline.disarm();
        std::thread::sleep(Duration::from_millis(90));
        assert!(!fired.load(Ordering::Acquire), "disarmed deadline fired");
        assert!(!registry.fired());
    }

    #[test]
    fn registry_drops_dead_barriers() {
        let registry = Registry::new();
        {
            let b = Arc::new(PhaseBarrier::new(1));
            registry.register(&b);
        }
        assert_eq!(registry.trip(), 0, "a finished run's barrier is gone");
    }
}
