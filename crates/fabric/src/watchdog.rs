//! A run-progress watchdog for wedged simulations.
//!
//! A conservative-parallel run can only wedge if a worker stops making
//! progress while its siblings spin at the next rendezvous (a bug, or a
//! pathological configuration — the scheduler itself is deadlock-free by
//! construction). The watchdog gives drivers a way out: the domain
//! scheduler ticks the progress counters each rendezvous round, and a
//! driver arms a [`Deadline`]. If the deadline passes before the driver
//! disarms it, the driver's callback runs on the timer thread — typically
//! printing the progress counters and exiting nonzero. Nothing else
//! happens: a run still in flight is never cut short, so whatever report
//! it returns is the whole run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Rendezvous rounds completed by the lead scheduler group, process-wide.
static ROUNDS: AtomicU64 = AtomicU64::new(0);
/// Lookahead windows granted across those rounds.
static WINDOWS: AtomicU64 = AtomicU64::new(0);

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
/// — the progress diagnostic an expired deadline prints. A one-domain
/// run counts one round of one window.
pub fn progress() -> (u64, u64) {
    (
        ROUNDS.load(Ordering::Relaxed),
        WINDOWS.load(Ordering::Relaxed),
    )
}

/// An armed watchdog deadline. Dropping (or [`Deadline::disarm`]ing) it
/// cancels the timer; if the timeout elapses first, the `on_fire`
/// callback runs on the timer thread.
pub struct Deadline {
    signal: Arc<(Mutex<bool>, Condvar)>,
}

impl Deadline {
    /// Arms a deadline that runs `on_fire` once `timeout` has elapsed,
    /// unless disarmed first.
    pub fn arm<F>(timeout: Duration, on_fire: F) -> Deadline
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
    use std::sync::atomic::AtomicBool;

    #[test]
    fn elapsed_deadline_runs_its_callback() {
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let _deadline = Deadline::arm(Duration::from_millis(20), move || {
            flag.store(true, Ordering::Release);
        });
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
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let deadline = Deadline::arm(Duration::from_millis(30), move || {
            flag.store(true, Ordering::Release);
        });
        deadline.disarm();
        std::thread::sleep(Duration::from_millis(90));
        assert!(!fired.load(Ordering::Acquire), "disarmed deadline fired");
    }
}
