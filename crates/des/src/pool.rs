//! A process-wide core budget shared by every layer that spawns worker
//! threads.
//!
//! Two layers of the workspace parallelize: experiment sweeps fan
//! independent simulations out over `--threads` workers, and a single
//! multi-cube simulation fans its engine domains out over `--domains`
//! workers. Before this module each layer sized itself against the
//! machine independently, so `--threads 8 --domains 4` oversubscribed
//! 8 × 4 threads onto 8 cores. Now both layers draw from one
//! `CoreBudget`:
//!
//! - A sweep *demands* its explicitly requested width (the user asked
//!   for it), debiting the budget — possibly to zero.
//! - A domain scheduler *leases* extra workers up to whatever is left,
//!   and multiplexes several domains onto one thread when the grant
//!   falls short. `--threads 8 --domains 4` therefore runs 8 threads
//!   total, each simulating all 4 of its job's domains itself.
//! - A sweep worker that finds the item queue empty parks: it returns
//!   its core to the budget *before* the sweep joins, so late-running
//!   jobs' domain leases can pick the core up — the work-stealing
//!   handoff between the two layers.
//!
//! The budget only shapes *scheduling*; results are identical whatever
//! it grants (sweeps are thread-count-invariant, domain runs are
//! byte-identical at any multiplexing). [`PoolStats`] counters
//! (steals/parks) are therefore telemetry, not part of any
//! deterministic signature.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The shared budget: how many cores are still unclaimed by workers.
#[derive(Debug)]
struct CoreBudget {
    /// Total cores the budget was initialized with.
    total: usize,
    /// Cores not currently claimed by any lease.
    free: AtomicUsize,
}

/// Cumulative pool counters since process start; one run's share is the
/// difference of two [`stats`] snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Work items a sweep worker claimed beyond its first — jobs pulled
    /// from the shared pile rather than handed out one-per-worker.
    pub steals: u64,
    /// Workers that retired their core back into the budget (a sweep
    /// worker draining the queue, or a domain worker finishing its run).
    pub parks: u64,
}

static STEALS: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);
static BUDGET: OnceLock<CoreBudget> = OnceLock::new();

fn budget() -> &'static CoreBudget {
    BUDGET.get_or_init(|| {
        let total = std::env::var("HMC_SIM_CORES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
            });
        CoreBudget {
            total,
            free: AtomicUsize::new(total),
        }
    })
}

/// Pins the budget to `cores` before first use. Test-only: the budget is
/// process-global, so a test that calls this must run in its own binary
/// (an integration-test file) and call it before any lease.
///
/// Returns `false` if the budget was already initialized (the setting
/// did not take).
///
/// Kept public as the hook of `hmc-experiments`' `tests/pool_budget.rs`.
#[doc(hidden)]
pub fn pin_budget_for_tests(cores: usize) -> bool {
    BUDGET
        .set(CoreBudget {
            total: cores.max(1),
            free: AtomicUsize::new(cores.max(1)),
        })
        .is_ok()
}

/// Total cores in the budget (the machine's, unless overridden by the
/// `HMC_SIM_CORES` environment variable or a test pin).
pub fn budget_total() -> usize {
    budget().total
}

/// A claim on worker cores. Dropping the lease returns every core still
/// held; [`Lease::park_one`] returns cores early, one worker at a time.
#[derive(Debug)]
pub struct Lease {
    held: AtomicUsize,
}

impl Lease {
    /// Workers this lease currently holds.
    pub fn granted(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }

    /// Returns one core to the budget ahead of the drop — called by a
    /// worker that ran out of work, so another layer's lease can claim
    /// the core while this lease's siblings are still running. A no-op
    /// once the lease holds nothing (a demanded sweep may run more
    /// workers than the budget ever granted; the excess has no core to
    /// give back).
    pub fn park_one(&self) {
        let mut held = self.held.load(Ordering::Acquire);
        while held > 0 {
            match self.held.compare_exchange_weak(
                held,
                held - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    budget().free.fetch_add(1, Ordering::AcqRel);
                    PARKS.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(seen) => held = seen,
            }
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let held = self.held.swap(0, Ordering::AcqRel);
        if held > 0 {
            budget().free.fetch_add(held, Ordering::AcqRel);
        }
    }
}

/// Claims up to `want` cores, granting only what the budget has free
/// (possibly zero). The polite form — used by domain schedulers, which
/// can always multiplex domains onto fewer threads.
pub fn lease(want: usize) -> Lease {
    let b = budget();
    let mut free = b.free.load(Ordering::Acquire);
    loop {
        let take = free.min(want);
        if take == 0 {
            break Lease {
                held: AtomicUsize::new(0),
            };
        }
        match b
            .free
            .compare_exchange_weak(free, free - take, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                break Lease {
                    held: AtomicUsize::new(take),
                }
            }
            Err(seen) => free = seen,
        }
    }
}

/// Claims exactly `want` cores, debiting the budget even past zero
/// (saturating — free cores never underflow). The demanding form — used
/// for explicit `--threads N` requests, which are honored verbatim; the
/// debit makes every *polite* lease underneath see an exhausted budget
/// instead of stacking more threads on top.
pub fn demand(want: usize) -> Lease {
    let b = budget();
    let mut free = b.free.load(Ordering::Acquire);
    loop {
        let take = free.min(want);
        match b
            .free
            .compare_exchange_weak(free, free - take, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                break Lease {
                    // The lease holds what it debited; workers beyond the
                    // grant were never the budget's to give back.
                    held: AtomicUsize::new(take),
                };
            }
            Err(seen) => free = seen,
        }
    }
}

/// Records one stolen work item (a sweep worker's claim beyond its
/// first).
pub fn note_steal() {
    STEALS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the cumulative pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        steals: STEALS.load(Ordering::Relaxed),
        parks: PARKS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The budget is process-global and these tests assert exact grants,
    // so they serialize on a lock (the harness runs tests on parallel
    // threads) and each restores every core it takes.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn lease_grants_at_most_free_and_returns_on_drop() {
        let _serial = SERIAL.lock().unwrap();
        let total = budget_total();
        let all = lease(total + 100);
        assert!(all.granted() <= total);
        let none = lease(1);
        assert_eq!(none.granted(), 0, "budget exhausted while `all` held");
        drop(none);
        drop(all);
        let again = lease(1);
        assert_eq!(again.granted(), 1.min(total));
    }

    #[test]
    fn demand_debits_but_never_underflows() {
        let _serial = SERIAL.lock().unwrap();
        let total = budget_total();
        let big = demand(total + 8);
        assert_eq!(big.granted(), total, "holds only what it debited");
        let starved = lease(1);
        assert_eq!(starved.granted(), 0);
        drop(starved);
        drop(big);
        assert_eq!(lease(total).granted(), total);
    }

    #[test]
    fn park_one_frees_a_core_early() {
        let _serial = SERIAL.lock().unwrap();
        let total = budget_total();
        let all = demand(total);
        let before = stats().parks;
        all.park_one();
        assert_eq!(all.granted(), total - 1);
        assert!(stats().parks > before);
        let handoff = lease(1);
        assert_eq!(handoff.granted(), 1, "parked core is claimable");
        drop(handoff);
        drop(all);
    }
}
