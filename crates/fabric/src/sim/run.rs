//! The conservative domain scheduler and what each domain hands back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;

use hmc_des::{ComponentId, Engine, EngineStats, Time};
use hmc_telemetry::Probe;

use crate::config::CubeId;
use crate::domain::{plan_windows, BarrierPoisoned, DomainPlan, PhaseBarrier};
use crate::report::{CubeReport, PortReport, RunReport};

use super::build::{build_domain, schedule_initial, BuildPlan, DomainParts};
use super::cube::CubeComp;
use super::host::HostComp;
use super::msg::{Envelope, Msg, RunKind};
use super::pass_through::PassThrough;

/// Post-run state of the host (domain 0 only).
pub(super) struct HostHarvest {
    ports: Vec<PortReport>,
    measure_start: Time,
    measure_end: Option<Time>,
}

/// What one or more domains hand back once they quiesce: their cubes'
/// reports, summed engine counters, the latest dispatch, window tallies
/// and — from domain 0 — the host. Telemetry needs no harvest: the host
/// fed the caller's hub directly. `Send`, unlike the engines: each worker
/// thread absorbs its own domains, and the caller absorbs every worker.
#[derive(Default)]
pub(super) struct Harvest {
    cubes: Vec<CubeReport>,
    pub(super) engine: EngineStats,
    last: Time,
    pub(super) window_events: u64,
    host: Option<HostHarvest>,
}

impl Harvest {
    /// Extracts one domain's results inside the thread that ran it.
    fn of(r: &DomainRun) -> Harvest {
        let parts = &r.parts;
        let cubes = parts
            .cubes
            .iter()
            .zip(&parts.comps)
            .map(|(&c, &id)| {
                let cube = parts
                    .engine
                    .component::<CubeComp>(id)
                    .expect("cube registered");
                CubeReport {
                    cube: CubeId(c as u8),
                    device: cube.device.stats(),
                    transit: cube.pass.as_ref().map(PassThrough::transit_stats),
                }
            })
            .collect();
        Harvest {
            cubes,
            engine: parts.engine.stats(),
            last: parts.engine.last_dispatched_at(),
            window_events: r.window_events,
            host: parts.host.map(|id| harvest_host(&parts.engine, id)),
        }
    }

    /// Folds `other` in. Every engine counter is schedule-invariant — the
    /// same components dispatch the same events whichever engine they
    /// run on — so the sums match a one-domain run exactly.
    pub(super) fn absorb(&mut self, other: Harvest) {
        self.cubes.extend(other.cubes);
        let (a, b) = (&mut self.engine, other.engine);
        a.dispatched += b.dispatched;
        a.pending += b.pending;
        a.wake_fires += b.wake_fires;
        a.wake_cancels += b.wake_cancels;
        a.scratch_spills += b.scratch_spills;
        self.last = self.last.max(other.last);
        self.window_events += other.window_events;
        if other.host.is_some() {
            debug_assert!(self.host.is_none(), "one domain hosts the host");
            self.host = other.host;
        }
    }

    /// The run report of an `n`-cube fabric, cubes in id order.
    pub(super) fn report(mut self, n: usize) -> RunReport {
        self.cubes.sort_by_key(|c| c.cube);
        debug_assert_eq!(self.cubes.len(), n, "every cube harvested exactly once");
        let host = self.host.expect("domain 0 harvested the host");
        let measure_end = host.measure_end.unwrap_or(self.last);
        RunReport {
            ports: host.ports,
            elapsed: measure_end.saturating_since(host.measure_start),
            cubes: self.cubes,
            sim_end: self.last,
        }
    }
}

pub(super) fn harvest_host(engine: &Engine<Msg>, id: ComponentId) -> HostHarvest {
    let host = engine.component::<HostComp>(id).expect("host registered");
    let ports = host
        .model
        .ports()
        .iter()
        .map(|p| PortReport {
            port: p.id(),
            source: p.source_label(),
            issued: p.issued(),
            completed: p.completed(),
            latency: p.latency().clone(),
            bytes: *p.bytes(),
            reads: p.reads_recorded(),
            writes: p.writes_recorded(),
            cube: p.targeting().fixed_cube(),
            cube_completions: p.completed_by_cube().to_vec(),
        })
        .collect();
    HostHarvest {
        ports,
        measure_start: host.measure_start,
        measure_end: host.measure_end,
    }
}

/// The scheduler state every worker thread reads: what to build and run,
/// the domain plan, the per-domain published bounds (`mins`) and window
/// levels (`done`), the rendezvous barrier, the lookahead `l` in ps, and
/// one inbox per domain — the sending halves
/// cloned into every cross-domain edge, the receivers drained by the
/// owning domain. The receivers live here, in `run_domains`' frame, so
/// they outlive every sender and a send cannot fail.
pub(super) struct Shared<'a> {
    pub(super) plan: &'a BuildPlan,
    pub(super) kind: RunKind,
    pub(super) dplan: DomainPlan,
    pub(super) mins: Vec<AtomicU64>,
    pub(super) done: Vec<AtomicU64>,
    pub(super) barrier: PhaseBarrier,
    pub(super) l: u64,
    pub(super) senders: Vec<Sender<Envelope>>,
    pub(super) inboxes: Vec<Mutex<Receiver<Envelope>>>,
}

/// One engine domain as scheduled by a worker thread: its built parts and
/// the running tally of events its windows dispatched. A thread owns one
/// *or several* of these — when the shared core budget grants fewer
/// workers than domains, each thread simulates a contiguous block of
/// domains itself, advancing them in lockstep through the same window
/// levels a dedicated thread would.
pub(super) struct DomainRun {
    d: usize,
    parts: DomainParts,
    window_events: u64,
}

impl DomainRun {
    /// Injects everything the domain's inbox currently holds, each
    /// envelope into the component of the cube it addresses. The keyed
    /// ordering makes injection timing irrelevant to results, so a drain
    /// may even pick up envelopes a neighbor sent in a later window — they
    /// simply schedule early.
    fn drain_inbox(&mut self, inbox: &Mutex<Receiver<Envelope>>) {
        let rx = inbox
            .lock()
            .expect("only the owning domain drains its inbox");
        for env in rx.try_iter() {
            let i = self
                .parts
                .cubes
                .binary_search(&env.cube)
                .expect("envelope targets an owned cube");
            self.parts
                .engine
                .schedule_keyed(env.at, self.parts.comps[i], env.key, env.msg);
        }
    }
}

/// Deterministic scheduler counters one thread accumulates; every thread
/// computes identical `rounds`/`windows` (the schedule is a pure
/// function of each round's shared snapshot), so the caller keeps only
/// its own.
#[derive(Default)]
pub(super) struct SchedTally {
    pub(super) rounds: u64,
    pub(super) windows: u64,
}

/// Blocks until every domain adjacent to `d` has published completion of
/// window level `level` (its `done` counter passing `level` means levels
/// `0..level` are complete, their sends in `d`'s inbox). Point-to-point:
/// a domain waits only on its neighbors, never on the whole fabric — the
/// reason multi-window rounds beat per-window barriers. Spins with
/// periodic yields, polling the barrier's poison flag so a panicked
/// neighbor can't strand the wait.
pub(super) fn wait_level(sh: &Shared<'_>, d: usize, level: u64) -> Result<(), BarrierPoisoned> {
    for (f, &dist) in sh.dplan.dist[d].iter().enumerate() {
        if dist != 1 {
            continue;
        }
        let mut spins = 0u32;
        while sh.done[f].load(Ordering::Acquire) < level {
            if sh.barrier.is_poisoned() {
                return Err(BarrierPoisoned);
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    Ok(())
}

/// The adaptive conservative scheduler: advances a thread's domains
/// through multi-window rounds until global quiescence.
///
/// Each round: publish every owned engine's earliest pending event time,
/// meet at barrier A, read everyone's bound, stop if all engines are
/// empty (no envelope can be in flight then — every send happens inside
/// a `run_until` before the previous barrier B and was injected right
/// after it). Otherwise project the whole round's window ladder from the
/// snapshot ([`plan_windows`]) and run it: window `k` of a domain first
/// waits for its neighbors to finish window `k-1` (per-domain `done`
/// counters — the only synchronization inside a round), drains its
/// inbox, runs to its ladder horizon — cross-domain sends land straight
/// in the receiving domain's inbox — and publishes its own level.
/// Barrier B then orders every send of the round before the final
/// drain, and the next round begins. `runs` must be sorted by domain id:
/// a thread's own earlier domains satisfy the level wait by
/// construction, so multiplexed groups can never self-deadlock.
pub(super) fn run_group(
    sh: &Shared<'_>,
    runs: &mut [DomainRun],
    tally: &mut SchedTally,
) -> Result<(), BarrierPoisoned> {
    let mut snapshot = vec![0u64; sh.dplan.count];
    let mut base = 0u64;
    loop {
        for r in runs.iter_mut() {
            let next = r
                .parts
                .engine
                .next_event_time()
                .map_or(u64::MAX, |t| t.as_ps());
            sh.mins[r.d].store(next, Ordering::Release);
        }
        sh.barrier.wait()?;
        for (slot, m) in snapshot.iter_mut().enumerate() {
            *m = sh.mins[slot].load(Ordering::Acquire);
        }
        if snapshot.iter().all(|&m| m == u64::MAX) {
            return Ok(());
        }
        let ladder = plan_windows(&snapshot, &sh.dplan.dist, sh.l);
        tally.rounds += 1;
        tally.windows += ladder.len() as u64;
        if runs.iter().any(|r| r.d == 0) {
            // Lead group only, so the process-wide watchdog progress
            // counters count rounds once, not once per worker.
            crate::watchdog::note_round();
            crate::watchdog::note_windows(ladder.len() as u64);
        }
        for (k, horizons) in ladder.iter().enumerate() {
            let level = base + k as u64;
            for r in runs.iter_mut() {
                if k > 0 {
                    wait_level(sh, r.d, level)?;
                    r.drain_inbox(&sh.inboxes[r.d]);
                }
                let before = r.parts.engine.stats().dispatched;
                r.parts.engine.run_until(Time::from_ps(horizons[r.d]));
                r.window_events += r.parts.engine.stats().dispatched - before;
                sh.done[r.d].store(level + 1, Ordering::Release);
            }
        }
        base += ladder.len() as u64;
        sh.barrier.wait()?;
        for r in runs.iter_mut() {
            r.drain_inbox(&sh.inboxes[r.d]);
        }
    }
}

/// One worker thread's whole life: build every domain of its group, run
/// the group scheduler, harvest. Domain 0 holds the host, which records
/// every completion, sketch and traced issue, so it alone gets the
/// caller's probe (`main_probe`, passed only to the caller's own group);
/// every other domain runs detached. The poison guard is installed
/// before the builds so a panic anywhere releases the other threads.
/// Only a panicking worker poisons the barrier, so a scheduler error
/// here always has a panic behind it, and the caller's join of the
/// panicked thread re-raises it: no cut-short harvest is ever returned.
/// The caller runs its own group through this same function on the
/// calling thread.
pub(super) fn run_group_thread(
    sh: &Shared<'_>,
    domains: &[usize],
    main_probe: Option<&Probe>,
) -> (Harvest, SchedTally) {
    let _guard = sh.barrier.guard();
    let off = Probe::off();
    let mut runs: Vec<DomainRun> = domains
        .iter()
        .map(|&d| {
            let probe = main_probe.filter(|_| d == 0).unwrap_or(&off);
            let mut parts = build_domain(sh.plan, probe, &sh.dplan.of_cube, d, &sh.senders);
            schedule_initial(&mut parts, sh.kind, sh.plan.n);
            DomainRun {
                d,
                parts,
                window_events: 0,
            }
        })
        .collect();
    let mut tally = SchedTally::default();
    let _ = run_group(sh, &mut runs, &mut tally);

    let mut harvest = Harvest::default();
    for r in &runs {
        harvest.absorb(Harvest::of(r));
    }
    (harvest, tally)
}
