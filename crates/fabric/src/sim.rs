//! The fabric simulation: host, cubes and pass-through stages wired onto
//! the deterministic event engine.
//!
//! A [`FabricSim`] generalizes the single-cube measurement system to a
//! memory network. Cube 0 carries the host links; every other cube is
//! reached through HMC-style source routing: the host stamps each request
//! with its destination cube and the link layer of every transit cube
//! forwards it through a pass-through crossbar ([`hmc_noc::SwitchCore`])
//! onto the next cube-to-cube link. Responses retrace the route. Because
//! the pass-through crossbar is a real arbitrated switch with finite
//! buffers and credits, transit traffic contends with traffic terminating
//! at the cube — the multi-cube extension of the paper's central claim
//! that the NoC, not the DRAM, governs loaded latency.
//!
//! The engine sees one component for the host and one per cube. A cube
//! component owns its device and, in a fabric, its pass-through stage;
//! the host always talks to cube 0's component the same way, and only
//! the cube decides where host traffic lands. With `cube_count == 1`
//! there is no pass-through stage: host requests and token returns go
//! straight into the device, exactly the paper's single-cube system, so
//! single-cube results are unchanged by the fabric machinery.
//!
//! # Parallel domains
//!
//! [`FabricSim::with_domains`] partitions the cubes into contiguous
//! engine *domains* that advance concurrently under conservative
//! lookahead: every cube-to-cube message (packet deliveries *and* link
//! token returns) crosses its edge with at least the fabric SerDes
//! latency `L` ([`FabricConfig::lookahead`]), so a domain may safely
//! simulate `L` per hop beyond its neighbors' earliest pending events
//! (see [`crate::domain`]). Each domain has one inbox: a cross-domain
//! message leaves its edge as a timestamped envelope naming the
//! receiving cube, goes straight into the receiving domain's inbox, and
//! is injected when that domain next drains it as a *keyed* event whose
//! ordering key — a per-edge channel id plus a per-channel sequence —
//! is identical in serial and parallel schedules, which is what makes
//! the run report byte-identical for every `--domains` setting. One
//! `Harvest` per domain, folded together after the join, builds the
//! report.
//!
//! Every run goes through that one scheduler. The default is one domain
//! holding every cube: one engine, no envelopes, and a horizon of
//! `u64::MAX`, so its single window is a run to quiescence.

mod build;
mod cube;
mod host;
mod msg;
mod pass_through;
mod run;
#[cfg(test)]
mod tests;

use std::sync::atomic::AtomicU64;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use hmc_des::pool;
use hmc_des::{Delay, EngineStats};
use hmc_device::{DeviceConfig, HmcDevice};
use hmc_faults::FaultPlan;
use hmc_host::{HostConfig, HostModel};
use hmc_mapping::CubeTargeting;
use hmc_telemetry::Probe;
use hmc_workloads::{
    source_factory, GlobalGupsSource, GupsSource, SourceFactory, TraceReplay, TrafficSource,
};

use crate::config::{CubeId, FabricConfig};
use crate::domain::{DomainPlan, PhaseBarrier};
use crate::report::RunReport;
use crate::route::RouteTable;

use self::build::BuildPlan;
use self::msg::RunKind;
use self::pass_through::{internal_handoff_link, AdapterLayout};
use self::run::{run_group_thread, Shared};

/// Default GUPS tag-pool size: 64 tags per port. Nine ports give the 576
/// maximum outstanding requests consistent with the paper's Figure 14
/// (≈535 measured for 4-bank patterns, just under the tag ceiling).
pub const GUPS_TAGS: u16 = 64;

/// Default stream tag-pool size: 80 tags per port, matching the Figure 8
/// saturation knee (the paper's latency stops growing near 100 in-flight
/// requests).
pub const STREAM_TAGS: u16 = 80;

/// Specification of one traffic port of a fabric system.
///
/// The spec carries a [`SourceFactory`] rather than a built source so that
/// one spec can be cloned across ports (`vec![spec; 9]`) while each port's
/// source is still built with its own deterministically derived seed.
#[derive(Clone)]
pub struct FabricPortSpec {
    /// Builds the port's traffic source from the port's derived seed.
    pub source: SourceFactory,
    /// Tag-pool size (maximum outstanding requests).
    pub tags: u16,
    /// How the host derives the CUB field for this port's requests: a
    /// statically configured cube (the degenerate single-cube map — the
    /// pre-fabric behavior), or a per-request split of the workload's
    /// global address under a
    /// [`FabricAddressMap`](hmc_mapping::FabricAddressMap).
    pub targeting: CubeTargeting,
}

impl std::fmt::Debug for FabricPortSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricPortSpec")
            .field("tags", &self.tags)
            .field("targeting", &self.targeting)
            .finish_non_exhaustive()
    }
}

impl FabricPortSpec {
    /// A GUPS port with the default tag pool, targeting `cube`.
    pub fn gups(
        filter: hmc_mapping::AddressFilter,
        op: hmc_workloads::GupsOp,
        cube: CubeId,
    ) -> FabricPortSpec {
        FabricPortSpec {
            source: source_factory(move |seed| Box::new(GupsSource::new(filter, op, seed))),
            tags: GUPS_TAGS,
            targeting: CubeTargeting::Fixed(cube),
        }
    }

    /// A GUPS port over the fabric-global address space: `op`s drawn
    /// uniformly from one cube's worth of global addresses
    /// (`1 << Address::BITS` bytes), with the default GUPS tag pool, each
    /// request's cube derived from its address under `map`. Under an
    /// interleaved map the window spreads across every cube; under a
    /// blocked map it pins every request to cube 0.
    pub fn global_gups(
        op: hmc_workloads::GupsOp,
        map: hmc_mapping::FabricAddressMap,
    ) -> FabricPortSpec {
        let window = 1u64 << hmc_packet::Address::BITS;
        FabricPortSpec {
            source: source_factory(move |seed| {
                Box::new(GlobalGupsSource::new(op, window, &map, seed))
            }),
            tags: GUPS_TAGS,
            targeting: CubeTargeting::Addressed(map),
        }
    }

    /// A stream port with the default tag pool, targeting `cube`.
    pub fn stream(trace: hmc_workloads::Trace, cube: CubeId) -> FabricPortSpec {
        FabricPortSpec {
            source: source_factory(move |_seed| Box::new(TraceReplay::new(trace.clone()))),
            tags: STREAM_TAGS,
            targeting: CubeTargeting::Fixed(cube),
        }
    }

    /// A port over any traffic source, targeting `cube`, with the default
    /// stream tag pool. The factory receives the port's derived seed.
    pub fn from_source<F>(factory: F, cube: CubeId) -> FabricPortSpec
    where
        F: Fn(u64) -> Box<dyn TrafficSource> + Send + Sync + 'static,
    {
        FabricPortSpec {
            source: source_factory(factory),
            tags: STREAM_TAGS,
            targeting: CubeTargeting::Fixed(cube),
        }
    }

    /// Overrides the tag-pool size.
    pub fn with_tags(mut self, tags: u16) -> FabricPortSpec {
        self.tags = tags;
        self
    }

    /// Replaces this port's targeting: the CUB field of each request is
    /// derived from the workload's global address instead of a static
    /// cube. The map must span exactly the fabric's cube count.
    pub fn addressed(mut self, map: hmc_mapping::FabricAddressMap) -> FabricPortSpec {
        self.targeting = CubeTargeting::Addressed(map);
        self
    }
}

/// Parallel-scheduler and worker-pool counters for one run, surfaced
/// next to [`EngineStats`] (and in perfgate output) but kept out of the
/// run report: one-domain runs report zeros, so folding these into the
/// report would break the byte-identity of `repro --json` across
/// `--domains` settings.
///
/// `rounds`, `windows` and `window_events` are fully deterministic for a
/// given workload and domain count — every window schedule is computed
/// from a published snapshot, never from thread timing — and CI gates
/// them. `workers`, `pool_steals` and `pool_parks` depend on what the
/// shared core budget had free and are telemetry only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Barrier rendezvous rounds the domain scheduler ran (excluding the
    /// final all-quiescent round that ends the run).
    pub rounds: u64,
    /// Total lookahead windows granted across those rounds; one round
    /// grants every domain the same ladder of 1..=32 windows.
    pub windows: u64,
    /// Events dispatched inside parallel windows, summed over domains
    /// (equals the merged [`EngineStats::dispatched`] minus any events a
    /// domain dispatched outside the window loop — in practice, all of
    /// them).
    pub window_events: u64,
    /// Threads the run actually used: 1 (the caller) plus whatever the
    /// shared core budget granted; domains beyond this were multiplexed.
    pub workers: u64,
    /// Work items sweep workers stole from the shared pile while this
    /// run was active (process-wide delta; zero unless a sweep runs
    /// concurrently).
    pub pool_steals: u64,
    /// Workers that parked their core back into the shared budget while
    /// this run was active (its own domain workers included).
    pub pool_parks: u64,
}

impl SchedStats {
    /// Mean lookahead windows granted per rendezvous round — the
    /// adaptive scheduler's whole advantage over one-window-per-round;
    /// `1.0` would mean the ladder never beat the PR 7 baseline.
    pub fn windows_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.windows as f64 / self.rounds as f64
        }
    }

    /// Mean events dispatched per granted window (batch size of one
    /// `run_until`).
    pub fn events_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.window_events as f64 / self.windows as f64
        }
    }
}

/// A complete simulated measurement system: FPGA host plus a network of
/// HMC cubes on a deterministic event engine — or, with
/// [`FabricSim::with_domains`], on several engines advancing in parallel
/// under conservative lookahead, with byte-identical results.
///
/// One `FabricSim` performs one run ([`FabricSim::run_gups`] or
/// [`FabricSim::run_streams`]) and is then consumed by the report.
///
/// # Examples
///
/// ```
/// use hmc_des::Delay;
/// use hmc_fabric::{CubeId, FabricConfig, FabricPortSpec, FabricSim};
/// use hmc_host::GupsOp;
/// use hmc_mapping::AccessPattern;
/// use hmc_packet::PayloadSize;
///
/// // Two chained cubes; one port hammers the far cube.
/// let cfg = FabricConfig::chain(42, 2);
/// let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
/// let far = FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B64), CubeId(1));
/// let report = FabricSim::new(cfg, vec![far])
///     .run_gups(Delay::from_us(5), Delay::from_us(20));
/// assert!(report.total_accesses() > 0);
/// assert_eq!(report.cubes.len(), 2);
/// ```
pub struct FabricSim {
    plan: BuildPlan,
    probe: Probe,
    domains: usize,
    /// The run's merged engine counters (zero until it has run).
    engine: EngineStats,
    /// The run's scheduler counters (zero until it has run).
    sched: SchedStats,
    started: bool,
}

impl FabricSim {
    /// Builds a fabric system with one port per spec.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `specs` is empty or holds
    /// more than [`HostModel::MAX_PORTS`] ports, a spec statically
    /// targets a cube outside the fabric, or an addressed spec's map
    /// disagrees with the fabric's cube count.
    pub fn new(cfg: FabricConfig, specs: Vec<FabricPortSpec>) -> FabricSim {
        FabricSim::with_telemetry(cfg, specs, Probe::off())
    }

    /// Builds a fabric system with a telemetry probe attached to every
    /// component that marks a request's lifecycle: the host and its
    /// ports, each cube's device, and (multi-cube) the pass-through
    /// stages and their link serializers. With [`Probe::off`] this is
    /// exactly [`FabricSim::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FabricSim::new`].
    pub fn with_telemetry(
        cfg: FabricConfig,
        specs: Vec<FabricPortSpec>,
        probe: Probe,
    ) -> FabricSim {
        cfg.validate().expect("valid fabric config");
        assert!(!specs.is_empty(), "a system needs at least one port");
        assert!(
            specs.len() <= HostModel::MAX_PORTS,
            "{} ports exceed the host's {}-port arbiter",
            specs.len(),
            HostModel::MAX_PORTS
        );
        for s in &specs {
            match s.targeting {
                CubeTargeting::Fixed(cube) => assert!(
                    cube.0 < cfg.cube_count,
                    "port targets {} outside the {}-cube fabric",
                    cube,
                    cfg.cube_count
                ),
                CubeTargeting::Addressed(map) => assert!(
                    map.cube_count() == cfg.cube_count,
                    "port's address map spans {} cube(s) but the fabric has {}",
                    map.cube_count(),
                    cfg.cube_count
                ),
            }
        }
        let n = usize::from(cfg.cube_count);

        // Device configuration per mode: in a fabric, the device's
        // upstream serializer becomes the internal handoff into the
        // pass-through stage.
        let dev_cfg: DeviceConfig = if n == 1 {
            cfg.cube.clone()
        } else {
            DeviceConfig {
                link: internal_handoff_link(cfg.hop.input_capacity_flits),
                ..cfg.cube.clone()
            }
        };
        let proto = HmcDevice::new(dev_cfg.clone());
        let req_tokens = proto.request_tokens_per_link();
        let mut host_cfg: HostConfig = cfg.host.clone();
        // Request-direction tokens guard the first receiver's input
        // buffer: the cube's link RX directly, or cube 0's pass-through
        // input.
        host_cfg.link.input_buffer_flits = if n == 1 {
            req_tokens
        } else {
            cfg.hop.input_capacity_flits
        };
        let routes = cfg.routes();
        let dev_links = dev_cfg.link_count();
        let host_links = usize::from(cfg.host.link_count);
        let layouts: Vec<AdapterLayout> = CubeId::all(cfg.cube_count)
            .map(|c| AdapterLayout {
                dev_links,
                neighbors: cfg.topology.neighbors(cfg.cube_count, c),
                host_links: if c == CubeId::HOST { host_links } else { 0 },
            })
            .collect();
        let edge_base: Vec<usize> = layouts
            .iter()
            .scan(0usize, |acc, l| {
                let base = *acc;
                *acc += l.neighbors.len();
                Some(base)
            })
            .collect();

        FabricSim {
            plan: BuildPlan {
                cfg,
                dev_cfg,
                host_cfg,
                specs,
                routes,
                layouts,
                edge_base,
                req_tokens,
                n,
                faults: None,
            },
            probe,
            domains: 1,
            engine: EngineStats::default(),
            sched: SchedStats::default(),
            started: false,
        }
    }

    /// Requests the run be partitioned into up to `domains` per-cube
    /// engine domains advancing in parallel (clamped to the cube count;
    /// `1` — the default — puts every cube on one engine). Results are
    /// byte-identical for every setting. Traced runs, single-cube systems
    /// and zero-lookahead configurations always run as one domain on the
    /// same scheduler.
    pub fn with_domains(mut self, domains: usize) -> FabricSim {
        self.domains = domains.max(1);
        self
    }

    /// Arms deterministic link-fault injection ([`FaultPlan`]) on the
    /// fabric. Every armed link transmitter runs the HMC retry protocol:
    /// CRC-failed transmissions are retried from a bounded retry buffer
    /// (each failure paying the wasted wire time plus the
    /// ErrorAbort/StartRetry turnaround), transient down windows stall
    /// the wire, and — past the plan's degrade threshold — lanes fall to
    /// half width. Because the injector draws per `(link, flit-sequence)`
    /// and failures only push the eager wire schedule *later*, faulty
    /// runs stay byte-identical across every `--domains`/`--threads`
    /// setting, exactly like fault-free ones.
    ///
    /// Dead edges ([`FaultPlan::with_dead_edge`]) reroute the fabric
    /// around the failed link where the topology allows it (a ring sends
    /// traffic the long way); where it does not (chain, star), this
    /// returns a loud error naming the unreachable cube. A plan with no
    /// dead edges leaves the calibrated routing untouched.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the plan is internally invalid ([`FaultPlan`]
    /// validation), names a dead edge outside the fabric, or the dead
    /// edges disconnect it.
    pub fn with_faults(mut self, faults: FaultPlan) -> Result<FabricSim, String> {
        faults.validate()?;
        if !faults.dead_edges.is_empty() {
            // Reroute around the dead links. Only then: `avoiding`'s BFS
            // picks different (equally minimal) ring tie-breaks than the
            // calibrated clockwise table, and a no-dead-edge plan must
            // not perturb the fault-free schedule.
            self.plan.routes = RouteTable::avoiding(
                self.plan.cfg.topology,
                self.plan.cfg.cube_count,
                &faults.dead_edges,
            )?;
        }
        self.plan.faults = Some(Arc::new(faults));
        Ok(self)
    }

    /// Runs the GUPS firmware: every port generates random requests for
    /// `warmup + measure`, monitors reset after `warmup`, and the
    /// measurement freezes at the end while in-flight traffic drains.
    ///
    /// # Panics
    ///
    /// Panics if the system was already run.
    pub fn run_gups(&mut self, warmup: Delay, measure: Delay) -> RunReport {
        self.execute(RunKind::Gups { warmup, measure })
    }

    /// Runs the multi-port stream firmware: every port replays its trace
    /// as fast as tags allow; the run ends when all responses are home.
    ///
    /// # Panics
    ///
    /// Panics if the system was already run.
    pub fn run_streams(&mut self) -> RunReport {
        self.execute(RunKind::Streams)
    }

    fn execute(&mut self, kind: RunKind) -> RunReport {
        assert!(!self.started, "a FabricSim performs a single run");
        self.started = true;
        let n = self.plan.n;
        // Packet-lifecycle tracing samples by issue order, which only a
        // one-domain schedule preserves; traced runs stay on one engine.
        let traced = self.probe.tracing();
        let lookahead = self.plan.cfg.lookahead().as_ps();
        let d_count = if traced || n <= 1 || lookahead == 0 {
            1
        } else {
            self.domains.min(n)
        };
        self.run_domains(kind, d_count)
    }

    fn run_domains(&mut self, kind: RunKind, want: usize) -> RunReport {
        let plan = &self.plan;
        let probe = &self.probe;
        let n = plan.n;
        let dplan = DomainPlan::new(n, want, |c| {
            plan.layouts[c]
                .neighbors
                .iter()
                .map(|nb| nb.index())
                .collect()
        });
        let d_count = dplan.count;

        // Worker threads come from the shared core budget: one leased
        // core per domain, the caller's own seat included (the caller
        // always runs even when the budget grants nothing). Whatever the
        // lease falls short by is absorbed by multiplexing — each thread
        // owns a contiguous block of domains and steps them through the
        // same window levels a dedicated thread would — so a sweep that
        // drained the budget (an explicit `--threads N`) composes with
        // `--domains` instead of stacking threads on top of it.
        let pool_before = pool::stats();
        let lease = pool::lease(d_count);
        let workers = lease.granted().max(1);
        let groups: Vec<Vec<usize>> = (0..workers)
            .map(|w| (w * d_count / workers..(w + 1) * d_count / workers).collect())
            .collect();

        // One unbounded inbox per domain.
        let (senders, inboxes) = (0..d_count)
            .map(|_| {
                let (tx, rx) = channel();
                (tx, Mutex::new(rx))
            })
            .unzip();
        let sh = Shared {
            plan,
            kind,
            mins: (0..d_count).map(|_| AtomicU64::new(0)).collect(),
            done: (0..d_count).map(|_| AtomicU64::new(0)).collect(),
            dplan,
            barrier: PhaseBarrier::new(workers),
            l: plan.cfg.lookahead().as_ps(),
            senders,
            inboxes,
        };

        let (harvest, tally) = std::thread::scope(|s| {
            let handles: Vec<_> = groups[1..]
                .iter()
                .map(|group| {
                    let (sh, lease) = (&sh, &lease);
                    s.spawn(move || {
                        let out = run_group_thread(sh, group, None);
                        // Hand the core back before the join: a sweep
                        // sibling (or a later run's domain lease) can
                        // claim it while the caller is still merging.
                        lease.park_one();
                        out
                    })
                })
                .collect();

            // The caller runs its own group — always containing domain 0,
            // which hosts the host and feeds the caller's probe directly.
            // run_group_thread installs the poison guard before building,
            // so a panic before the first rendezvous can't strand the
            // workers at barrier A.
            let (mut harvest, tally) = run_group_thread(&sh, &groups[0], Some(probe));
            for h in handles {
                let (g, _) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                harvest.absorb(g);
            }
            (harvest, tally)
        });
        drop(lease);

        let pool_after = pool::stats();
        self.sched = if d_count > 1 {
            SchedStats {
                rounds: tally.rounds,
                windows: tally.windows,
                window_events: harvest.window_events,
                workers: workers as u64,
                pool_steals: pool_after.steals - pool_before.steals,
                pool_parks: pool_after.parks - pool_before.parks,
            }
        } else {
            SchedStats::default()
        };
        self.engine = harvest.engine;
        harvest.report(n)
    }

    /// Event-engine counters for this system, merged across domains after
    /// a run: events dispatched, timer fires and cancellations. With the
    /// event-driven core, `dispatched` scales with actual traffic instead
    /// of with simulated FPGA cycles — the regression tests assert it
    /// stays an order of magnitude below per-cycle ticking on low-load
    /// runs. Every counter is schedule-invariant, so the totals match the
    /// one-domain run whatever the domain count.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// Scheduler and worker-pool counters from the last run. One-domain
    /// runs report the all-zero default; parallel runs report the
    /// deterministic round/window tallies plus worker telemetry. See
    /// [`SchedStats`] for which fields are schedule-invariant.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }
}
