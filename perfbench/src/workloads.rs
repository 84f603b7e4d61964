//! The four benchmark workloads: how each system is built and run.
//!
//! Every workload is a fixed-length GUPS-firmware run (`run_gups`) of a
//! system built from the simulator's public API with the run's seed. GUPS
//! ports are closed loop: a port issues only while one of its tags is
//! free. Chase walkers issue their next hop when the previous one returns.

use hmc_sim::des::{Delay, EngineStats};
use hmc_sim::fabric::{SchedStats, GUPS_TAGS};
use hmc_sim::prelude::*;
use hmc_sim::telemetry::SharedHub;
use hmc_sim::workloads::{GlobalGupsSource, GupsSource};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cube, nine 128 B random-read ports over all 16 vaults: the
    /// paper's Fig. 6 saturation point.
    CubeReadSat,
    /// One cube, nine 64 B 50 % write ports confined to 2 banks of vault 0.
    CubeRwBank,
    /// A 64-cube 8x8 mesh, four 128 B read ports over an interleaved
    /// global window, run on 8 engine domains.
    Mesh64Read,
    /// A 4-cube chain: an 8-walker pointer chase to the far cube plus one
    /// 64 B 50 % write GUPS port per cube 1-3, with a telemetry hub.
    Chain4ChaseHub,
}

/// Ports of the single-cube workloads (the AC-510 firmware's nine).
const CUBE_PORTS: usize = 9;
/// Read ports of the mesh workload.
const MESH_PORTS: usize = 4;
/// Cubes of the mesh workload.
const MESH_CUBES: u8 = 64;
/// Engine domains of the mesh workload (one per mesh row).
const MESH_DOMAINS: usize = 8;
/// Cubes of the chain workload.
const CHAIN_CUBES: u8 = 4;
/// Pointer-chase walkers (and tags) of the chain workload.
const CHASE_WALKERS: u16 = 8;

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CubeReadSat,
        Workload::CubeRwBank,
        Workload::Mesh64Read,
        Workload::Chain4ChaseHub,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CubeReadSat => "cube-read-sat",
            Workload::CubeRwBank => "cube-rw-bank",
            Workload::Mesh64Read => "mesh64-read",
            Workload::Chain4ChaseHub => "chain4-chase-hub",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine domains the workload runs with (1 = the serial engine).
    pub fn domains(self) -> usize {
        match self {
            Workload::Mesh64Read => MESH_DOMAINS,
            _ => 1,
        }
    }

    /// Whether the workload itself runs with a telemetry hub attached.
    pub fn has_hub(self) -> bool {
        self == Workload::Chain4ChaseHub
    }

    /// `(warmup, measure)` simulated windows. Sized so one run takes
    /// roughly a third to half a host second on a 2-core x86-64 box,
    /// long enough that a run is not dominated by timer noise and short
    /// enough that a 10 s measurement takes a median over many runs.
    pub fn windows(self) -> (Delay, Delay) {
        match self {
            Workload::CubeReadSat => (Delay::from_us(20), Delay::from_us(100)),
            Workload::CubeRwBank => (Delay::from_us(20), Delay::from_us(340)),
            Workload::Mesh64Read => (Delay::from_us(20), Delay::from_us(30)),
            Workload::Chain4ChaseHub => (Delay::from_us(20), Delay::from_us(70)),
        }
    }

    /// The fabric configuration for `seed`.
    pub fn config(self, seed: u64) -> FabricConfig {
        match self {
            Workload::CubeReadSat | Workload::CubeRwBank => {
                FabricConfig::single(DeviceConfig::ac510_hmc(), HostConfig::ac510_default(), seed)
            }
            Workload::Mesh64Read => FabricConfig::ac510(Topology::Mesh2D, MESH_CUBES, seed),
            Workload::Chain4ChaseHub => FabricConfig::chain(seed, CHAIN_CUBES),
        }
    }

    /// The GUPS op template of the workload's GUPS ports.
    pub fn gups_op(self) -> GupsOp {
        match self {
            Workload::CubeReadSat | Workload::Mesh64Read => GupsOp::Read(PayloadSize::B128),
            Workload::CubeRwBank | Workload::Chain4ChaseHub => GupsOp::Mix {
                size: PayloadSize::B64,
                write_percent: 50,
            },
        }
    }

    /// The address pattern of the workload's cube-local GUPS ports
    /// (`None` for the mesh, whose ports draw from a global window).
    pub fn pattern(self) -> Option<AccessPattern> {
        match self {
            Workload::CubeReadSat | Workload::Chain4ChaseHub => {
                Some(AccessPattern::Vaults { count: 16 })
            }
            Workload::CubeRwBank => Some(AccessPattern::Banks {
                vault: VaultId(0),
                count: 2,
            }),
            Workload::Mesh64Read => None,
        }
    }

    /// The interleaved global address map over the workload's cubes (the
    /// mesh's ports are targeted through it).
    pub fn fabric_map(self, cfg: &FabricConfig) -> FabricAddressMap {
        FabricAddressMap::new(CubePolicy::Interleaved, cfg.cube_count, &cfg.cube.map)
    }

    /// Builds the workload's port specs.
    pub fn specs(self, cfg: &FabricConfig) -> Vec<FabricPortSpec> {
        let map = cfg.cube.map;
        let op = self.gups_op();
        match self {
            Workload::CubeReadSat | Workload::CubeRwBank => {
                let filter = self.pattern().expect("cube-local pattern").filter(&map);
                vec![FabricPortSpec::gups(filter, op, CubeId::HOST); CUBE_PORTS]
            }
            Workload::Mesh64Read => {
                let fabric_map = self.fabric_map(cfg);
                let window = 1u64 << Address::BITS;
                let spec = FabricPortSpec::from_source(
                    move |seed| Box::new(GlobalGupsSource::new(op, window, &fabric_map, seed)),
                    CubeId::HOST,
                )
                .with_tags(GUPS_TAGS)
                .addressed(fabric_map);
                vec![spec; MESH_PORTS]
            }
            Workload::Chain4ChaseHub => {
                let far = CubeId(CHAIN_CUBES - 1);
                let chase =
                    FabricPortSpec::from_source(move |seed| Box::new(chase(&map, seed)), far)
                        .with_tags(CHASE_WALKERS);
                let filter = self.pattern().expect("cube-local pattern").filter(&map);
                let mut specs = vec![chase];
                specs.extend((1..CHAIN_CUBES).map(|c| FabricPortSpec::gups(filter, op, CubeId(c))));
                specs
            }
        }
    }

    /// Requests the workload's ports can hold in flight (their tags).
    pub fn in_flight(self) -> usize {
        let gups = usize::from(GUPS_TAGS);
        match self {
            Workload::CubeReadSat | Workload::CubeRwBank => CUBE_PORTS * gups,
            Workload::Mesh64Read => MESH_PORTS * gups,
            Workload::Chain4ChaseHub => {
                usize::from(CHASE_WALKERS) + usize::from(CHAIN_CUBES - 1) * gups
            }
        }
    }

    /// A fresh source like the workload's GUPS ports, seeded like a port.
    pub fn gups_source(self, cfg: &FabricConfig, seed: u64) -> Box<dyn TrafficSource> {
        match self.pattern() {
            Some(p) => Box::new(GupsSource::new(
                p.filter(&cfg.cube.map),
                self.gups_op(),
                seed,
            )),
            None => Box::new(GlobalGupsSource::new(
                self.gups_op(),
                1u64 << Address::BITS,
                &self.fabric_map(cfg),
                seed,
            )),
        }
    }

    /// How a GUPS port of the workload stamps the CUB field.
    pub fn gups_targeting(self, cfg: &FabricConfig) -> CubeTargeting {
        match self {
            Workload::CubeReadSat | Workload::CubeRwBank => CubeTargeting::Fixed(CubeId::HOST),
            Workload::Mesh64Read => CubeTargeting::Addressed(self.fabric_map(cfg)),
            Workload::Chain4ChaseHub => CubeTargeting::Fixed(CubeId(1)),
        }
    }

    /// A fresh source of the kind that shapes the workload's port work:
    /// its GUPS generator, or the pointer chase on the chain.
    pub fn primary_source(self, cfg: &FabricConfig, seed: u64) -> Box<dyn TrafficSource> {
        match self {
            Workload::Chain4ChaseHub => Box::new(chase(&cfg.cube.map, seed)),
            _ => self.gups_source(cfg, seed),
        }
    }

    /// How the primary source's port stamps the CUB field.
    pub fn primary_targeting(self, cfg: &FabricConfig) -> CubeTargeting {
        match self {
            Workload::Chain4ChaseHub => CubeTargeting::Fixed(CubeId(CHAIN_CUBES - 1)),
            _ => self.gups_targeting(cfg),
        }
    }

    /// Tags of the primary source's port.
    pub fn primary_tags(self) -> u16 {
        match self {
            Workload::Chain4ChaseHub => CHASE_WALKERS,
            _ => GUPS_TAGS,
        }
    }

    /// Builds the system: configuration, address maps, port specs and the
    /// simulator constructor. `hub` attaches a telemetry hub with the
    /// default epoch series and sketches and no trace sampling; `domains`
    /// overrides the engine-domain budget.
    pub fn build(self, seed: u64, hub: bool, domains: usize) -> Built {
        let cfg = self.config(seed);
        let specs = self.specs(&cfg);
        let hub = hub.then(|| Hub::shared(HubConfig::default()));
        let probe = hub.as_ref().map_or_else(Probe::off, Probe::attached);
        let sim = FabricSim::with_telemetry(cfg, specs, probe).with_domains(domains);
        Built { sim, hub }
    }
}

/// The chain workload's pointer chase: 8 walkers of 64 B dependent reads
/// over every vault, with an effectively unbounded hop budget — the
/// measurement window, not the budget, ends the chase.
fn chase(map: &AddressMap, seed: u64) -> PointerChase {
    let vaults: Vec<VaultId> = (0..map.geometry().vaults).map(VaultId).collect();
    PointerChase::new(
        map,
        &vaults,
        PayloadSize::B64,
        CHASE_WALKERS,
        u64::MAX / 2,
        seed,
    )
}

/// A built, not yet run, system.
pub struct Built {
    /// The simulator.
    pub sim: FabricSim,
    /// The attached telemetry hub, if any.
    pub hub: Option<SharedHub>,
}

/// What one run hands back.
pub struct Outcome {
    /// The run report.
    pub report: RunReport,
    /// Engine counters, merged across domains.
    pub engine: EngineStats,
    /// Domain-scheduler counters (all zero on the serial engine).
    pub sched: SchedStats,
    /// Round-trip `(p50, p99, p999)` ps from the hub's sketches, when a
    /// hub was attached.
    pub tail_ps: Option<[u64; 3]>,
}

impl Built {
    /// Runs the workload's GUPS window.
    pub fn run(&mut self, w: Workload) -> RunReport {
        let (warmup, measure) = w.windows();
        self.sim.run_gups(warmup, measure)
    }

    /// A zero-length run: the engine build plus the one FPGA cycle the
    /// host kick issues, and its drain.
    pub fn run_empty(&mut self) -> RunReport {
        self.sim.run_gups(Delay::ZERO, Delay::ZERO)
    }

    /// Collects the counters of the finished run around `report`.
    pub fn outcome(&self, report: RunReport) -> Outcome {
        Outcome {
            report,
            engine: self.sim.engine_stats(),
            sched: self.sim.sched_stats(),
            tail_ps: self
                .hub
                .as_ref()
                .and_then(|h| h.borrow().aggregate_tail_ps()),
        }
    }
}
