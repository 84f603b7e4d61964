//! `perfgate` — the repo's reproducible wall-clock performance harness.
//!
//! ```text
//! perfgate [--smoke] [--reps N] [--baseline FILE] [--out FILE]
//! ```
//!
//! Runs a fixed basket of nine full-system experiments, each `reps`
//! times, and reports **events/sec** (engine events dispatched per
//! wall-clock second) and wall time per experiment as one JSON document.
//! The basket:
//!
//! - `fig6-low` / `fig6-sat`: the unloaded and saturated Figure 6 points;
//! - `ext-chain-4`: a 4-cube chain loading its far cube;
//! - `probe-chase`: the pointer-chase probe;
//! - `ext-offload`: the NOM-style offload stream;
//! - `ext-intercube-8-sat` / `-d4`: a saturated, address-interleaved
//!   8-cube chain, serial and split over 4 engine domains;
//! - `ext-scale-64-mesh` / `-d8`: the same over a 64-cube mesh, serial
//!   and split over 8 engine domains.
//!
//! Methodology:
//!
//! - Every experiment is a fixed workload with a fixed seed; the engine's
//!   `dispatched` count is part of the simulator's deterministic output,
//!   so events/sec ratios between two builds equal their wall-time ratios
//!   and are comparable even though absolute wall times are machine-bound.
//! - The best (minimum) wall time across reps is reported — the
//!   least-noise estimator of the code's intrinsic cost.
//! - Deterministic fields (events, sim_ns, accesses, wake fires) must be
//!   identical across reps; any divergence is a determinism regression
//!   and the gate **fails** (exit 1). Timing noise never fails the gate.
//! - With `--baseline FILE` (a previous perfgate JSON, e.g. the
//!   `BENCH_*.json` trajectory at the repo root), per-experiment speedups
//!   are computed and embedded as `speedup_vs_baseline`.
//! - Each case also reports round-trip `latency_p50_ns`/`p99`/`p999`
//!   from the last timed rep's report. These are recorded for trend
//!   inspection, never gated.
//!
//! Perf PRs append their snapshot as `BENCH_PR<n>.json` at the repo root;
//! see README "Performance".

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hmc_sim::des::Delay;
use hmc_sim::fabric::SchedStats;
use hmc_sim::prelude::*;
use hmc_sim::stats::{json_escape, json_f64};
use hmc_sim::workloads::OffloadSource;

/// What one basket run hands back: the report, the engine counters and
/// the parallel-scheduler counters (all-zero default for one-domain
/// runs).
type CaseOutput = (RunReport, hmc_sim::des::EngineStats, SchedStats);

/// How a basket workload runs: closed-loop GUPS over the scale's
/// warm-up and measurement windows, or finite streams to completion.
#[derive(Clone, Copy)]
enum RunKind {
    Gups,
    Streams,
}

/// A built basket workload: the fabric, its ports and how it runs.
type Workload = (FabricConfig, Vec<FabricPortSpec>, RunKind);

/// One basket entry: a named, seeded, fixed-size workload.
struct Case {
    name: &'static str,
    build: fn(Scale2) -> Workload,
    /// Engine domains the case runs with (1 = one engine). Multi-domain
    /// entries exist to measure parallel speedup; on a 1-core box they
    /// time-slice one core and the ratio is meaningless, so the gate
    /// warns loudly instead of letting the number mislead.
    domains: usize,
}

impl Case {
    /// Builds and runs the workload on the case's engine domains.
    fn run(&self, scale: Scale2) -> CaseOutput {
        let (cfg, ports, kind) = (self.build)(scale);
        let mut sim = FabricSim::new(cfg, ports).with_domains(self.domains);
        let report = match kind {
            RunKind::Gups => {
                let (warmup, measure) = scale.gups_windows();
                sim.run_gups(warmup, measure)
            }
            RunKind::Streams => sim.run_streams(),
        };
        (report, sim.engine_stats(), sim.sched_stats())
    }
}

/// Harness scale: `Smoke` shrinks measurement windows so CI finishes in
/// seconds; `Full` is the scale recorded in `BENCH_*.json` snapshots.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scale2 {
    Smoke,
    Full,
}

impl Scale2 {
    fn gups_windows(self) -> (Delay, Delay) {
        match self {
            Scale2::Smoke => (Delay::from_us(10), Delay::from_us(40)),
            Scale2::Full => (Delay::from_us(20), Delay::from_us(150)),
        }
    }

    fn chase_hops(self) -> u64 {
        match self {
            Scale2::Smoke => 64,
            Scale2::Full => 400,
        }
    }

    fn offload_pairs(self) -> u64 {
        match self {
            Scale2::Smoke => 512,
            Scale2::Full => 4_000,
        }
    }
}

/// The unloaded Figure 6 point: one 16 B read port, one tag, one bank —
/// the idle-skip stress (few events over many simulated cycles).
fn fig6_low(_: Scale2) -> Workload {
    let cfg = FabricConfig::chain(2018, 1);
    let filter = AccessPattern::Banks {
        vault: VaultId(0),
        count: 1,
    }
    .filter(&cfg.cube.map);
    let ports = vec![
        FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B16), CubeId::HOST).with_tags(1),
    ];
    (cfg, ports, RunKind::Gups)
}

/// The saturated Figure 6 point: nine 128 B read ports over all 16
/// vaults — the bandwidth ceiling, the densest event traffic in the
/// basket and the point the ≥1.3x events/sec gate is measured on.
fn fig6_sat(_: Scale2) -> Workload {
    let cfg = FabricConfig::chain(2018, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let ports =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    (cfg, ports, RunKind::Gups)
}

/// A 4-cube chain with four 64 B GUPS ports hammering the far cube:
/// every request transits three pass-through crossbars each way.
fn ext_chain4(_: Scale2) -> Workload {
    let cfg = FabricConfig::chain(2018, 4);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let ports = vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B64), CubeId(3)); 4];
    (cfg, ports, RunKind::Gups)
}

/// The pointer-chase probe: 8 dependent-read walkers on one cube.
fn probe_chase(scale: Scale2) -> Workload {
    let cfg = FabricConfig::chain(2018, 1);
    let map = cfg.cube.map;
    let vaults: Vec<VaultId> = (0..16).map(VaultId).collect();
    let hops = scale.chase_hops();
    let spec = FabricPortSpec::from_source(
        move |seed| {
            Box::new(PointerChase::new(
                &map,
                &vaults,
                PayloadSize::B64,
                8,
                hops,
                seed,
            ))
        },
        CubeId::HOST,
    )
    .with_tags(8);
    (cfg, vec![spec], RunKind::Streams)
}

/// The NOM-style offload stream: read→dependent-write vault copies.
fn ext_offload(scale: Scale2) -> Workload {
    let cfg = FabricConfig::chain(2018, 1);
    let map = cfg.cube.map;
    let pairs = scale.offload_pairs();
    let spec = FabricPortSpec::from_source(
        move |_| {
            Box::new(OffloadSource::new(
                &map,
                VaultId(1),
                VaultId(9),
                PayloadSize::B128,
                pairs,
                8,
            ))
        },
        CubeId::HOST,
    );
    (cfg, vec![spec], RunKind::Streams)
}

/// `ports` 128 B read ports over an address-interleaved global window
/// spanning all `cubes` cubes of `topology`, so every port's stream
/// spreads across the whole fabric and transit traffic loads every hop.
fn global_gups(topology: Topology, cubes: u8, ports: usize) -> Workload {
    let cfg = FabricConfig::ac510(topology, cubes, 2018);
    let fabric_map = FabricAddressMap::new(CubePolicy::Interleaved, cubes, &cfg.cube.map);
    let spec = FabricPortSpec::global_gups(GupsOp::Read(PayloadSize::B128), fabric_map);
    (cfg, vec![spec; ports], RunKind::Gups)
}

/// The saturated 8-cube chain with nine ports: the basket workload large
/// enough for the conservative-parallel domain scheduler. The `-d4`
/// entry runs the *identical* workload split over four engine domains,
/// so their signatures must match and the events/sec ratio is the
/// parallel speedup (≈1 on a single hardware thread, where the domains
/// time-slice one core).
fn ext_intercube8(_: Scale2) -> Workload {
    global_gups(Topology::Chain, 8, 9)
}

/// The 64-cube 8×8 mesh at the widened CUB field's ceiling, with four
/// ports: the largest fabric the gate tracks and the scale-out point for
/// the domain scheduler (the `-d8` entry runs one domain per mesh row).
fn ext_scale64(_: Scale2) -> Workload {
    global_gups(Topology::Mesh2D, 64, 4)
}

const BASKET: &[Case] = &[
    Case {
        name: "fig6-low",
        build: fig6_low,
        domains: 1,
    },
    Case {
        name: "fig6-sat",
        build: fig6_sat,
        domains: 1,
    },
    Case {
        name: "ext-chain-4",
        build: ext_chain4,
        domains: 1,
    },
    Case {
        name: "probe-chase",
        build: probe_chase,
        domains: 1,
    },
    Case {
        name: "ext-offload",
        build: ext_offload,
        domains: 1,
    },
    Case {
        name: "ext-intercube-8-sat",
        build: ext_intercube8,
        domains: 1,
    },
    Case {
        name: "ext-intercube-8-sat-d4",
        build: ext_intercube8,
        domains: 4,
    },
    Case {
        name: "ext-scale-64-mesh",
        build: ext_scale64,
        domains: 1,
    },
    Case {
        name: "ext-scale-64-mesh-d8",
        build: ext_scale64,
        domains: 8,
    },
];

/// The deterministic signature of one run; must not vary across reps.
/// The scheduler tallies are included because the adaptive window plan
/// is a pure function of the workload and domain count — worker grants
/// may vary with machine load, but never the rounds/windows/events
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature {
    events: u64,
    wake_fires: u64,
    sim_ns: u64,
    accesses: u64,
    rounds: u64,
    windows: u64,
    window_events: u64,
}

struct Measured {
    name: &'static str,
    sig: Signature,
    wall_best_s: f64,
    reps: u32,
    /// Worker-pool telemetry from the last rep: threads used and pool
    /// steal/park counts. Machine-dependent, reported but never gated.
    workers: u64,
    pool_steals: u64,
    pool_parks: u64,
    tail_ps: Option<[u64; 3]>,
    /// Set when a multi-domain case ran on a 1-core budget: its wall
    /// time measures core time-slicing, not parallel speedup.
    cores_warning: Option<String>,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.sig.events as f64 / self.wall_best_s.max(1e-12)
    }
}

struct Args {
    scale: Scale2,
    reps: u32,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale2::Full,
        reps: 3,
        out: None,
        baseline: None,
    };
    // An explicit --reps wins over --smoke's lighter default regardless
    // of flag order.
    let mut reps_explicit = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                args.scale = Scale2::Smoke;
                if !reps_explicit {
                    args.reps = 2;
                }
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                args.reps = v.parse().map_err(|e| format!("bad reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".to_owned());
                }
                reps_explicit = true;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file")?;
                args.out = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file")?;
                args.baseline = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Pulls `"name":"<x>"` … `"events_per_sec":<y>` pairs out of a previous
/// perfgate JSON (our own fixed format; no general JSON parser needed).
fn parse_baseline(doc: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in doc.split("{\"name\":\"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let name = chunk[..name_end].to_owned();
        let Some(pos) = chunk.find("\"events_per_sec\":") else {
            continue;
        };
        let rest = &chunk[pos + "\"events_per_sec\":".len()..];
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("usage: perfgate [--smoke] [--reps N] [--baseline FILE] [--out FILE]");
            return ExitCode::from(2);
        }
    };
    let baseline: Vec<(String, f64)> = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(doc) => parse_baseline(&doc),
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };

    let mut results: Vec<Measured> = Vec::new();
    for case in BASKET {
        let mut best = f64::INFINITY;
        let mut sig: Option<Signature> = None;
        let mut last_sched = SchedStats::default();
        let mut tail_ps = None;
        for rep in 0..args.reps {
            let start = Instant::now();
            let (report, stats, sched) = case.run(args.scale);
            let wall = start.elapsed().as_secs_f64();
            best = best.min(wall);
            let this = Signature {
                events: stats.dispatched,
                wake_fires: stats.wake_fires,
                sim_ns: report.sim_end.as_ps() / 1000,
                accesses: report.total_accesses(),
                rounds: sched.rounds,
                windows: sched.windows,
                window_events: sched.window_events,
            };
            last_sched = sched;
            tail_ps = report.latency_tail_ps();
            match sig {
                None => sig = Some(this),
                Some(prev) if prev != this => {
                    eprintln!(
                        "DETERMINISM REGRESSION in {}: rep {rep} produced {this:?}, \
                         earlier reps produced {prev:?}",
                        case.name
                    );
                    return ExitCode::FAILURE;
                }
                Some(_) => {}
            }
            eprintln!("[{}] rep {}: {:.3}s", case.name, rep + 1, wall);
        }
        let sig = sig.expect("at least one rep ran");
        assert!(sig.accesses > 0, "{} moved no traffic", case.name);
        let cores_warning =
            (case.domains > 1 && hmc_sim::des::pool::budget_total() == 1).then(|| {
                format!(
                    "{} domains time-sliced one core: wall time is not a parallel speedup",
                    case.domains
                )
            });
        if let Some(w) = &cores_warning {
            eprintln!("WARNING [{}]: {w}", case.name);
        }
        results.push(Measured {
            name: case.name,
            sig,
            wall_best_s: best,
            reps: args.reps,
            workers: last_sched.workers,
            pool_steals: last_sched.pool_steals,
            pool_parks: last_sched.pool_parks,
            tail_ps,
            cores_warning,
        });
    }

    let mut entries: Vec<String> = Vec::new();
    for m in &results {
        // Float fields go through json_f64: a non-finite value (e.g. a
        // degenerate speedup ratio) must become null, not a bare NaN/inf
        // token that breaks the whole document.
        let mut fields = format!(
            "{{\"name\":\"{}\",\"events\":{},\"wake_fires\":{},\"sim_ns\":{},\
             \"accesses\":{},\"reps\":{},\"wall_s_best\":{},\"events_per_sec\":{}",
            json_escape(m.name),
            m.sig.events,
            m.sig.wake_fires,
            m.sig.sim_ns,
            m.sig.accesses,
            m.reps,
            json_f64(m.wall_best_s, 4),
            json_f64(m.events_per_sec(), 0),
        );
        if m.sig.rounds > 0 {
            // Parallel cases only: the deterministic scheduler tallies
            // (CI gates on these), then the machine-bound pool telemetry.
            fields.push_str(&format!(
                ",\"sched_rounds\":{},\"sched_windows\":{},\"sched_window_events\":{},\
                 \"windows_per_round\":{},\"events_per_window\":{},\
                 \"workers\":{},\"pool_steals\":{},\"pool_parks\":{}",
                m.sig.rounds,
                m.sig.windows,
                m.sig.window_events,
                json_f64(m.sig.windows as f64 / m.sig.rounds as f64, 3),
                json_f64(m.sig.window_events as f64 / m.sig.windows.max(1) as f64, 1),
                m.workers,
                m.pool_steals,
                m.pool_parks,
            ));
        }
        if let Some([p50, p99, p999]) = m.tail_ps {
            fields.push_str(&format!(
                ",\"latency_p50_ns\":{},\"latency_p99_ns\":{},\"latency_p999_ns\":{}",
                json_f64(p50 as f64 / 1000.0, 3),
                json_f64(p99 as f64 / 1000.0, 3),
                json_f64(p999 as f64 / 1000.0, 3),
            ));
        }
        if let Some(w) = &m.cores_warning {
            fields.push_str(&format!(",\"cores_warning\":\"{}\"", json_escape(w)));
        }
        if let Some((_, base)) = baseline.iter().find(|(n, _)| n == m.name) {
            fields.push_str(&format!(
                ",\"baseline_events_per_sec\":{},\"speedup_vs_baseline\":{}",
                json_f64(*base, 0),
                json_f64(m.events_per_sec() / base.max(1e-12), 3),
            ));
        }
        fields.push('}');
        entries.push(fields);
    }
    let doc = format!(
        "{{\"schema\":\"hmc-perfgate-v1\",\"mode\":\"{}\",\"cores\":{},\"experiments\":[{}]}}\n",
        match args.scale {
            Scale2::Smoke => "smoke",
            Scale2::Full => "full",
        },
        hmc_sim::des::pool::budget_total(),
        entries.join(",")
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{doc}"),
    }
    let width = results.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in &results {
        let base = baseline.iter().find(|(n, _)| n == m.name);
        eprintln!(
            "{:<width$} {:>12} events  {:>8.3}s  {:>12.0} ev/s{}",
            m.name,
            m.sig.events,
            m.wall_best_s,
            m.events_per_sec(),
            base.map(|(_, b)| format!("  ({:.2}x vs baseline)", m.events_per_sec() / b))
                .unwrap_or_default(),
        );
    }
    ExitCode::SUCCESS
}
