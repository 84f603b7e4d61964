//! `perfgate` — the repo's reproducible wall-clock performance harness.
//!
//! ```text
//! perfgate [--smoke] [--reps N] [--baseline FILE] [--out FILE]
//! ```
//!
//! Runs a fixed basket of full-system experiments (the saturated and
//! unloaded Figure 6 points, a 4-cube chain, the pointer-chase probe and
//! the NOM-style offload stream), each `reps` times, and reports
//! **events/sec** (engine events dispatched per wall-clock second) and
//! wall time per experiment as one JSON document.
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
//!   from one *untimed* run with the telemetry hub attached. These are
//!   recorded for trend inspection, never gated — and the timed reps stay
//!   telemetry-off, so the hub's cost cannot leak into the wall times.
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
use hmc_sim::workloads::{GlobalGupsSource, OffloadSource};

/// What one basket run hands back: the report, the engine counters and
/// the parallel-scheduler counters (all-zero default for single-engine
/// cases).
type CaseOutput = (RunReport, hmc_sim::des::EngineStats, SchedStats);

/// One basket entry: a named, seeded, fixed-size workload.
struct Case {
    name: &'static str,
    /// Builds and runs the workload, returning the report + engine
    /// stats. Timed reps pass `Probe::off()` (the one-branch no-op path
    /// the gate measures); the extra untimed percentile run passes an
    /// attached probe.
    run: fn(Scale2, Probe) -> CaseOutput,
    /// Engine domains the case runs with (1 = serial). Multi-domain
    /// entries exist to measure parallel speedup; on a 1-core box they
    /// time-slice one core and the ratio is meaningless, so the gate
    /// warns loudly instead of letting the number mislead.
    domains: usize,
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
fn fig6_low(scale: Scale2, probe: Probe) -> CaseOutput {
    let cfg = FabricConfig::chain(2018, 1);
    let filter = AccessPattern::Banks {
        vault: VaultId(0),
        count: 1,
    }
    .filter(&cfg.cube.map);
    let specs = vec![
        FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B16), CubeId::HOST).with_tags(1),
    ];
    let mut sim = FabricSim::with_telemetry(cfg, specs, probe);
    let (warmup, measure) = scale.gups_windows();
    let report = sim.run_gups(warmup, measure);
    let stats = sim.engine_stats();
    (report, stats, SchedStats::default())
}

/// The saturated Figure 6 point: nine 128 B read ports over all 16
/// vaults — the bandwidth ceiling, the densest event traffic in the
/// basket and the point the ≥1.3x events/sec gate is measured on.
fn fig6_sat(scale: Scale2, probe: Probe) -> CaseOutput {
    let cfg = FabricConfig::chain(2018, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    let mut sim = FabricSim::with_telemetry(cfg, specs, probe);
    let (warmup, measure) = scale.gups_windows();
    let report = sim.run_gups(warmup, measure);
    let stats = sim.engine_stats();
    (report, stats, SchedStats::default())
}

/// A 4-cube chain with four 64 B GUPS ports hammering the far cube:
/// every request transits three pass-through crossbars each way.
fn ext_chain4(scale: Scale2, probe: Probe) -> CaseOutput {
    let cfg = FabricConfig::chain(2018, 4);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs = vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B64), CubeId(3)); 4];
    let mut sim = FabricSim::with_telemetry(cfg, specs, probe);
    let (warmup, measure) = scale.gups_windows();
    let report = sim.run_gups(warmup, measure);
    let stats = sim.engine_stats();
    (report, stats, SchedStats::default())
}

/// The pointer-chase probe: 8 dependent-read walkers on one cube.
fn probe_chase(scale: Scale2, probe: Probe) -> CaseOutput {
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
    let mut sim = FabricSim::with_telemetry(cfg, vec![spec], probe);
    let report = sim.run_streams();
    let stats = sim.engine_stats();
    (report, stats, SchedStats::default())
}

/// The NOM-style offload stream: read→dependent-write vault copies.
fn ext_offload(scale: Scale2, probe: Probe) -> CaseOutput {
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
    let mut sim = FabricSim::with_telemetry(cfg, vec![spec], probe);
    let report = sim.run_streams();
    let stats = sim.engine_stats();
    (report, stats, SchedStats::default())
}

/// The saturated 8-cube chain: nine 128 B read ports over an
/// address-interleaved global window, so every port's stream spreads
/// across all eight cubes and transit traffic loads every hop. The one
/// basket workload large enough for the conservative-parallel domain
/// scheduler — the `-d4` variant runs the *identical* workload split
/// over four engine domains, so their signatures must match and the
/// events/sec ratio is the parallel speedup (≈1 on a single hardware
/// thread, where the domains time-slice one core).
fn ext_intercube8(scale: Scale2, probe: Probe, domains: usize) -> CaseOutput {
    let cfg = FabricConfig::ac510(Topology::Chain, 8, 2018);
    let fabric_map = FabricAddressMap::new(CubePolicy::Interleaved, 8, &cfg.cube.map);
    let window = 1u64 << Address::BITS;
    let spec = FabricPortSpec::from_source(
        move |seed| {
            Box::new(GlobalGupsSource::new(
                GupsOp::Read(PayloadSize::B128),
                window,
                &fabric_map,
                seed,
            ))
        },
        CubeId::HOST,
    )
    .with_tags(hmc_sim::GUPS_TAGS)
    .addressed(fabric_map);
    let mut sim = FabricSim::with_telemetry(cfg, vec![spec; 9], probe).with_domains(domains);
    let (warmup, measure) = scale.gups_windows();
    let report = sim.run_gups(warmup, measure);
    let stats = sim.engine_stats();
    let sched = sim.sched_stats();
    (report, stats, sched)
}

fn ext_intercube8_serial(scale: Scale2, probe: Probe) -> CaseOutput {
    ext_intercube8(scale, probe, 1)
}

fn ext_intercube8_d4(scale: Scale2, probe: Probe) -> CaseOutput {
    ext_intercube8(scale, probe, 4)
}

/// The 64-cube mesh at the widened CUB field's ceiling: four 128 B read
/// ports over an interleaved global window spanning all 64 cubes of an
/// 8×8 mesh. The largest fabric the gate tracks — 64 engines' worth of
/// crossbars and dimension-ordered transit — and the scale-out point for
/// the domain scheduler (the `-d8` variant runs one domain per mesh
/// row).
fn ext_scale64(scale: Scale2, probe: Probe, domains: usize) -> CaseOutput {
    let cfg = FabricConfig::ac510(Topology::Mesh2D, 64, 2018);
    let fabric_map = FabricAddressMap::new(CubePolicy::Interleaved, 64, &cfg.cube.map);
    let window = 1u64 << Address::BITS;
    let spec = FabricPortSpec::from_source(
        move |seed| {
            Box::new(GlobalGupsSource::new(
                GupsOp::Read(PayloadSize::B128),
                window,
                &fabric_map,
                seed,
            ))
        },
        CubeId::HOST,
    )
    .with_tags(hmc_sim::GUPS_TAGS)
    .addressed(fabric_map);
    let mut sim = FabricSim::with_telemetry(cfg, vec![spec; 4], probe).with_domains(domains);
    let (warmup, measure) = scale.gups_windows();
    let report = sim.run_gups(warmup, measure);
    let stats = sim.engine_stats();
    let sched = sim.sched_stats();
    (report, stats, sched)
}

fn ext_scale64_serial(scale: Scale2, probe: Probe) -> CaseOutput {
    ext_scale64(scale, probe, 1)
}

fn ext_scale64_d8(scale: Scale2, probe: Probe) -> CaseOutput {
    ext_scale64(scale, probe, 8)
}

const BASKET: &[Case] = &[
    Case {
        name: "fig6-low",
        run: fig6_low,
        domains: 1,
    },
    Case {
        name: "fig6-sat",
        run: fig6_sat,
        domains: 1,
    },
    Case {
        name: "ext-chain-4",
        run: ext_chain4,
        domains: 1,
    },
    Case {
        name: "probe-chase",
        run: probe_chase,
        domains: 1,
    },
    Case {
        name: "ext-offload",
        run: ext_offload,
        domains: 1,
    },
    Case {
        name: "ext-intercube-8-sat",
        run: ext_intercube8_serial,
        domains: 1,
    },
    Case {
        name: "ext-intercube-8-sat-d4",
        run: ext_intercube8_d4,
        domains: 4,
    },
    Case {
        name: "ext-scale-64-mesh",
        run: ext_scale64_serial,
        domains: 1,
    },
    Case {
        name: "ext-scale-64-mesh-d8",
        run: ext_scale64_d8,
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
    /// Round-trip `(p50, p99, p999)` ps from one untimed telemetry-on
    /// run. Recorded for trend inspection, never gated: latency is part
    /// of the simulated model, not the harness's wall-clock subject.
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
        for rep in 0..args.reps {
            let start = Instant::now();
            let (report, stats, sched) = (case.run)(args.scale, Probe::off());
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
        // One extra untimed run with the telemetry hub attached: the
        // latency percentiles ride along in the snapshot without the
        // instruments' cost ever touching the timed reps.
        let hub = Hub::shared(HubConfig::default());
        let _ = (case.run)(args.scale, Probe::attached(&hub));
        let tail_ps = hub.borrow().aggregate_tail_ps();
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
    for m in &results {
        let base = baseline.iter().find(|(n, _)| n == m.name);
        eprintln!(
            "{:<12} {:>12} events  {:>8.3}s  {:>12.0} ev/s{}",
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
