//! `perfgate` — the repo's reproducible wall-clock performance harness.
//!
//! ```text
//! perfgate [--smoke] [--reps N] [--baseline FILE] [--out FILE]
//! ```
//!
//! Runs a fixed basket of nine experiment points, each `reps` times, and
//! reports **events/sec** (engine events dispatched per wall-clock
//! second) and wall time per point as one JSON document. Each point is
//! built by the function its experiment's own sweep calls, at seed 2018,
//! so the basket times exactly the runs `repro --seed 2018` makes:
//!
//! - `fig13-1bank-16B-1port`: Figure 13's one-bank, 16 B, one-port point,
//!   the idle-skip stress (few events over many simulated cycles);
//! - `fig6-sat`: Figure 6's 16-vault 128 B point, the bandwidth ceiling;
//! - `ext-chain-4`: ext-chain's loaded run on 4 cubes;
//! - `probe-chase`: probe-chase's walker sweep at 8 walkers;
//! - `ext-offload`: ext-offload's window sweep at window 8;
//! - `ext-intercube-8-sat` / `-d4`: ext-intercube's interleaved 8-cube
//!   chain, serial and split over 4 engine domains;
//! - `ext-scale-64-mesh` / `-d8`: ext-scale's 64-cube mesh, serial and
//!   split over 8 engine domains.
//!
//! The default runs the points at `Scale::Quick`, `repro`'s default;
//! `--smoke` runs them at `Scale::Smoke` so CI finishes in seconds. The
//! document's `mode` says which.
//!
//! Methodology:
//!
//! - The engine's `dispatched` count is part of the simulator's
//!   deterministic output, so events/sec ratios between two builds equal
//!   their wall-time ratios and are comparable even though absolute wall
//!   times are machine-bound.
//! - One untimed warm-up run sizes each point's reps: a rep runs the point
//!   `iters` times, the smallest count that brings the warm-up run to at
//!   least 50 ms, so no rep is timed near the clock's noise floor.
//! - `wall_s_best`, `wall_s_median` and `wall_s_max` are wall seconds per
//!   run over the reps. `events_per_sec` is events ÷ `wall_s_best`, the
//!   least-noise estimator of the code's intrinsic cost; the spread says
//!   how large a difference noise alone makes.
//! - Deterministic fields (events, sim_ns, accesses, wake fires,
//!   scheduler tallies) must be identical on every run; any divergence is
//!   a determinism regression and the gate **fails** (exit 1). Timing
//!   noise never fails the gate.
//! - With `--baseline FILE` (a previous perfgate JSON), a point whose
//!   baseline entry ran the same number of events gets
//!   `baseline_events_per_sec` and `speedup_vs_baseline`. An events/sec
//!   ratio between different workloads means nothing, so a mismatch
//!   prints a one-line note and omits both fields.
//! - A `speedup_vs_baseline` taken across two sittings cannot be read
//!   against one run's spread: on a shared machine, back-to-back runs of
//!   the same build differ by more than any one run's
//!   `wall_s_max / wall_s_best`. Perf claims rest on perfbench's
//!   alternating parent/change pairs; perfgate documents, the
//!   `BENCH_*.json` snapshots among them, are trend records.
//! - Each entry also reports round-trip `latency_p50_ns`/`p99`/`p999`
//!   from the warm-up run's report. These are recorded for trend
//!   inspection, never gated.
//!
//! Perf PRs may append their snapshot as `BENCH_PR<n>.json` at the repo
//! root as a trend record; see README "Reading `BENCH_*.json`".

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hmc_experiments::{
    ext_fabric, ext_intercube, ext_offload, ext_scale, fig13, fig6, probe_chase, ExpContext, Scale,
};
use hmc_sim::fabric::SchedStats;
use hmc_sim::prelude::*;
use hmc_sim::stats::{json_escape, json_f64};

/// A timed rep lasts at least this long (see the module doc).
const MIN_REP_S: f64 = 0.05;

/// What one basket run hands back: the report, the engine counters and
/// the parallel-scheduler counters (all-zero default for one-domain
/// runs).
type CaseOutput = (RunReport, hmc_sim::des::EngineStats, SchedStats);

/// One basket entry: a named experiment point and how it runs.
struct Case {
    name: &'static str,
    /// The point's builder, the one its experiment's sweep calls.
    build: fn(&ExpContext) -> FabricSim,
    /// Closed-loop GUPS over the context's warm-up and measurement
    /// windows, or (`false`) finite streams run to completion.
    gups: bool,
    /// Engine domains the case runs with (1 = one engine). Multi-domain
    /// entries exist to measure parallel speedup; on a 1-core box they
    /// time-slice one core and the ratio is meaningless, so the gate
    /// warns loudly instead of letting the number mislead.
    domains: usize,
}

impl Case {
    /// Builds and runs the point on the case's engine domains.
    fn run(&self, ctx: &ExpContext) -> CaseOutput {
        let mut sim = (self.build)(ctx).with_domains(self.domains);
        let report = if self.gups {
            sim.run_gups(ctx.gups_warmup(), ctx.gups_measure())
        } else {
            sim.run_streams()
        };
        (report, sim.engine_stats(), sim.sched_stats())
    }
}

const BASKET: &[Case] = &[
    Case {
        name: "fig13-1bank-16B-1port",
        build: |ctx| {
            let one_bank = AccessPattern::Banks {
                vault: VaultId(0),
                count: 1,
            };
            fig13::sim(ctx, one_bank, PayloadSize::B16, 1)
        },
        gups: true,
        domains: 1,
    },
    Case {
        name: "fig6-sat",
        build: |ctx| fig6::sim(ctx, AccessPattern::Vaults { count: 16 }, PayloadSize::B128),
        gups: true,
        domains: 1,
    },
    Case {
        name: "ext-chain-4",
        build: |ctx| ext_fabric::chain_loaded_sim(ctx, 4),
        gups: true,
        domains: 1,
    },
    Case {
        name: "probe-chase",
        build: |ctx| probe_chase::walkers_sim(ctx, 8),
        gups: false,
        domains: 1,
    },
    Case {
        name: "ext-offload",
        build: |ctx| ext_offload::window_sim(ctx, 8),
        gups: false,
        domains: 1,
    },
    Case {
        name: "ext-intercube-8-sat",
        build: intercube_8,
        gups: true,
        domains: 1,
    },
    Case {
        name: "ext-intercube-8-sat-d4",
        build: intercube_8,
        gups: true,
        domains: 4,
    },
    Case {
        name: "ext-scale-64-mesh",
        build: mesh_64,
        gups: true,
        domains: 1,
    },
    Case {
        name: "ext-scale-64-mesh-d8",
        build: mesh_64,
        gups: true,
        domains: 8,
    },
];

/// ext-intercube's interleaved 8-cube chain. The `-d4` entry runs the
/// identical point split over four engine domains, so their signatures
/// must match and the events/sec ratio is the parallel speedup.
fn intercube_8(ctx: &ExpContext) -> FabricSim {
    ext_intercube::sim(ctx, Topology::Chain, 8, CubePolicy::Interleaved)
}

/// ext-scale's 64-cube 8×8 mesh; the `-d8` entry runs one domain per
/// mesh row.
fn mesh_64(ctx: &ExpContext) -> FabricSim {
    ext_scale::sim(ctx, Topology::Mesh2D, 64)
}

/// The deterministic signature of one run; must not vary across runs.
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

impl Signature {
    fn of((report, stats, sched): &CaseOutput) -> Signature {
        Signature {
            events: stats.dispatched,
            wake_fires: stats.wake_fires,
            sim_ns: report.sim_end.as_ps() / 1000,
            accesses: report.total_accesses(),
            rounds: sched.rounds,
            windows: sched.windows,
            window_events: sched.window_events,
        }
    }
}

struct Measured {
    name: &'static str,
    sig: Signature,
    iters: u32,
    /// Wall seconds per run of each timed rep, ascending.
    walls: Vec<f64>,
    /// Worker-pool telemetry from the last run: threads used and pool
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
    fn wall_best(&self) -> f64 {
        self.walls[0]
    }

    fn wall_median(&self) -> f64 {
        let n = self.walls.len();
        (self.walls[(n - 1) / 2] + self.walls[n / 2]) / 2.0
    }

    fn wall_max(&self) -> f64 {
        self.walls[self.walls.len() - 1]
    }

    fn events_per_sec(&self) -> f64 {
        self.sig.events as f64 / self.wall_best().max(1e-12)
    }

    /// This point's baseline events/sec, if `baseline` has an entry of
    /// the same name that ran the same number of events; a mismatch is
    /// noted on stderr.
    fn comparable_baseline(&self, baseline: &[(String, u64, f64)]) -> Option<f64> {
        let (_, events, events_per_sec) = baseline.iter().find(|(n, ..)| n == self.name)?;
        if *events != self.sig.events {
            eprintln!(
                "note [{}]: baseline ran {events} events, this run {}; \
                 events/s are not comparable, no speedup reported",
                self.name, self.sig.events
            );
            return None;
        }
        Some(*events_per_sec)
    }
}

struct Args {
    scale: Scale,
    reps: u32,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Quick,
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
                args.scale = Scale::Smoke;
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

/// The number right after `"<key>":` in `chunk`, if any.
fn number_after(chunk: &str, key: &str) -> Option<f64> {
    let key = format!("\"{key}\":");
    let rest = &chunk[chunk.find(&key)? + key.len()..];
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

/// Pulls each entry's name, `events` and `events_per_sec` out of a
/// previous perfgate JSON (our own fixed format; no general JSON parser
/// needed).
fn parse_baseline(doc: &str) -> Vec<(String, u64, f64)> {
    doc.split("{\"name\":\"")
        .skip(1)
        .filter_map(|chunk| {
            let name = chunk[..chunk.find('"')?].to_owned();
            let events = number_after(chunk, "events")? as u64;
            Some((name, events, number_after(chunk, "events_per_sec")?))
        })
        .collect()
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
    let baseline: Vec<(String, u64, f64)> = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(doc) => parse_baseline(&doc),
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };
    let ctx = ExpContext {
        scale: args.scale,
        ..ExpContext::quick(2018)
    };

    let mut results: Vec<Measured> = Vec::new();
    for case in BASKET {
        // One untimed warm-up run sizes the reps; its signature is the
        // one every timed run must reproduce.
        let start = Instant::now();
        let warm_up = case.run(&ctx);
        let iters = ((MIN_REP_S / start.elapsed().as_secs_f64().max(1e-6)).ceil() as u32).max(1);
        let sig = Signature::of(&warm_up);
        let tail_ps = warm_up.0.latency_tail_ps();
        let mut last_sched = warm_up.2;
        let mut walls = Vec::new();
        for rep in 0..args.reps {
            let start = Instant::now();
            for _ in 0..iters {
                let out = case.run(&ctx);
                let this = Signature::of(&out);
                if this != sig {
                    eprintln!(
                        "DETERMINISM REGRESSION in {}: rep {} produced {this:?}, \
                         the warm-up run produced {sig:?}",
                        case.name,
                        rep + 1
                    );
                    return ExitCode::FAILURE;
                }
                last_sched = out.2;
            }
            let wall = start.elapsed().as_secs_f64() / f64::from(iters);
            walls.push(wall);
            eprintln!(
                "[{}] rep {}: {:.6}s per run ({iters} runs)",
                case.name,
                rep + 1,
                wall
            );
        }
        walls.sort_by(f64::total_cmp);
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
            iters,
            walls,
            workers: last_sched.workers,
            pool_steals: last_sched.pool_steals,
            pool_parks: last_sched.pool_parks,
            tail_ps,
            cores_warning,
        });
    }

    let bases: Vec<Option<f64>> = results
        .iter()
        .map(|m| m.comparable_baseline(&baseline))
        .collect();
    let mut entries: Vec<String> = Vec::new();
    for (m, base) in results.iter().zip(&bases) {
        // Float fields go through json_f64: a non-finite value (e.g. a
        // degenerate speedup ratio) must become null, not a bare NaN/inf
        // token that breaks the whole document.
        let mut fields = format!(
            "{{\"name\":\"{}\",\"events\":{},\"wake_fires\":{},\"sim_ns\":{},\
             \"accesses\":{},\"reps\":{},\"iters\":{},\"wall_s_best\":{},\
             \"wall_s_median\":{},\"wall_s_max\":{},\"events_per_sec\":{}",
            json_escape(m.name),
            m.sig.events,
            m.sig.wake_fires,
            m.sig.sim_ns,
            m.sig.accesses,
            m.walls.len(),
            m.iters,
            json_f64(m.wall_best(), 6),
            json_f64(m.wall_median(), 6),
            json_f64(m.wall_max(), 6),
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
        if let Some(base) = base {
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
            Scale::Smoke => "smoke",
            _ => "quick",
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
    for (m, base) in results.iter().zip(&bases) {
        eprintln!(
            "{:<width$} {:>12} events  {:.6}s best  {:.6}s median  {:.6}s max  {:>12.0} ev/s{}",
            m.name,
            m.sig.events,
            m.wall_best(),
            m.wall_median(),
            m.wall_max(),
            m.events_per_sec(),
            base.map(|b| format!("  ({:.2}x vs baseline)", m.events_per_sec() / b))
                .unwrap_or_default(),
        );
    }
    ExitCode::SUCCESS
}
