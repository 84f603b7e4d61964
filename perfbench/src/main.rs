//! `perfbench` — the host-time benchmark of the HMC NoC simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one named workload against the simulator's public API for about
//! `--seconds` of host time and prints, as its last stdout line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! - `--trace 0` reports the end-to-end metrics: `wall_s` (host time of
//!   one simulation run), `accesses_per_s` (simulated accesses per host
//!   second), `setup_s` (building the system plus its engine) and
//!   `peak_rss_mb`. Timings are medians over the runs made.
//! - `--trace 1` reports the per-layer metrics: exact counters from the
//!   run reports, timed replays of each layer crate's public functions,
//!   and spans around every call, written to `perfbench/out/` at exit.
//!
//! Every simulation run is one operation. It fails if it panics, if its
//! simulated-output digest differs from the run's first (or, at the
//! default seed, from the pinned one), if a conservation audit fails, or —
//! on `cube-read-sat` — if the simulated bandwidth or latency leaves the
//! paper's Fig. 6 band.

mod check;
mod replay;
mod spans;
mod util;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hmc_sim::des::pool;
use hmc_sim::telemetry::SharedHub;

use crate::check::DEFAULT_SEED;
use crate::spans::Spans;
use crate::util::{fastest, median, nproc, peak_rss_mb};
use crate::workloads::{Outcome, Workload};

const USAGE: &str =
    "usage: perfbench --workload <cube-read-sat|cube-rw-bank|mesh64-read|chain4-chase-hub|all> \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Simulation runs every measurement makes at least, whatever `--seconds`.
const MIN_RUNS: usize = 3;
/// Share of the measured time spent on set-up samples between runs, and
/// the most samples taken after one run.
const SETUP_SHARE: f64 = 0.05;
const SETUP_PER_RUN: usize = 10;
/// Untimed warm-up before measuring: at least this long and this many runs.
const WARMUP: Duration = Duration::from_millis(1_500);
const WARMUP_MIN_RUNS: usize = 2;
/// Runs of each twin (serial engine, hub flipped) in the traced run.
const TWIN_RUNS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Ops {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// Runs one operation; a panic counts as a failure, not a crash.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                self.fail(format!("{what} panicked: {msg}"));
                None
            }
        }
    }
}

/// Everything one workload's invocation produced.
struct Report {
    ops: Ops,
    metrics: Vec<Metric>,
    lines: Vec<String>,
    spans: Option<Spans>,
}

/// One timed simulation run.
struct Run {
    wall: f64,
    outcome: Outcome,
    hub: Option<SharedHub>,
}

/// Checks finished runs against the gates and the first run's digest.
struct Gate {
    w: Workload,
    seed: u64,
    first: Option<u64>,
}

impl Gate {
    fn new(w: Workload, seed: u64) -> Gate {
        Gate {
            w,
            seed,
            first: None,
        }
    }

    fn check(&mut self, o: &Outcome) -> Result<(), String> {
        let d = check::digest(o);
        let first = *self.first.get_or_insert(d);
        if d != first {
            return Err(format!(
                "digest {d:016x} differs from the first run's {first:016x}"
            ));
        }
        if self.seed == DEFAULT_SEED && d != check::pinned(self.w) {
            return Err(format!(
                "digest {d:016x} differs from the pinned {:016x}",
                check::pinned(self.w)
            ));
        }
        check::conservation(self.w, o)?;
        if let Some(c) = check::calibration(self.w, o) {
            c.check()?;
        }
        if o.sched.workers as usize > nproc() {
            return Err(format!(
                "{} workers on a {}-thread machine",
                o.sched.workers,
                nproc()
            ));
        }
        Ok(())
    }
}

/// Builds and runs the workload once, timing the run from the first call
/// that advances simulated time until the report is returned. `None` if
/// it panicked; a panic or a failed gate is recorded in `ops`.
fn timed_run(
    w: Workload,
    seed: u64,
    (hub, domains): (bool, usize),
    ops: &mut Ops,
    gate: Option<&mut Gate>,
    spans: &mut Spans,
) -> Option<Run> {
    let run = ops.attempt(w.name(), || {
        let mut built = spans.span("setup", |_| w.build(seed, hub, domains));
        let (report, wall) = spans.span("simulation", |_| {
            let t = Instant::now();
            let report = built.run(w);
            (report, t.elapsed().as_secs_f64())
        });
        let outcome = spans.span("report", |_| built.outcome(report));
        Run {
            wall,
            outcome,
            hub: built.hub,
        }
    })?;
    if let Some(gate) = gate {
        if let Err(e) = spans.span("checks", |_| gate.check(&run.outcome)) {
            ops.fail(e);
        }
    }
    Some(run)
}

/// Set-up samples, taken between the measured runs so that their median
/// covers the same stretch of machine time as the runs. The build covers
/// config, address maps, port specs and the constructor; the engine build
/// is a zero-length run of the same system.
#[derive(Default)]
struct Setups {
    build: Vec<f64>,
    engine: Vec<f64>,
}

impl Setups {
    fn sample(&mut self, w: Workload, seed: u64, ops: &mut Ops, spans: &mut Spans) {
        let sample = ops.attempt("setup", || {
            let t = Instant::now();
            let mut built = spans.span("setup", |_| w.build(seed, w.has_hub(), w.domains()));
            let b = t.elapsed().as_secs_f64();
            let t = Instant::now();
            spans.span("engine-build", |_| built.run_empty());
            (b, t.elapsed().as_secs_f64())
        });
        if let Some((b, e)) = sample {
            self.build.push(b);
            self.engine.push(e);
        }
    }

    /// Samples after a run that took `wall` seconds: enough to spend about
    /// [`SETUP_SHARE`] of the run's time, at least one and at most
    /// [`SETUP_PER_RUN`].
    fn after_run(&mut self, w: Workload, seed: u64, wall: f64, ops: &mut Ops, spans: &mut Spans) {
        let last = self
            .build
            .last()
            .zip(self.engine.last())
            .map(|(b, e)| b + e);
        let n = last.map_or(1, |t| {
            ((SETUP_SHARE * wall / t.max(1e-9)) as usize).clamp(1, SETUP_PER_RUN)
        });
        for _ in 0..n {
            self.sample(w, seed, ops, spans);
        }
    }

    fn len(&self) -> usize {
        self.build.len()
    }

    /// `(build_s, engine_build_s, setup_s)` medians.
    fn medians(&self) -> (f64, f64, f64) {
        let total: Vec<f64> = self
            .build
            .iter()
            .zip(&self.engine)
            .map(|(b, e)| b + e)
            .collect();
        (median(&self.build), median(&self.engine), median(&total))
    }
}

/// Untimed runs until caches, the allocator and the clock governor have
/// settled: the first runs of a fresh process are measurably slower.
fn warm_up(w: Workload, seed: u64, ops: &mut Ops, gate: &mut Gate) {
    let mut off = Spans::new(false, String::new());
    let t0 = Instant::now();
    for n in 0.. {
        if n >= WARMUP_MIN_RUNS && t0.elapsed() >= WARMUP {
            break;
        }
        timed_run(
            w,
            seed,
            (w.has_hub(), w.domains()),
            ops,
            Some(gate),
            &mut off,
        );
    }
}

/// The run conditions recorded with every result.
fn conditions(w: Workload, seed: u64, o: Option<&Outcome>) -> String {
    format!(
        "# workload={} seed={seed} nproc={} budget_total={} workers={}",
        w.name(),
        nproc(),
        pool::budget_total(),
        o.map_or(1, |o| o.sched.workers.max(1))
    )
}

/// The simulated figures next to the speed figures: error against the
/// paper where a silicon reference exists.
fn model_line(w: Workload, o: Option<&Outcome>) -> String {
    match o.and_then(|o| check::calibration(w, o)) {
        Some(c) => format!(
            "{} model: {:.3} GB/s (Fig. 6 anchor {} GB/s, error {:+.2}%), mean latency {:.4} us \
             (anchor {} us, error {:+.2}%)",
            w.name(),
            c.gbs,
            check::FIG6_GBS,
            c.gbs_error() * 100.0,
            c.us,
            check::FIG6_US,
            c.us_error() * 100.0
        ),
        None => format!(
            "{} model: no silicon reference for this workload; its model is unvalidated",
            w.name()
        ),
    }
}

/// The untraced measurement: end-to-end metrics.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut ops = Ops::default();
    let mut spans = Spans::new(false, String::new());
    let mut gate = Gate::new(w, seed);
    warm_up(w, seed, &mut ops, &mut gate);
    let mut setups = Setups::default();
    let mut walls = Vec::new();
    let mut last = None;
    let t0 = Instant::now();
    for n in 0.. {
        if n >= MIN_RUNS && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let setting = (w.has_hub(), w.domains());
        if let Some(run) = timed_run(w, seed, setting, &mut ops, Some(&mut gate), &mut spans) {
            setups.after_run(w, seed, run.wall, &mut ops, &mut spans);
            walls.push(run.wall);
            last = Some(run.outcome);
        }
    }
    let (_, _, setup_s) = setups.medians();
    // The gate holds every run's simulated output to the first one's, so
    // all runs simulated the same accesses.
    let accesses = last.as_ref().map_or(0, check::accesses) as f64;
    let metrics = vec![
        metric("wall_s", fastest(&walls), "s"),
        metric(
            "accesses_per_s",
            accesses / fastest(&walls).max(1e-12),
            "1/s",
        ),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    let mut lines = vec![
        conditions(w, seed, last.as_ref()),
        format!(
            "{} wall_s over {} runs: fastest {:.6} median {:.6} slowest {:.6} s; \
             setup_s: median of {} set-ups",
            w.name(),
            walls.len(),
            fastest(&walls),
            median(&walls),
            walls.iter().copied().fold(0.0, f64::max),
            setups.len(),
        ),
        model_line(w, last.as_ref()),
    ];
    if let Some(o) = &last {
        lines.push(format!("{} digest {:016x}", w.name(), check::digest(o)));
    }
    Report {
        ops,
        metrics,
        lines,
        spans: None,
    }
}

/// The traced run: per-layer metrics.
fn per_layer(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut ops = Ops::default();
    let mut spans = Spans::new(true, format!("{}-{seed}", w.name()));
    let mut gate = Gate::new(w, seed);
    spans.span("warm-up", |_| warm_up(w, seed, &mut ops, &mut gate));
    let mut setups = Setups::default();
    let setting = (w.has_hub(), w.domains());
    // Untraced and traced runs alternate so both see the same machine.
    let mut off = Spans::new(false, String::new());
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut last = None;
    let t0 = Instant::now();
    for n in 0.. {
        if n >= MIN_RUNS && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if let Some(run) = timed_run(w, seed, setting, &mut ops, Some(&mut gate), &mut off) {
            spans.span("set-up", |s| {
                setups.after_run(w, seed, run.wall, &mut ops, s)
            });
            untraced.push(run.wall);
        }
        let run = spans.span("run", |s| {
            timed_run(w, seed, setting, &mut ops, Some(&mut gate), s)
        });
        if let Some(run) = run {
            traced.push(run.wall);
            last = Some(run);
        }
    }
    let Some(Run {
        outcome: o,
        hub: own_hub,
        ..
    }) = last
    else {
        return Report {
            ops,
            metrics: Vec::new(),
            lines: vec![conditions(w, seed, None)],
            spans: Some(spans),
        };
    };
    let (build_s, engine_s, _) = setups.medians();
    let wall = fastest(&traced);
    let plain = fastest(&untraced).max(1e-12);

    // Twins of the same run: the serial engine (mesh only) and the hub
    // flipped. Each twin run alternates with a run of the workload as it
    // is, and the twin's cost is the ratio of their fastest runs. Neither
    // twin may change what is simulated.
    let core = check::digest_sim(&o);
    let twin = |ops: &mut Ops, spans: &mut Spans, name: &str, twin_setting| {
        spans.span(name, |s| {
            let (mut own, mut twins, mut hub) = (Vec::new(), Vec::new(), None);
            for _ in 0..TWIN_RUNS {
                let mut off = Spans::new(false, String::new());
                own.extend(timed_run(w, seed, setting, ops, None, &mut off).map(|r| r.wall));
                if let Some(run) = timed_run(w, seed, twin_setting, ops, None, s) {
                    if check::digest_sim(&run.outcome) != core {
                        ops.fail(format!("{name} simulated different output"));
                    }
                    twins.push(run.wall);
                    hub = run.hub;
                }
            }
            (fastest(&twins) / fastest(&own).max(1e-12), hub)
        })
    };
    let domain_speedup = if w.domains() > 1 {
        twin(&mut ops, &mut spans, "serial-twin", (w.has_hub(), 1)).0
    } else {
        1.0
    };
    let (flipped, twin_hub) = twin(
        &mut ops,
        &mut spans,
        "hub-twin",
        (!w.has_hub(), w.domains()),
    );
    let hub_overhead_pct = if w.has_hub() {
        (1.0 / flipped.max(1e-12) - 1.0) * 100.0
    } else {
        (flipped - 1.0) * 100.0
    };
    let hub = own_hub.or(twin_hub);
    let tail_ms = hub.as_ref().map_or(0.0, |h| {
        spans.span("replay:hmc-telemetry", |_| replay::tail_ms(h))
    });

    let mix = spans.span("replay-input", |_| replay::Mix::new(w, seed, &o));
    let mut replay = |name: &str, f: fn(&replay::Mix) -> f64| spans.span(name, |_| f(&mix));
    let wheel = replay("replay:hmc-des", replay::wheel_ns_per_op);
    let next = replay("replay:hmc-workloads", replay::next_ns);
    let split = replay("replay:hmc-mapping", replay::split_ns);
    let port = replay("replay:hmc-host", replay::port_ns_per_issue);
    let link = replay("replay:hmc-link", replay::link_ns_per_packet);
    let grant = replay("replay:hmc-noc", replay::noc_ns_per_grant);
    let device = replay("replay:hmc-device", replay::device_ns_per_request);
    let dram = replay("replay:hmc-dram", replay::dram_ns_per_access);
    let sketch = replay("replay:hmc-stats", replay::sketch_ns_per_record);

    let r = &o.report;
    let e = &o.engine;
    let s = &o.sched;
    let accesses = check::accesses(&o) as f64;
    let transit: Vec<_> = r.cubes.iter().filter_map(|c| c.transit.as_ref()).collect();
    let links: Vec<_> = transit.iter().flat_map(|t| t.link_stats.iter()).collect();
    let serviced: Vec<u64> = r
        .cubes
        .iter()
        .flat_map(|c| c.device.per_vault_serviced.iter().copied())
        .collect();
    let mean_serviced = serviced.iter().sum::<u64>() as f64 / serviced.len().max(1) as f64;
    let count = |v: u64| v as f64;
    let metrics = vec![
        metric("des.events", count(e.dispatched), "count"),
        metric(
            "des.events_per_access",
            count(e.dispatched) / accesses.max(1.0),
            "ratio",
        ),
        metric("des.wake_fires", count(e.wake_fires), "count"),
        metric("des.wake_cancels", count(e.wake_cancels), "count"),
        metric("des.scratch_spills", count(e.scratch_spills), "count"),
        metric(
            "des.ns_per_event",
            wall * 1e9 / count(e.dispatched).max(1.0),
            "ns",
        ),
        metric("des.wheel_ns_per_op", wheel, "ns"),
        metric("workloads.next_ns", next, "ns"),
        metric("mapping.split_ns", split, "ns"),
        metric(
            "host.issued",
            count(r.ports.iter().map(|p| p.issued).sum()),
            "count",
        ),
        metric("host.completed", accesses, "count"),
        metric(
            "host.in_flight_at_end",
            count(check::in_flight_at_end(&o)),
            "count",
        ),
        metric("host.outstanding_mean", r.estimated_outstanding(), "count"),
        metric("host.port_ns_per_issue", port, "ns"),
        metric(
            "link.packets_sent",
            count(links.iter().map(|l| l.packets_sent).sum()),
            "count",
        ),
        metric(
            "link.flits_sent",
            count(links.iter().map(|l| l.flits_sent).sum()),
            "count",
        ),
        metric(
            "link.token_stalls",
            count(links.iter().map(|l| l.token_stalls).sum()),
            "count",
        ),
        metric(
            "link.peak_queue_flits",
            f64::from(links.iter().map(|l| l.peak_queue_flits).max().unwrap_or(0)),
            "flits",
        ),
        metric("link.ns_per_packet", link, "ns"),
        metric(
            "noc.switch_conflicts",
            count(r.total_switch_conflicts()),
            "count",
        ),
        metric(
            "noc.transit_forwarded",
            count(r.transit_forwarded()),
            "count",
        ),
        metric(
            "noc.transit_conflicts",
            count(transit.iter().map(|t| t.arbitration_conflicts).sum()),
            "count",
        ),
        metric(
            "noc.peak_input_flits",
            f64::from(
                transit
                    .iter()
                    .flat_map(|t| t.peak_input_flits.iter().copied())
                    .max()
                    .unwrap_or(0),
            ),
            "flits",
        ),
        metric("noc.ns_per_grant", grant, "ns"),
        metric(
            "device.requests_received",
            count(r.cubes.iter().map(|c| c.device.requests_received).sum()),
            "count",
        ),
        metric(
            "device.vault_imbalance",
            count(serviced.iter().copied().max().unwrap_or(0)) / mean_serviced.max(1e-12),
            "ratio",
        ),
        metric(
            "device.vault_peak_outstanding",
            r.cubes
                .iter()
                .flat_map(|c| c.device.per_vault_peak_outstanding.iter().copied())
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric("device.ns_per_request", device, "ns"),
        metric("dram.ns_per_access", dram, "ns"),
        metric("fabric.sched_rounds", count(s.rounds), "count"),
        metric("fabric.windows_per_round", s.windows_per_round(), "ratio"),
        metric("fabric.events_per_window", s.events_per_window(), "ratio"),
        metric("fabric.cubes_hit", r.cubes_hit() as f64, "count"),
        metric("fabric.workers", count(s.workers.max(1)), "count"),
        metric("fabric.pool_steals", count(s.pool_steals), "count"),
        metric("fabric.pool_parks", count(s.pool_parks), "count"),
        metric("fabric.domain_speedup", domain_speedup, "ratio"),
        metric("telemetry.hub_overhead_pct", hub_overhead_pct, "%"),
        metric("telemetry.tail_ms", tail_ms, "ms"),
        metric("stats.sketch_ns_per_record", sketch, "ns"),
        metric("core.build_s", build_s, "s"),
        metric("core.engine_build_s", engine_s, "s"),
        metric("trace.wall_s", wall, "s"),
        metric("trace.overhead_s", wall - plain, "s"),
    ];
    let lines = vec![
        format!(
            "{} traced_runs={} untraced_runs={}",
            conditions(w, seed, Some(&o)),
            traced.len(),
            untraced.len()
        ),
        model_line(w, Some(&o)),
        format!("{} digest {:016x}", w.name(), check::digest(&o)),
    ];
    Report {
        ops,
        metrics,
        lines,
        spans: Some(spans),
    }
}

/// A JSON number with all its digits (non-finite values, which no metric
/// should produce, read as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, spans: &Spans) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{seed}.json", w.name());
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {path}", spans.len()),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.contains(&Workload::Mesh64Read) && pool::budget_total() > nproc() {
        eprintln!(
            "error: refusing mesh64-read: the core budget ({}) exceeds the machine's {} threads",
            pool::budget_total(),
            nproc()
        );
        return ExitCode::from(2);
    }
    let prefixed = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut fields = Vec::new();
    for &w in &args.workloads {
        let report = if args.trace {
            per_layer(w, args.seed, args.seconds)
        } else {
            end_to_end(w, args.seed, args.seconds)
        };
        for line in &report.lines {
            println!("{line}");
        }
        for m in &report.metrics {
            println!(
                "{} {} {} {}",
                w.name(),
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        let share = report.ops.failed as f64 / report.ops.attempted.max(1) as f64;
        println!(
            "{} failed {}/{} ({:.2}%)",
            w.name(),
            report.ops.failed,
            report.ops.attempted,
            share * 100.0
        );
        for reason in &report.ops.reasons {
            println!("{} failure: {reason}", w.name());
        }
        if let Some(spans) = &report.spans {
            write_spans(w, args.seed, spans);
        }
        attempted += report.ops.attempted;
        failed += report.ops.failed;
        for m in &report.metrics {
            let name = if prefixed {
                format!("{}.{}", w.name(), m.name)
            } else {
                m.name.to_owned()
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
