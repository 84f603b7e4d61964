//! Ext-timeline: the Figure 6 saturation knee as *timelines*.
//!
//! Figure 6 reports one (bandwidth, latency) point per run — the steady
//! state, averaged over the whole measurement window. This extension
//! re-runs the knee's two endpoints — nine ports at low load (shallow
//! tag pools, few outstanding requests) and at saturation (the full
//! 64-tag pools) — with the telemetry hub attached and reports what the
//! averages hide: per-epoch bandwidth and mean-latency timelines, from
//! the hub's epoch table, and the full latency *distribution*
//! (p50/p99/p999 per source port and per cube, from the run report's
//! mergeable quantile sketches).
//!
//! Everything here is derived from one deterministic simulation per
//! point, so the rendered tables are byte-identical across runs and
//! `--threads` settings.

use hmc_sim::prelude::*;

use crate::common::ExpContext;

/// One epoch of a point's completion timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Epoch index (0 = start of the measurement window).
    pub epoch: usize,
    /// Requests completed in the epoch.
    pub completed: u64,
    /// Counted round-trip bandwidth over the epoch, GB/s.
    pub bandwidth_gbs: f64,
    /// Mean round-trip latency of the epoch's completions, ns.
    pub mean_latency_ns: f64,
}

/// Tail latencies of one sketch: `(p50, p99, p999)` in picoseconds.
pub type TailPs = [u64; 3];

/// One load point of the timeline experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Point label (`low` / `saturated`).
    pub label: &'static str,
    /// Tag-pool size per port (the load axis, as in Figures 7/8).
    pub tags: u16,
    /// Epoch width, µs.
    pub epoch_us: f64,
    /// The completion timeline, one row per epoch (the tail rows past
    /// the measurement window hold the drain of in-flight requests).
    pub rows: Vec<EpochRow>,
    /// Per-source-port round-trip tails, ascending port id.
    pub source_tails: Vec<(u16, TailPs)>,
    /// Per-cube round-trip tails, ascending cube id.
    pub cube_tails: Vec<(u8, TailPs)>,
}

/// Epoch width per scale: long enough to smooth FPGA-cycle granularity,
/// short enough that every scale's measurement window spans several
/// epochs.
fn epoch_width(ctx: &ExpContext) -> Delay {
    match ctx.scale {
        crate::Scale::Smoke => Delay::from_us(5),
        crate::Scale::Quick => Delay::from_us(10),
        crate::Scale::Full => Delay::from_us(20),
    }
}

/// Builds the telemetry-on system for one point and runs it: nine GUPS
/// ports of 128 B reads over all vaults, `tags` outstanding requests per
/// port.
fn run_point(ctx: &ExpContext, label: &'static str, tags: u16) -> TimelinePoint {
    let seed = ctx.seed_for("ext-timeline", u64::from(tags));
    let cfg = FabricConfig::chain(seed, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let spec = FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST);
    let specs = vec![spec.with_tags(tags); 9];
    let epoch = epoch_width(ctx);
    let hub = Hub::shared(HubConfig {
        epoch,
        trace_sample: None,
    });
    let report = ctx.run_gups(FabricSim::with_telemetry(cfg, specs, Probe::attached(&hub)));
    let hub = hub.borrow();
    let epoch_ps = hub.epoch_ps() as f64;
    let rows = hub
        .epochs()
        .iter()
        .enumerate()
        .map(|(e, ep)| EpochRow {
            epoch: e,
            completed: ep.completed,
            // bytes per picosecond is terabytes per second.
            bandwidth_gbs: ep.bytes as f64 / epoch_ps * 1000.0,
            mean_latency_ns: if ep.completed == 0 {
                0.0
            } else {
                ep.latency_ps as f64 / ep.completed as f64 / 1000.0
            },
        })
        .collect();
    let source_tails = report
        .ports
        .iter()
        .filter_map(|p| Some((u16::from(p.port.0), p.latency.tail_ps()?)))
        .collect();
    let cube_tails = report
        .cubes
        .iter()
        .filter_map(|c| Some((c.cube.0, report.cube_latency(c.cube).tail_ps()?)))
        .collect();
    TimelinePoint {
        label,
        tags,
        epoch_us: epoch_ps / 1e6,
        rows,
        source_tails,
        cube_tails,
    }
}

/// Runs the two knee endpoints. Serial on purpose: each point owns a
/// single-threaded telemetry hub, and two runs don't need a sweep.
pub fn run(ctx: &ExpContext) -> Vec<TimelinePoint> {
    vec![
        run_point(ctx, "low", 2),
        run_point(ctx, "saturated", hmc_sim::GUPS_TAGS),
    ]
}

/// The per-epoch bandwidth/latency timeline table.
pub fn timeline_table(points: &[TimelinePoint]) -> Table {
    let mut t = Table::new([
        "point",
        "epoch",
        "t (us)",
        "completed",
        "bandwidth (GB/s)",
        "mean latency (ns)",
    ]);
    for p in points {
        for r in &p.rows {
            t.row([
                p.label.to_owned(),
                r.epoch.to_string(),
                format!("{:.1}", r.epoch as f64 * p.epoch_us),
                r.completed.to_string(),
                format!("{:.3}", r.bandwidth_gbs),
                format!("{:.1}", r.mean_latency_ns),
            ]);
        }
    }
    t
}

/// The latency-percentile table: one row per source port and per cube.
pub fn percentile_table(points: &[TimelinePoint]) -> Table {
    let mut t = Table::new(["point", "group", "id", "p50 (ns)", "p99 (ns)", "p999 (ns)"]);
    let ns = |ps: u64| format!("{:.3}", ps as f64 / 1000.0);
    for p in points {
        for &(port, [p50, p99, p999]) in &p.source_tails {
            t.row([
                p.label.to_owned(),
                "port".to_owned(),
                port.to_string(),
                ns(p50),
                ns(p99),
                ns(p999),
            ]);
        }
        for &(cube, [p50, p99, p999]) in &p.cube_tails {
            t.row([
                p.label.to_owned(),
                "cube".to_owned(),
                cube.to_string(),
                ns(p50),
                ns(p99),
                ns(p999),
            ]);
        }
    }
    t
}

/// One designated saturated run with the sampled packet tracer on.
/// Returns `(chrome_trace_json, traced_slices)`. This is an *extra* run —
/// the sweep outputs of whatever experiments were requested are not
/// perturbed by tracing.
pub fn traced_run(ctx: &ExpContext, sample: u64) -> (String, usize) {
    let seed = ctx.seed_for("ext-timeline", 9);
    let cfg = FabricConfig::chain(seed, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    let hub = Hub::shared(HubConfig {
        epoch: epoch_width(ctx),
        trace_sample: Some(sample.max(1)),
    });
    let _ = ctx.run_gups(FabricSim::with_telemetry(cfg, specs, Probe::attached(&hub)));
    let hub = hub.borrow();
    (hub.trace_json(), hub.traced_slices())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    fn smoke(threads: usize) -> ExpContext {
        ExpContext {
            scale: Scale::Smoke,
            seed: 77,
            threads,
            domains: 1,
            stats: Default::default(),
        }
    }

    #[test]
    fn knee_shows_in_the_timelines() {
        let points = run(&smoke(0));
        assert_eq!(points.len(), 2);
        let (low, sat) = (&points[0], &points[1]);
        assert!(low.rows.len() >= 2, "low point spans epochs");
        assert!(sat.rows.len() >= 2, "saturated point spans epochs");
        // Saturation: more bandwidth and a fatter latency tail.
        let peak = |p: &TimelinePoint| {
            p.rows
                .iter()
                .map(|r| r.bandwidth_gbs)
                .fold(0.0f64, f64::max)
        };
        assert!(peak(sat) > 2.0 * peak(low));
        let p99 = |p: &TimelinePoint| p.cube_tails[0].1[1];
        assert!(p99(sat) > p99(low));
        // Tails are ordered within every sketch.
        for p in &points {
            for &(_, [a, b, c]) in &p.source_tails {
                assert!(a <= b && b <= c);
            }
            for &(_, [a, b, c]) in &p.cube_tails {
                assert!(a <= b && b <= c);
            }
        }
        assert_eq!(sat.source_tails.len(), 9);
    }

    #[test]
    fn rendered_tables_are_thread_invariant() {
        let a = run(&smoke(1));
        let b = run(&smoke(2));
        assert_eq!(timeline_table(&a).to_ascii(), timeline_table(&b).to_ascii());
        assert_eq!(
            percentile_table(&a).to_ascii(),
            percentile_table(&b).to_ascii()
        );
    }

    #[test]
    fn traced_run_emits_valid_chrome_json() {
        let (json, slices) = traced_run(&smoke(0), 32);
        assert!(slices > 0, "sampling captured packets");
        hmc_sim::stats::validate_json(&json).expect("well-formed trace JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
