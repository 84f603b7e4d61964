//! Ext-mixed: closed-loop pointer-chase walkers under open-loop GUPS
//! background load — the mixed contention study.
//!
//! The companion study's key diagnostic (a dependent-read chase, where no
//! overlap hides the round trip) is run here *while* GUPS ports hammer
//! the same far cube of a chain. Every chase hop must cross the same
//! pass-through crossbars and cube-to-cube links the background load
//! saturates, so the chase's mean latency directly measures the queueing
//! the NoC adds under load — per source, via
//! [`RunReport::source_summary`], since the chase and the GUPS ports
//! share one fabric but report separately.

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim};
use hmc_sim::prelude::*;
use hmc_sim::workloads::PointerChase;

use crate::common::{ExpContext, Scale};

/// Cubes in the chain (the chase and the background load both target the
/// far cube).
pub fn chain_cubes(ctx: &ExpContext) -> u8 {
    match ctx.scale {
        Scale::Smoke => 2,
        Scale::Quick | Scale::Full => 4,
    }
}

/// Background GUPS port counts the sweep probes.
pub fn background_ports(ctx: &ExpContext) -> Vec<usize> {
    match ctx.scale {
        Scale::Smoke => vec![0, 4],
        Scale::Quick | Scale::Full => vec![0, 2, 4, 8],
    }
}

/// Chase walkers on the probe port.
pub const WALKERS: u16 = 2;

/// One measured point of the mixed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedPoint {
    /// Background GUPS ports running alongside the chase.
    pub background: usize,
    /// Chase reads completed inside the measurement window.
    pub chase_reads: u64,
    /// Mean dependent-read round trip of the chase, ns.
    pub chase_latency_ns: f64,
    /// Mean latency of the background GUPS requests, µs (0 with no
    /// background).
    pub gups_latency_us: f64,
    /// Bidirectional bandwidth moved by the background ports, GB/s.
    pub gups_bandwidth_gbs: f64,
}

/// Runs the sweep: one chase port plus 0..N background GUPS ports, all
/// targeting the far cube of the chain.
pub fn run(ctx: &ExpContext) -> Vec<MixedPoint> {
    let ctx2 = ctx.clone();
    let cubes = chain_cubes(ctx);
    ctx.clone().par_map(background_ports(ctx), move |&bg| {
        let cfg = FabricConfig::chain(ctx2.seed_for("ext-mixed", bg as u64), cubes);
        let far = CubeId(cubes - 1);
        let map = cfg.cube.map;
        let vaults: Vec<VaultId> = (0..map.geometry().vaults).map(VaultId).collect();
        // Effectively unbounded: the measurement window, not the hop
        // budget, ends the chase.
        let hops = u64::MAX / 2;
        let chase = FabricPortSpec::from_source(
            move |seed| {
                Box::new(PointerChase::new(
                    &map,
                    &vaults,
                    PayloadSize::B64,
                    WALKERS,
                    hops,
                    seed,
                ))
            },
            far,
        )
        .with_tags(WALKERS);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
        let mut specs = vec![chase];
        specs.extend(vec![
            FabricPortSpec::gups(
                filter,
                GupsOp::Read(PayloadSize::B128),
                far
            );
            bg
        ]);
        let report = ctx2.run_gups(FabricSim::new(cfg, specs));
        let mut point = MixedPoint {
            background: bg,
            chase_reads: 0,
            chase_latency_ns: 0.0,
            gups_latency_us: 0.0,
            gups_bandwidth_gbs: 0.0,
        };
        for (label, _issued, _completed, latency) in report.source_summary() {
            match label {
                "chase" => {
                    point.chase_reads = latency.count();
                    point.chase_latency_ns = latency.mean_ns();
                }
                "gups" => {
                    point.gups_latency_us = latency.mean_ns() / 1e3;
                }
                _ => {}
            }
        }
        point.gups_bandwidth_gbs = report.source_bandwidth_gbs("gups");
        point
    })
}

/// Renders the sweep.
pub fn table(points: &[MixedPoint]) -> Table {
    let mut t = Table::new([
        "background ports",
        "chase reads",
        "chase latency (ns)",
        "gups latency (us)",
        "gups bandwidth (GB/s)",
    ]);
    for p in points {
        t.row([
            p.background.to_string(),
            p.chase_reads.to_string(),
            format!("{:.0}", p.chase_latency_ns),
            format!("{:.3}", p.gups_latency_us),
            format!("{:.2}", p.gups_bandwidth_gbs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExpContext {
        ExpContext {
            scale: Scale::Smoke,
            seed: 2018,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        }
    }

    #[test]
    fn background_load_slows_the_chase() {
        let points = run(&smoke());
        assert_eq!(points.len(), 2);
        let unloaded = &points[0];
        let loaded = &points[points.len() - 1];
        assert_eq!(unloaded.background, 0);
        assert!(unloaded.chase_reads > 0, "chase moved: {unloaded:?}");
        assert_eq!(
            unloaded.gups_bandwidth_gbs, 0.0,
            "no background, no gups traffic"
        );
        assert!(loaded.gups_bandwidth_gbs > 0.0, "{loaded:?}");
        assert!(
            loaded.chase_latency_ns > unloaded.chase_latency_ns,
            "contention must slow the dependent chase: {points:?}"
        );
        assert!(
            loaded.chase_reads < unloaded.chase_reads,
            "a slower chase completes fewer hops in the window: {points:?}"
        );
    }

    #[test]
    fn mixed_is_byte_identical_across_runs_and_thread_counts() {
        let render = |threads: usize| {
            let ctx = ExpContext {
                scale: Scale::Smoke,
                seed: 2018,
                threads,
                domains: 1,
                stats: Default::default(),
            };
            table(&run(&ctx)).to_json()
        };
        let a = render(0);
        let b = render(0);
        let serial = render(1);
        assert_eq!(a, b, "ext-mixed must replay byte-identically");
        assert_eq!(a, serial, "thread count must not affect results");
        assert!(a.contains("\"rows\""), "rendering produced real rows");
    }

    #[test]
    fn table_has_one_row_per_point() {
        let p = MixedPoint {
            background: 4,
            chase_reads: 100,
            chase_latency_ns: 1500.0,
            gups_latency_us: 3.0,
            gups_bandwidth_gbs: 12.0,
        };
        assert_eq!(table(&[p]).len(), 1);
    }
}
