//! Probe-chase: pointer-chasing latency probes over memory networks.
//!
//! The companion study ("Demystifying the Characteristics of 3D-Stacked
//! Memories", ISPASS 2017) uses pointer chasing as its key latency
//! diagnostic: every access depends on the previous one's *data*, so no
//! overlap hides the round trip. The closed-loop [`PointerChase`] source
//! reproduces that probe on the simulated stack:
//!
//! - **Chain sweep** — a single walker chases through the far cube of a
//!   1–8 cube daisy chain: the per-hop latency penalty of memory-network
//!   depth, measured the way silicon would measure it.
//! - **Walker sweep** — N concurrent walkers on one cube: how much
//!   memory-level parallelism the stack can actually overlap before
//!   chains start queueing on each other (the MLP curve).

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim};
use hmc_sim::prelude::*;
use hmc_sim::workloads::PointerChase;

use crate::common::{parallel_map_with_threads, ExpContext, Scale};
use crate::ext_fabric::chain_lengths;

/// Dependent reads per walker in a chase run.
pub fn chain_len(ctx: &ExpContext) -> u64 {
    match ctx.scale {
        Scale::Smoke => 24,
        Scale::Quick => 64,
        Scale::Full => 256,
    }
}

/// One point of the chain sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainChasePoint {
    /// Cubes in the chain.
    pub cubes: u8,
    /// Fabric hops between the host cube and the probed cube.
    pub hops: u32,
    /// Mean dependent-read round trip, ns (single walker: unloaded).
    pub latency_ns: f64,
    /// Reads completed by the probe.
    pub reads: u64,
}

/// Runs the chain sweep: one walker chasing through the far cube.
pub fn chain(ctx: &ExpContext) -> Vec<ChainChasePoint> {
    chain_with_threads(ctx, ctx.threads)
}

/// The chain sweep with an explicit worker-thread count (`0` = all
/// cores) — exercised by the cross-thread determinism regression.
pub fn chain_with_threads(ctx: &ExpContext, threads: usize) -> Vec<ChainChasePoint> {
    let ctx = ctx.clone();
    let hops = chain_len(&ctx);
    parallel_map_with_threads(chain_lengths(&ctx), threads, move |&n| {
        let far = CubeId(n - 1);
        let cfg = FabricConfig::chain(ctx.seed_for("probe-chase", u64::from(n)), n);
        let map = cfg.cube.map;
        let vaults: Vec<VaultId> = (0..map.geometry().vaults).map(VaultId).collect();
        let seed = ctx.seed_for("probe-chase-walk", u64::from(n));
        let spec = FabricPortSpec::from_source(
            move |_| {
                Box::new(PointerChase::new(
                    &map,
                    &vaults,
                    PayloadSize::B64,
                    1,
                    hops,
                    seed,
                ))
            },
            far,
        );
        let report = ctx.run_streams(FabricSim::new(cfg, vec![spec]));
        ChainChasePoint {
            cubes: n,
            hops: u32::from(n - 1),
            latency_ns: report.mean_latency_ns(),
            reads: report.total_reads(),
        }
    })
}

/// Renders the chain sweep.
pub fn chain_table(points: &[ChainChasePoint]) -> Table {
    let mut t = Table::new(["cubes", "hops", "chase latency (ns)", "reads"]);
    for p in points {
        t.row([
            p.cubes.to_string(),
            p.hops.to_string(),
            format!("{:.0}", p.latency_ns),
            p.reads.to_string(),
        ]);
    }
    t
}

/// One point of the walker (memory-level-parallelism) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkerPoint {
    /// Concurrent walkers.
    pub walkers: u16,
    /// Mean dependent-read round trip, ns.
    pub latency_ns: f64,
    /// Aggregate chase throughput, million dependent reads per second.
    pub mreads_per_s: f64,
}

/// Walker counts the context sweeps.
pub fn walker_counts(ctx: &ExpContext) -> Vec<u16> {
    match ctx.scale {
        Scale::Smoke => vec![1, 4, 16],
        Scale::Quick | Scale::Full => vec![1, 2, 4, 8, 16, 32, 64],
    }
}

/// Runs the walker sweep on a single cube: every walker chases all
/// vaults, `chain_len` hops each.
pub fn walkers(ctx: &ExpContext) -> Vec<WalkerPoint> {
    let ctx = ctx.clone();
    parallel_map_with_threads(walker_counts(&ctx), ctx.threads, move |&w| {
        let report = ctx.run_streams(walkers_sim(&ctx, w));
        let reads = report.total_reads();
        let elapsed_ps = report.elapsed.as_ps() as f64;
        WalkerPoint {
            walkers: w,
            latency_ns: report.mean_latency_ns(),
            mreads_per_s: if elapsed_ps > 0.0 {
                reads as f64 * 1e6 / elapsed_ps
            } else {
                0.0
            },
        }
    })
}

/// Builds one point of the walker sweep, unrun: `w` walkers on one cube,
/// each chasing all vaults for [`chain_len`] hops.
pub fn walkers_sim(ctx: &ExpContext, w: u16) -> FabricSim {
    let cfg = FabricConfig::chain(ctx.seed_for("probe-chase-mlp", u64::from(w)), 1);
    let map = cfg.cube.map;
    let vaults: Vec<VaultId> = (0..map.geometry().vaults).map(VaultId).collect();
    let hops = chain_len(ctx);
    let spec = FabricPortSpec::from_source(
        move |seed| {
            Box::new(PointerChase::new(
                &map,
                &vaults,
                PayloadSize::B64,
                w,
                hops,
                seed,
            ))
        },
        CubeId::HOST,
    )
    .with_tags(w.max(1));
    FabricSim::new(cfg, vec![spec])
}

/// Renders the walker sweep.
pub fn walker_table(points: &[WalkerPoint]) -> Table {
    let mut t = Table::new(["walkers", "chase latency (ns)", "throughput (M deps/s)"]);
    for p in points {
        t.row([
            p.walkers.to_string(),
            format!("{:.0}", p.latency_ns),
            format!("{:.2}", p.mreads_per_s),
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
    fn chase_latency_is_monotone_in_chain_hop_count() {
        let points = chain(&smoke());
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.reads, chain_len(&smoke()), "every hop completed");
        }
        for pair in points.windows(2) {
            assert!(
                pair[1].latency_ns > pair[0].latency_ns,
                "chase latency must grow with hop count: {points:?}"
            );
        }
        // Each hop costs at least two extra SerDes flights (~110 ns).
        let d = points[1].latency_ns - points[0].latency_ns;
        assert!(d > 110.0, "first hop adds only {d} ns");
    }

    #[test]
    fn chain_probe_is_byte_identical_across_runs_and_thread_counts() {
        // The closed-loop pipeline must replay byte-identically: two runs
        // on all cores, and one on a single worker, must render to the
        // same JSON. Any ordering nondeterminism in feedback delivery or
        // the sweep scheduling would perturb latencies and break this.
        let a = chain_table(&chain_with_threads(&smoke(), 0)).to_json();
        let b = chain_table(&chain_with_threads(&smoke(), 0)).to_json();
        let serial = chain_table(&chain_with_threads(&smoke(), 1)).to_json();
        assert_eq!(a, b, "probe-chase must replay byte-identically");
        assert_eq!(a, serial, "thread count must not affect results");
        assert!(a.contains("\"rows\""), "rendering produced real rows");
    }

    #[test]
    fn walkers_trade_latency_for_throughput() {
        let points = walkers(&smoke());
        assert_eq!(points.len(), 3);
        let first = &points[0];
        let last = &points[points.len() - 1];
        assert!(
            last.mreads_per_s > first.mreads_per_s,
            "more walkers must raise aggregate chase throughput: {points:?}"
        );
        assert!(
            last.latency_ns >= first.latency_ns * 0.98,
            "per-read latency must not shrink under contention: {points:?}"
        );
    }

    #[test]
    fn tables_have_one_row_per_point() {
        let c = ChainChasePoint {
            cubes: 2,
            hops: 1,
            latency_ns: 900.0,
            reads: 64,
        };
        assert_eq!(chain_table(&[c]).len(), 1);
        let w = WalkerPoint {
            walkers: 4,
            latency_ns: 800.0,
            mreads_per_s: 5.0,
        };
        assert_eq!(walker_table(&[w]).len(), 1);
    }
}
