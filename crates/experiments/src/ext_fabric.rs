//! Extension experiments on multi-cube memory networks.
//!
//! - **Ext-chain**: latency and bandwidth versus hop count on a daisy
//!   chain of 1–8 cubes, the configuration the paper's companion study
//!   ("Demystifying the Characteristics of 3D-Stacked Memories", ISPASS
//!   2017) measures on chaining-capable silicon. Unloaded read latency
//!   must grow monotonically with hop count: every hop adds a
//!   pass-through crossbar traversal and a link flight in each direction.
//! - **Ext-star**: near/far vault locality under a star of four cubes —
//!   the hub (cube 0) is one crossbar away while the leaves sit behind a
//!   fabric hop, so the same vault-level access pattern costs measurably
//!   more on a leaf, and hub-bound and leaf-bound traffic contend in the
//!   hub's pass-through crossbar.

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim};
use hmc_sim::prelude::*;

use crate::common::{ExpContext, Scale};

/// One point of the chain sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPoint {
    /// Cubes in the chain.
    pub cubes: u8,
    /// Fabric hops between host cube and target cube.
    pub hops: u32,
    /// Unloaded read round trip to the far cube, ns.
    pub unloaded_ns: f64,
    /// Mean latency under nine saturating GUPS ports, µs.
    pub loaded_us: f64,
    /// Counted bidirectional bandwidth under the same load, GB/s.
    pub bandwidth_gbs: f64,
}

/// The cube counts a context sweeps.
pub(crate) fn chain_lengths(ctx: &ExpContext) -> Vec<u8> {
    match ctx.scale {
        Scale::Smoke => vec![1, 2, 4],
        Scale::Quick | Scale::Full => (1..=8).collect(),
    }
}

/// Runs the chain sweep: all traffic targets the cube at the far end.
pub(crate) fn chain(ctx: &ExpContext) -> Vec<ChainPoint> {
    chain_for_lengths(ctx, chain_lengths(ctx))
}

/// Runs the chain experiment for an explicit list of chain lengths — the
/// scale-driven sweep restricted to chosen points (used by the scheduler
/// determinism regression, which replays the 4-cube chain alone).
pub(crate) fn chain_for_lengths(ctx: &ExpContext, lengths: Vec<u8>) -> Vec<ChainPoint> {
    let ctx = ctx.clone();
    ctx.clone().par_map(lengths, move |&n| {
        // Unloaded: one read in flight at a time, via a stream port.
        let cfg = FabricConfig::chain(ctx.seed_for("ext-chain", u64::from(n)), n);
        let trace = hmc_sim::workloads::random_reads_in_banks(
            &cfg.cube.map,
            VaultId(0),
            16,
            PayloadSize::B64,
            1,
            ctx.seed_for("ext-chain-unloaded", u64::from(n)),
        );
        let sim = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(n - 1))]);
        let unloaded = ctx.run_streams(sim).mean_latency_ns();

        let report = ctx.run_gups(chain_loaded_sim(&ctx, n));

        ChainPoint {
            cubes: n,
            hops: u32::from(n - 1),
            unloaded_ns: unloaded,
            loaded_us: report.mean_latency_us(),
            bandwidth_gbs: report.total_bandwidth_gbs(),
        }
    })
}

/// Builds the loaded run of an `n`-cube chain, unrun: nine GUPS ports of
/// 128 B reads over all vaults of the far cube.
pub fn chain_loaded_sim(ctx: &ExpContext, n: u8) -> FabricSim {
    let cfg = FabricConfig::chain(ctx.seed_for("ext-chain", u64::from(n)), n);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let far = CubeId(n - 1);
    let specs = vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), far); 9];
    FabricSim::new(cfg, specs)
}

/// Renders the chain sweep.
pub(crate) fn chain_table(points: &[ChainPoint]) -> Table {
    let mut t = Table::new([
        "cubes",
        "hops",
        "unloaded latency (ns)",
        "loaded latency (us)",
        "bandwidth (GB/s)",
    ]);
    for p in points {
        t.row([
            p.cubes.to_string(),
            p.hops.to_string(),
            format!("{:.0}", p.unloaded_ns),
            format!("{:.3}", p.loaded_us),
            format!("{:.2}", p.bandwidth_gbs),
        ]);
    }
    t
}

/// One row of the star experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct StarPoint {
    /// The target cube.
    pub cube: u8,
    /// Fabric hops from the host to it.
    pub hops: u32,
    /// Unloaded read round trip, ns.
    pub unloaded_ns: f64,
    /// Mean latency of this cube's ports with all cubes loaded, µs.
    pub loaded_us: f64,
    /// Bandwidth moved by this cube's ports in the loaded run, GB/s.
    pub bandwidth_gbs: f64,
}

/// Cubes in the star experiment (hub + three leaves).
pub const STAR_CUBES: u8 = 4;

/// Runs the star experiment: per-cube unloaded probes, then one loaded
/// run with two GUPS ports per cube so near (hub) and far (leaf) traffic
/// contend in the hub's pass-through crossbar.
pub(crate) fn star(ctx: &ExpContext) -> Vec<StarPoint> {
    let seed = ctx.seed_for("ext-star", 0);
    let routes = FabricConfig::ac510(Topology::Star, STAR_CUBES, seed).routes();

    // Unloaded probes, one per target cube.
    let ctx2 = ctx.clone();
    let unloaded: Vec<f64> = ctx.clone().par_map((0..STAR_CUBES).collect(), move |&c| {
        let cfg = FabricConfig::ac510(Topology::Star, STAR_CUBES, ctx2.seed_for("ext-star", 1));
        let trace = hmc_sim::workloads::random_reads_in_banks(
            &cfg.cube.map,
            VaultId(0),
            16,
            PayloadSize::B64,
            1,
            ctx2.seed_for("ext-star-unloaded", u64::from(c)),
        );
        let sim = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(c))]);
        ctx2.run_streams(sim).mean_latency_ns()
    });

    // Loaded: two 128 B GUPS ports per cube, all vaults.
    let cfg = FabricConfig::ac510(Topology::Star, STAR_CUBES, seed);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs: Vec<FabricPortSpec> = (0..STAR_CUBES)
        .flat_map(|c| {
            vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId(c)); 2]
        })
        .collect();
    let report = ctx.run_gups(FabricSim::new(cfg, specs));

    (0..STAR_CUBES)
        .map(|c| StarPoint {
            cube: c,
            hops: routes.hops(CubeId(0), CubeId(c)),
            unloaded_ns: unloaded[usize::from(c)],
            loaded_us: report.cube_latency(CubeId(c)).mean_ns() / 1e3,
            bandwidth_gbs: report.cube_bandwidth_gbs(CubeId(c)),
        })
        .collect()
}

/// Renders the star experiment.
pub(crate) fn star_table(points: &[StarPoint]) -> Table {
    let mut t = Table::new([
        "cube",
        "hops",
        "unloaded latency (ns)",
        "loaded latency (us)",
        "bandwidth (GB/s)",
    ]);
    for p in points {
        t.row([
            format!("cube{}{}", p.cube, if p.cube == 0 { " (hub)" } else { "" }),
            p.hops.to_string(),
            format!("{:.0}", p.unloaded_ns),
            format!("{:.3}", p.loaded_us),
            format!("{:.2}", p.bandwidth_gbs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_latency_grows_monotonically_with_hops() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 30,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let points = chain(&ctx);
        assert_eq!(points.len(), 3);
        for pair in points.windows(2) {
            assert!(
                pair[1].unloaded_ns > pair[0].unloaded_ns,
                "unloaded latency must grow with hops: {:?}",
                points
            );
            assert!(
                pair[1].loaded_us > 0.0 && pair[1].bandwidth_gbs > 0.0,
                "loaded run produced no traffic"
            );
        }
        // The per-hop increment is at least two SerDes flights (~110 ns).
        let d = points[1].unloaded_ns - points[0].unloaded_ns;
        assert!(d > 110.0, "first hop adds only {d} ns");
    }

    #[test]
    fn ext_chain_rendering_is_byte_identical_across_runs() {
        // Guards the two-level scheduler swap: the 4-cube ext-chain point
        // (host wakeups, transit crossbars, fabric links, credit
        // notifications all active) must render to byte-identical JSON on
        // every run. Any hidden ordering or iteration nondeterminism in
        // the engine, the timer wheel, or the wake bookkeeping would
        // perturb latencies and break this.
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 2018,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let a = chain_table(&chain_for_lengths(&ctx, vec![4])).to_json();
        let b = chain_table(&chain_for_lengths(&ctx, vec![4])).to_json();
        assert_eq!(a, b, "ext-chain (4 cubes) must replay byte-identically");
        assert!(a.contains("\"rows\""), "rendering produced real rows");
    }

    #[test]
    fn star_leaves_are_slower_than_the_hub() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 31,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let points = star(&ctx);
        assert_eq!(points.len(), usize::from(STAR_CUBES));
        let hub = &points[0];
        assert_eq!(hub.hops, 0);
        for leaf in &points[1..] {
            assert_eq!(leaf.hops, 1);
            assert!(
                leaf.unloaded_ns > hub.unloaded_ns + 110.0,
                "leaf {leaf:?} not a hop slower than hub {hub:?}"
            );
            assert!(
                leaf.loaded_us > hub.loaded_us,
                "loaded leaf latency must exceed hub: {leaf:?} vs {hub:?}"
            );
        }
    }

    #[test]
    fn tables_have_one_row_per_point() {
        let p = ChainPoint {
            cubes: 2,
            hops: 1,
            unloaded_ns: 900.0,
            loaded_us: 2.0,
            bandwidth_gbs: 20.0,
        };
        assert_eq!(chain_table(&[p]).len(), 1);
        let s = StarPoint {
            cube: 0,
            hops: 0,
            unloaded_ns: 700.0,
            loaded_us: 1.5,
            bandwidth_gbs: 10.0,
        };
        let t = star_table(&[s]);
        assert_eq!(t.len(), 1);
        assert!(t.to_ascii().contains("hub"));
    }
}
