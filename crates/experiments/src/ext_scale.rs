//! Ext-scale: scale-out past the spec's 8-cube ceiling — {8, 16, 32, 64}
//! cubes in chain, ring and 2-D mesh fabrics under interleaved GUPS.
//!
//! The source paper's thesis is that the NoC, not the DRAM, governs
//! 3D-stacked memory performance; its companion silicon study could only
//! chain up to the 3-bit CUB field's 8 cubes. With the CUB field widened
//! to 6 bits (`DESIGN_CUB64.md`) this sweep asks the scale-out question
//! directly: as the same uniformly interleaved footprint spreads over
//! more cubes, how do the linear-diameter topologies (chain: n−1 hops,
//! ring: n/2) decay compared to the constant-degree mesh (diameter
//! `w+h−2`, 14 at 64 cubes)? Every point drives the host links with the
//! same closed-loop GUPS streams, so bandwidth differences isolate the
//! fabric: hop latency inflates round trips, transit contention eats the
//! shared links near the host, and the per-cube attribution confirms the
//! interleaved map really reaches all 64 cubes.

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim, RouteTable, Topology};
use hmc_sim::prelude::*;

use crate::common::{ExpContext, Scale};

/// GUPS ports driving each run (the AC-510 firmware's nine would drown
/// the 64-cube points in host-link serialization; four keeps the sweep
/// fabric-bound at every size).
pub const PORTS: usize = 4;

/// The topologies the sweep compares. Star is excluded by construction:
/// a 64-cube hub exceeds the 64-port crossbar ceiling
/// ([`FabricConfig::validate`]).
pub(crate) fn topologies() -> [Topology; 3] {
    [Topology::Chain, Topology::Ring, Topology::Mesh2D]
}

/// Cube counts the sweep probes — powers of two up to the widened CUB
/// field's 64.
pub(crate) fn cube_counts(ctx: &ExpContext) -> Vec<u8> {
    match ctx.scale {
        Scale::Smoke => vec![8, 64],
        Scale::Quick | Scale::Full => vec![8, 16, 32, 64],
    }
}

/// One measured point of the scale-out sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Fabric topology.
    pub topology: Topology,
    /// Cubes in the fabric.
    pub cubes: u8,
    /// Fabric diameter: the longest shortest-path between any cube pair.
    pub diameter: u32,
    /// Counted bidirectional bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Mean request latency, µs.
    pub latency_us: f64,
    /// Cubes whose devices completed at least one recorded request.
    pub cubes_hit: usize,
    /// Share of recorded completions that terminated at cube 0 (%).
    pub cube0_share: f64,
}

/// Builds one point of the sweep, unrun: [`PORTS`] interleaved GUPS
/// ports of 128 B reads over a `cubes`-cube `topology`.
pub fn sim(ctx: &ExpContext, topology: Topology, cubes: u8) -> FabricSim {
    let topo_idx = topologies()
        .iter()
        .position(|&t| t == topology)
        .expect("sweep topology") as u64;
    let seed = ctx.seed_for("ext-scale", (u64::from(cubes) << 8) | topo_idx);
    let cfg = FabricConfig::ac510(topology, cubes, seed);
    let fabric_map = FabricAddressMap::new(CubePolicy::Interleaved, cubes, &cfg.cube.map);
    // One cube's worth of address space, interleaved: the identical
    // footprint spreads across however many cubes the fabric has.
    let spec = FabricPortSpec::global_gups(GupsOp::Read(PayloadSize::B128), fabric_map);
    FabricSim::new(cfg, vec![spec; PORTS])
}

fn run_point(ctx: &ExpContext, topology: Topology, cubes: u8) -> ScalePoint {
    let routes = RouteTable::for_topology(topology, cubes);
    let diameter = CubeId::all(cubes)
        .flat_map(|a| CubeId::all(cubes).map(move |b| (a, b)))
        .map(|(a, b)| routes.hops(a, b))
        .max()
        .unwrap_or(0);
    let report = ctx.run_gups(sim(ctx, topology, cubes));
    let total: u64 = CubeId::all(cubes).map(|c| report.cube_completions(c)).sum();
    ScalePoint {
        topology,
        cubes,
        diameter,
        bandwidth_gbs: report.total_bandwidth_gbs(),
        latency_us: report.mean_latency_us(),
        cubes_hit: report.cubes_hit(),
        cube0_share: if total > 0 {
            report.cube_completions(CubeId::HOST) as f64 * 100.0 / total as f64
        } else {
            0.0
        },
    }
}

/// Runs the sweep: every topology at every cube count.
pub(crate) fn run(ctx: &ExpContext) -> Vec<ScalePoint> {
    let ctx2 = ctx.clone();
    let mut jobs: Vec<(Topology, u8)> = Vec::new();
    for topology in topologies() {
        for &n in &cube_counts(ctx) {
            jobs.push((topology, n));
        }
    }
    ctx.clone()
        .par_map(jobs, move |&(topology, n)| run_point(&ctx2, topology, n))
}

/// Renders the sweep.
pub(crate) fn table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new([
        "topology",
        "cubes",
        "diameter",
        "bandwidth (GB/s)",
        "latency (us)",
        "cubes hit",
        "cube0 share (%)",
    ]);
    for p in points {
        t.row([
            p.topology.label().to_owned(),
            p.cubes.to_string(),
            p.diameter.to_string(),
            format!("{:.2}", p.bandwidth_gbs),
            format!("{:.3}", p.latency_us),
            p.cubes_hit.to_string(),
            format!("{:.1}", p.cube0_share),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(domains: usize) -> ExpContext {
        ExpContext {
            scale: Scale::Smoke,
            seed: 2018,
            threads: 0,
            domains,
            stats: Default::default(),
        }
    }

    #[test]
    fn interleaving_reaches_every_cube_at_every_size() {
        let points = run(&smoke(1));
        assert_eq!(points.len(), 6, "3 topologies x 2 smoke sizes");
        for p in &points {
            assert!(p.bandwidth_gbs > 0.0, "no traffic: {p:?}");
            assert_eq!(
                p.cubes_hit,
                usize::from(p.cubes),
                "interleaving must reach every cube: {p:?}"
            );
            // A uniform draw leaves cube 0 roughly 1/n of the completions.
            assert!(
                p.cube0_share < 100.0 / f64::from(p.cubes) + 15.0,
                "cube 0 over-represented: {p:?}"
            );
            let expected_diameter = match (p.topology, p.cubes) {
                (Topology::Chain, n) => u32::from(n) - 1,
                (Topology::Ring, n) => u32::from(n) / 2,
                (Topology::Mesh2D, 8) => 4,   // 2×4 grid
                (Topology::Mesh2D, 64) => 14, // 8×8 grid
                other => panic!("unexpected point {other:?}"),
            };
            assert_eq!(p.diameter, expected_diameter, "{p:?}");
        }
        // The mesh's constant degree must beat the chain's linear
        // diameter where it matters: the 64-cube points.
        let find = |t: Topology| points.iter().find(|p| p.topology == t && p.cubes == 64);
        let (chain, mesh) = (
            find(Topology::Chain).unwrap(),
            find(Topology::Mesh2D).unwrap(),
        );
        assert!(
            mesh.latency_us < chain.latency_us,
            "64-cube mesh must undercut the chain: {mesh:?} vs {chain:?}"
        );
    }

    #[test]
    fn scale_is_byte_identical_across_domains_and_threads() {
        let render = |threads: usize, domains: usize| {
            let ctx = ExpContext {
                scale: Scale::Smoke,
                seed: 2018,
                threads,
                domains,
                stats: Default::default(),
            };
            table(&run(&ctx)).to_json()
        };
        let baseline = render(0, 1);
        assert!(baseline.contains("\"rows\""), "rendering produced rows");
        for (threads, domains) in [(1, 1), (2, 2), (0, 8), (1, 8)] {
            assert_eq!(
                baseline,
                render(threads, domains),
                "threads={threads} domains={domains} diverged"
            );
        }
    }

    #[test]
    fn table_has_one_row_per_point() {
        let p = ScalePoint {
            topology: Topology::Mesh2D,
            cubes: 64,
            diameter: 14,
            bandwidth_gbs: 10.0,
            latency_us: 2.0,
            cubes_hit: 64,
            cube0_share: 1.6,
        };
        let t = table(&[p]);
        assert_eq!(t.len(), 1);
        assert!(t.to_ascii().contains("mesh"));
    }
}
