//! Ext-intercube: address-interleaved cube targeting under blocked vs
//! interleaved fabric address maps.
//!
//! With CUB bits derived from the address (instead of a static per-port
//! cube), one request stream can finally exercise the inter-cube NoC
//! paths the way real chained HMCs do (Hadidi et al., ISPASS 2017). This
//! experiment runs the *same* GUPS draws — uniform random over a
//! one-cube-sized global window — under the two [`CubePolicy`] maps:
//!
//! - **blocked**: the window is exactly cube 0's address range, so every
//!   request terminates at the host-attached cube and the rest of the
//!   fabric idles;
//! - **interleaved**: the cube bits sit just above the block offset, so
//!   the very same footprint spreads over *all* cubes — every remote
//!   request pays pass-through crossbars and cube-to-cube links, and the
//!   per-cube device counters show the spread.
//!
//! The contrast isolates what address interleaving buys (and costs) on a
//! memory network: aggregate bank parallelism across cubes versus fabric
//! hop latency and transit contention on the shared host links.

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim, Topology};
use hmc_sim::prelude::*;

use crate::common::{ExpContext, Scale};

/// GUPS ports driving each run.
pub fn port_count(ctx: &ExpContext) -> usize {
    match ctx.scale {
        Scale::Smoke => 4,
        Scale::Quick | Scale::Full => 9,
    }
}

/// Cube counts the sweep probes. Powers of two only: the interleaved
/// cube field must be dense for a uniform draw to stay in range.
pub fn cube_counts(ctx: &ExpContext) -> Vec<u8> {
    match ctx.scale {
        Scale::Smoke => vec![2, 4],
        Scale::Quick | Scale::Full => vec![2, 4, 8],
    }
}

/// One measured point of the intercube sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct IntercubePoint {
    /// Topology label ("chain" or "star").
    pub topology: Topology,
    /// Cubes in the fabric.
    pub cubes: u8,
    /// The fabric address map policy.
    pub policy: CubePolicy,
    /// Counted bidirectional bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Mean request latency, µs.
    pub latency_us: f64,
    /// Cubes whose devices completed at least one recorded request.
    pub cubes_hit: usize,
    /// Share of recorded completions that terminated at cube 0 (%).
    pub cube0_share: f64,
}

/// Builds one point of the sweep, unrun: [`port_count`] GUPS ports of
/// 128 B reads over a `cubes`-cube `topology` under `policy`.
pub fn sim(ctx: &ExpContext, topology: Topology, cubes: u8, policy: CubePolicy) -> FabricSim {
    let seed = ctx.seed_for(
        "ext-intercube",
        (u64::from(cubes) << 8)
            | (matches!(topology, Topology::Star) as u64) << 4
            | matches!(policy, CubePolicy::Interleaved) as u64,
    );
    let cfg = FabricConfig::ac510(topology, cubes, seed);
    let fabric_map = FabricAddressMap::new(policy, cubes, &cfg.cube.map);
    // One cube's worth of address space: under the blocked map this is
    // exactly cube 0's range; under the interleaved map the identical
    // window spreads across every cube.
    let spec = FabricPortSpec::global_gups(GupsOp::Read(PayloadSize::B128), fabric_map);
    FabricSim::new(cfg, vec![spec; port_count(ctx)])
}

fn run_point(
    ctx: &ExpContext,
    topology: Topology,
    cubes: u8,
    policy: CubePolicy,
) -> IntercubePoint {
    let report = ctx.run_gups(sim(ctx, topology, cubes, policy));
    let total: u64 = CubeId::all(cubes).map(|c| report.cube_completions(c)).sum();
    IntercubePoint {
        topology,
        cubes,
        policy,
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

/// Runs the sweep: chain and star, each cube count, both policies.
pub fn run(ctx: &ExpContext) -> Vec<IntercubePoint> {
    let ctx2 = ctx.clone();
    let mut jobs: Vec<(Topology, u8, CubePolicy)> = Vec::new();
    for topology in [Topology::Chain, Topology::Star] {
        for &n in &cube_counts(ctx) {
            for policy in [CubePolicy::Blocked, CubePolicy::Interleaved] {
                jobs.push((topology, n, policy));
            }
        }
    }
    ctx.clone().par_map(jobs, move |&(topology, n, policy)| {
        run_point(&ctx2, topology, n, policy)
    })
}

/// Renders the sweep.
pub fn table(points: &[IntercubePoint]) -> Table {
    let mut t = Table::new([
        "topology",
        "cubes",
        "policy",
        "bandwidth (GB/s)",
        "latency (us)",
        "cubes hit",
        "cube0 share (%)",
    ]);
    for p in points {
        t.row([
            p.topology.label().to_owned(),
            p.cubes.to_string(),
            p.policy.label().to_owned(),
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
    fn interleaving_spreads_load_blocking_pins_it() {
        let points = run(&smoke());
        assert_eq!(points.len(), 8, "2 topologies x 2 sizes x 2 policies");
        for p in &points {
            assert!(p.bandwidth_gbs > 0.0, "no traffic: {p:?}");
            match p.policy {
                CubePolicy::Blocked => {
                    assert_eq!(p.cubes_hit, 1, "blocked window stays in cube 0: {p:?}");
                    assert!(p.cube0_share > 99.9, "{p:?}");
                }
                CubePolicy::Interleaved => {
                    assert_eq!(
                        p.cubes_hit,
                        usize::from(p.cubes),
                        "interleaving must reach every cube: {p:?}"
                    );
                    // A uniform draw leaves cube 0 roughly 1/n of the
                    // completions.
                    assert!(
                        p.cube0_share < 100.0 / f64::from(p.cubes) + 15.0,
                        "cube 0 over-represented: {p:?}"
                    );
                }
            }
        }
        // Remote hops cost latency on the chain, where interleaving pays
        // up to n−1 pass-through hops. (On a 1-hop star the halved
        // per-cube load can offset the single hop, so no ordering is
        // asserted there.)
        for pair in points.chunks(2) {
            let (blocked, il) = (&pair[0], &pair[1]);
            assert_eq!(blocked.policy, CubePolicy::Blocked);
            assert_eq!(il.policy, CubePolicy::Interleaved);
            if blocked.topology == Topology::Chain {
                assert!(
                    il.latency_us > blocked.latency_us,
                    "remote chain cubes must cost latency: {blocked:?} vs {il:?}"
                );
            }
        }
    }

    #[test]
    fn intercube_is_byte_identical_across_runs_and_thread_counts() {
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
        assert_eq!(a, b, "ext-intercube must replay byte-identically");
        assert_eq!(a, serial, "thread count must not affect results");
        assert!(a.contains("\"rows\""), "rendering produced real rows");
    }

    #[test]
    fn table_has_one_row_per_point() {
        let p = IntercubePoint {
            topology: Topology::Chain,
            cubes: 4,
            policy: CubePolicy::Interleaved,
            bandwidth_gbs: 10.0,
            latency_us: 2.0,
            cubes_hit: 4,
            cube0_share: 25.0,
        };
        let t = table(&[p]);
        assert_eq!(t.len(), 1);
        assert!(t.to_ascii().contains("interleaved"));
    }
}
