//! Ext-offload: NOM-style near-memory copy streams over memory networks.
//!
//! NOM ("Network-On-Memory: Inter-Bank Data Transfer in Highly-Banked
//! Memories", Rezaei et al., 2020) starts from the observation that a
//! host-mediated copy between banks of the *same* memory crosses the NoC
//! twice per block: a read round trip followed by a dependent write round
//! trip. The closed-loop [`OffloadSource`] reproduces exactly that loop —
//! paired read→dependent-write bursts between two vaults — so this
//! experiment measures what NOM's in-memory network would eliminate:
//!
//! - **Chain sweep** — the copied region lives in the far cube of a 1–4
//!   cube chain: every block pays the fabric twice in each direction, so
//!   effective copy bandwidth collapses with hop count.
//! - **Star sweep** — the same copy on the hub versus a leaf of a 4-cube
//!   star.
//! - **Window sweep** — outstanding copy pairs 1→32 on a single cube: how
//!   much of the NoC round trip pipelining can hide.

use hmc_sim::fabric::{FabricConfig, FabricPortSpec, FabricSim};
use hmc_sim::prelude::*;
use hmc_sim::workloads::OffloadSource;
use hmc_sim::RunReport;

use crate::common::{ExpContext, Scale};
use crate::ext_fabric::STAR_CUBES;

/// Blocks copied per offload run.
pub(crate) fn copy_blocks(ctx: &ExpContext) -> u64 {
    match ctx.scale {
        Scale::Smoke => 150,
        Scale::Quick => 500,
        Scale::Full => 2_000,
    }
}

/// Default outstanding-pair window.
pub const DEFAULT_WINDOW: u16 = 16;

/// Block size of every copy in this experiment — shared between the
/// source spec and the copied-bytes accounting.
pub const COPY_SIZE: PayloadSize = PayloadSize::B128;

/// One offload measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadPoint {
    /// The cube holding both copy regions.
    pub cube: u8,
    /// Fabric hops between the host and that cube.
    pub hops: u32,
    /// Outstanding-pair window.
    pub window: u16,
    /// Payload actually copied, MB.
    pub copied_mb: f64,
    /// Effective copy bandwidth (copied payload / elapsed), GB/s.
    pub copy_gbs: f64,
    /// Mean per-request latency across the reads and dependent writes, µs.
    pub latency_us: f64,
}

fn point_from(report: &RunReport, cube: u8, hops: u32, window: u16, blocks: u64) -> OffloadPoint {
    let payload_bytes = blocks * u64::from(COPY_SIZE.bytes());
    let elapsed_ps = report.elapsed.as_ps() as f64;
    OffloadPoint {
        cube,
        hops,
        window,
        copied_mb: payload_bytes as f64 / 1e6,
        copy_gbs: if elapsed_ps > 0.0 {
            payload_bytes as f64 * 1e3 / elapsed_ps
        } else {
            0.0
        },
        latency_us: report.mean_latency_us(),
    }
}

/// Builds the copy spec: vault 0 → vault 8 of the target cube,
/// [`COPY_SIZE`] blocks.
fn offload_spec(map: AddressMap, cube: CubeId, blocks: u64, window: u16) -> FabricPortSpec {
    FabricPortSpec::from_source(
        move |_| {
            Box::new(OffloadSource::new(
                &map,
                VaultId(0),
                VaultId(8),
                COPY_SIZE,
                blocks,
                window,
            ))
        },
        cube,
    )
}

/// Chain lengths the offload sweep probes.
pub(crate) fn offload_chain_lengths(ctx: &ExpContext) -> Vec<u8> {
    match ctx.scale {
        Scale::Smoke => vec![1, 2, 4],
        Scale::Quick | Scale::Full => (1..=4).collect(),
    }
}

/// Runs the chain sweep: the copy lives in the far cube.
pub(crate) fn chain(ctx: &ExpContext) -> Vec<OffloadPoint> {
    let ctx = ctx.clone();
    let blocks = copy_blocks(&ctx);
    ctx.clone().par_map(offload_chain_lengths(&ctx), move |&n| {
        let cfg = FabricConfig::chain(ctx.seed_for("ext-offload-chain", u64::from(n)), n);
        let map = cfg.cube.map;
        let far = CubeId(n - 1);
        let sim = FabricSim::new(cfg, vec![offload_spec(map, far, blocks, DEFAULT_WINDOW)]);
        let report = ctx.run_streams(sim);
        point_from(&report, n - 1, u32::from(n - 1), DEFAULT_WINDOW, blocks)
    })
}

/// Runs the star sweep: the copy on the hub, then on each leaf.
pub(crate) fn star(ctx: &ExpContext) -> Vec<OffloadPoint> {
    let ctx = ctx.clone();
    let blocks = copy_blocks(&ctx);
    ctx.clone().par_map((0..STAR_CUBES).collect(), move |&c| {
        let cfg = FabricConfig::ac510(
            Topology::Star,
            STAR_CUBES,
            ctx.seed_for("ext-offload-star", 1 + u64::from(c)),
        );
        let hops = cfg.routes().hops(CubeId(0), CubeId(c));
        let map = cfg.cube.map;
        let sim = FabricSim::new(
            cfg,
            vec![offload_spec(map, CubeId(c), blocks, DEFAULT_WINDOW)],
        );
        let report = ctx.run_streams(sim);
        point_from(&report, c, hops, DEFAULT_WINDOW, blocks)
    })
}

/// Window values the pipelining sweep probes.
pub(crate) fn window_values(ctx: &ExpContext) -> Vec<u16> {
    match ctx.scale {
        Scale::Smoke => vec![1, 4, 16],
        Scale::Quick | Scale::Full => vec![1, 2, 4, 8, 16, 32],
    }
}

/// Runs the window sweep on a single cube.
pub(crate) fn windows(ctx: &ExpContext) -> Vec<OffloadPoint> {
    let ctx = ctx.clone();
    let blocks = copy_blocks(&ctx);
    ctx.clone().par_map(window_values(&ctx), move |&w| {
        let report = ctx.run_streams(window_sim(&ctx, w));
        point_from(&report, 0, 0, w, blocks)
    })
}

/// Builds one point of the window sweep, unrun: `copy_blocks` blocks
/// copied on a single cube with `w` pairs outstanding.
pub fn window_sim(ctx: &ExpContext, w: u16) -> FabricSim {
    let cfg = FabricConfig::single(
        DeviceConfig::ac510_hmc(),
        HostConfig::ac510_default(),
        ctx.seed_for("ext-offload-window", u64::from(w)),
    );
    let map = cfg.cube.map;
    FabricSim::new(cfg, vec![offload_spec(map, CubeId(0), copy_blocks(ctx), w)])
}

/// Renders offload points.
pub(crate) fn table(points: &[OffloadPoint], star_labels: bool) -> Table {
    let mut t = Table::new([
        "cube",
        "hops",
        "window",
        "copied (MB)",
        "copy bandwidth (GB/s)",
        "mean latency (us)",
    ]);
    for p in points {
        let cube = if star_labels && p.cube == 0 {
            format!("cube{} (hub)", p.cube)
        } else {
            format!("cube{}", p.cube)
        };
        t.row([
            cube,
            p.hops.to_string(),
            p.window.to_string(),
            format!("{:.3}", p.copied_mb),
            format!("{:.3}", p.copy_gbs),
            format!("{:.3}", p.latency_us),
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
            seed: 33,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        }
    }

    #[test]
    fn copy_bandwidth_collapses_with_hop_count() {
        let points = chain(&smoke());
        assert_eq!(points.len(), 3);
        for pair in points.windows(2) {
            assert!(
                pair[1].copy_gbs < pair[0].copy_gbs,
                "copy bandwidth must fall with hops: {points:?}"
            );
            assert!(
                pair[1].latency_us > pair[0].latency_us,
                "copy latency must grow with hops: {points:?}"
            );
        }
    }

    #[test]
    fn star_leaves_copy_slower_than_the_hub() {
        let points = star(&smoke());
        assert_eq!(points.len(), usize::from(STAR_CUBES));
        let hub = &points[0];
        assert_eq!(hub.hops, 0);
        for leaf in &points[1..] {
            assert_eq!(leaf.hops, 1);
            assert!(
                leaf.copy_gbs < hub.copy_gbs,
                "leaf copy must be slower than hub: {leaf:?} vs {hub:?}"
            );
        }
    }

    #[test]
    fn wider_windows_pipeline_the_copy() {
        let points = windows(&smoke());
        assert_eq!(points.len(), 3);
        for pair in points.windows(2) {
            assert!(
                pair[1].copy_gbs > pair[0].copy_gbs,
                "a wider window must raise copy bandwidth: {points:?}"
            );
        }
    }

    #[test]
    fn table_has_one_row_per_point() {
        let p = OffloadPoint {
            cube: 0,
            hops: 0,
            window: 16,
            copied_mb: 0.02,
            copy_gbs: 1.0,
            latency_us: 1.5,
        };
        let t = table(std::slice::from_ref(&p), true);
        assert_eq!(t.len(), 1);
        assert!(t.to_ascii().contains("hub"));
        assert!(!table(&[p], false).to_ascii().contains("hub"));
    }
}
