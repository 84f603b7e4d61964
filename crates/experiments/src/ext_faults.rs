//! Ext-faults: link-error sweep on a saturated interleaved ring.
//!
//! The fault injector (`hmc-faults`) and the link-retry protocol make
//! the fabric's off-chip links fallible the way real HMC links are: CRC
//! errors force retransmissions that pay real wire time, outage windows
//! stall the wire, and lane failures halve the link width. This
//! experiment measures what that costs end to end. Every scenario runs
//! the *same* address-interleaved GUPS workload on the same ring — the
//! setup that keeps every cube-to-cube link busy — and varies only the
//! fault plan:
//!
//! - a **BER sweep** (1e-7 → 1e-5 per flit) shows bandwidth eroding and
//!   the latency tail (p99/p999) growing as retransmissions steal wire
//!   time from fresh packets;
//! - **burst** and **outage** scenarios concentrate the same error
//!   energy into clumps, which punishes the tail far more than the mean;
//! - the **half-width** scenario is the graceful-degradation cliff: the
//!   protocol keeps every request flowing, at half the fabric bandwidth;
//! - the **dead link** scenario reroutes the ring the long way around a
//!   severed edge — connectivity survives, the detour pays hops.
//!
//! Every row completes all of its requests: faults degrade the fabric,
//! they never lose traffic. The sweep is byte-identical across
//! `--threads` and `--domains`, faults and all.

use hmc_sim::fabric::{
    FabricConfig, FabricPortSpec, FabricSim, FaultPlan, LinkFaultTotals, Topology,
};
use hmc_sim::prelude::*;

use crate::common::{ExpContext, Scale};

/// GUPS ports driving each scenario.
pub fn port_count(ctx: &ExpContext) -> usize {
    match ctx.scale {
        Scale::Smoke => 4,
        Scale::Quick | Scale::Full => 9,
    }
}

/// Ring size. Power of two: the interleaved cube field must be dense.
pub fn cube_count(ctx: &ExpContext) -> u8 {
    match ctx.scale {
        Scale::Smoke => 4,
        Scale::Quick | Scale::Full => 8,
    }
}

/// The fault scenarios, as `(label, fault-spec)` pairs in the textual
/// syntax of [`FaultPlan::parse`]. The empty spec is the fault-free
/// baseline; it must stay first (tests and the CI gate key on it).
pub fn scenarios(ctx: &ExpContext) -> Vec<(&'static str, &'static str)> {
    let mut v = vec![
        ("none", ""),
        ("ber=1e-7", "all ber=1e-7"),
        ("ber=1e-6", "all ber=1e-6"),
        ("ber=1e-5", "all ber=1e-5"),
    ];
    if !matches!(ctx.scale, Scale::Smoke) {
        v.push(("ber=1e-6 burst=4", "all ber=1e-6 burst=4"));
        v.push(("ber=1e-6 +outage", "all ber=1e-6 down=40us..50us"));
        v.push(("ber=1e-4 degrade=10", "all ber=1e-4; degrade=10"));
    }
    v.push(("half-width", "all half"));
    v.push(("dead link 0-1", "all ber=1e-7; dead=0-1"));
    v
}

/// One measured fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Scenario label.
    pub label: &'static str,
    /// Counted bidirectional bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Mean request latency, µs.
    pub latency_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile request latency, µs.
    pub p999_us: f64,
    /// Requests issued / completed (equal: faults never lose traffic).
    pub issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Fabric-wide retry-protocol counter sums.
    pub totals: LinkFaultTotals,
}

fn run_point(ctx: &ExpContext, idx: usize, label: &'static str, spec: &str) -> FaultPoint {
    let seed = ctx.seed_for("ext-faults", idx as u64);
    let cubes = cube_count(ctx);
    let cfg = FabricConfig::ac510(Topology::Ring, cubes, seed);
    let fabric_map = FabricAddressMap::new(CubePolicy::Interleaved, cubes, &cfg.cube.map);
    let port = FabricPortSpec::global_gups(GupsOp::Read(PayloadSize::B128), fabric_map);
    let specs = vec![port; port_count(ctx)];
    let mut sim = FabricSim::new(cfg, specs);
    if !spec.is_empty() {
        let plan = FaultPlan::parse(seed, spec).expect("scenario spec parses");
        sim = sim.with_faults(plan).expect("scenario plan arms");
    }
    let report = ctx.run_gups(sim);
    let tails = report
        .latency_tail_ps()
        .expect("a saturated run records completions");
    FaultPoint {
        label,
        bandwidth_gbs: report.total_bandwidth_gbs(),
        latency_us: report.mean_latency_us(),
        p99_us: tails[1] as f64 / 1e6,
        p999_us: tails[2] as f64 / 1e6,
        issued: report.ports.iter().map(|p| p.issued).sum(),
        completed: report.ports.iter().map(|p| p.completed).sum(),
        totals: report.link_fault_totals(),
    }
}

/// Runs every scenario.
pub fn run(ctx: &ExpContext) -> Vec<FaultPoint> {
    let ctx2 = ctx.clone();
    let jobs: Vec<(usize, &'static str, &'static str)> = scenarios(ctx)
        .into_iter()
        .enumerate()
        .map(|(i, (label, spec))| (i, label, spec))
        .collect();
    ctx.clone().par_map(jobs, move |&(i, label, spec)| {
        run_point(&ctx2, i, label, spec)
    })
}

/// Renders the sweep.
pub fn table(points: &[FaultPoint]) -> Table {
    let mut t = Table::new([
        "faults",
        "bandwidth (GB/s)",
        "latency (us)",
        "p99 (us)",
        "p999 (us)",
        "crc errors",
        "retries",
        "retx flits",
        "down drops",
        "half-width links",
    ]);
    for p in points {
        t.row([
            p.label.to_owned(),
            format!("{:.2}", p.bandwidth_gbs),
            format!("{:.3}", p.latency_us),
            format!("{:.3}", p.p99_us),
            format!("{:.3}", p.p999_us),
            p.totals.crc_errors.to_string(),
            p.totals.retries.to_string(),
            p.totals.retransmitted_flits.to_string(),
            p.totals.down_drops.to_string(),
            p.totals.degraded_links.to_string(),
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
    fn faults_degrade_but_never_lose_traffic() {
        let points = run(&smoke());
        assert_eq!(points.len(), scenarios(&smoke()).len());
        for p in &points {
            assert!(p.bandwidth_gbs > 0.0, "no traffic: {p:?}");
            assert_eq!(p.completed, p.issued, "faults lost requests: {p:?}");
            assert_eq!(
                p.totals.retries,
                p.totals.crc_errors + p.totals.down_drops,
                "retry accounting broke: {p:?}"
            );
        }
        let baseline = &points[0];
        assert_eq!(baseline.label, "none");
        assert_eq!(
            baseline.totals,
            LinkFaultTotals::default(),
            "the fault-free row must count zero retries: {baseline:?}"
        );
        let worst = points.iter().find(|p| p.label == "ber=1e-5").unwrap();
        assert!(
            worst.totals.crc_errors > 0,
            "1e-5 BER on a saturated ring must corrupt packets: {worst:?}"
        );
        let half = points.iter().find(|p| p.label == "half-width").unwrap();
        assert!(half.totals.degraded_links > 0, "{half:?}");
        assert!(
            half.bandwidth_gbs < baseline.bandwidth_gbs,
            "half-width lanes must cost bandwidth: {half:?} vs {baseline:?}"
        );
    }

    #[test]
    fn faults_are_byte_identical_across_threads_and_domains() {
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
        let a = render(0, 1);
        assert_eq!(a, render(0, 1), "ext-faults must replay byte-identically");
        assert_eq!(a, render(1, 1), "thread count must not affect results");
        assert_eq!(a, render(0, 2), "--domains 2 must not affect results");
        assert_eq!(a, render(0, 4), "--domains 4 must not affect results");
        assert!(a.contains("\"rows\""), "rendering produced real rows");
    }

    #[test]
    fn table_has_one_row_per_point() {
        let p = FaultPoint {
            label: "ber=1e-6",
            bandwidth_gbs: 9.5,
            latency_us: 2.5,
            p99_us: 6.0,
            p999_us: 9.0,
            issued: 1000,
            completed: 1000,
            totals: LinkFaultTotals {
                crc_errors: 12,
                down_drops: 0,
                retries: 12,
                retransmitted_flits: 80,
                degraded_links: 0,
            },
        };
        let t = table(&[p]);
        assert_eq!(t.len(), 1);
        assert!(t.to_ascii().contains("ber=1e-6"));
    }
}
