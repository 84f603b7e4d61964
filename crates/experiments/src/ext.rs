//! Extension experiments beyond the paper's figures.
//!
//! - **Ext-A (DDR baseline)**: quantifies the paper's Section IV-B remark
//!   that the packet-switched HMC has higher unloaded latency than
//!   traditional DDRx, and contrasts peak random-access throughput.
//! - **Ext-B (read/write mix)**: the Section IV-F discussion — reads only
//!   fill the response direction and writes only the request direction,
//!   so mixed traffic uses the bidirectional links best.

use hmc_sim::ddr::DdrChannel;
use hmc_sim::prelude::*;

use crate::common::{gups_run, stream_run, ExpContext};

/// Ext-A: DDR4 channel vs the simulated HMC stack.
pub(crate) fn ddr_comparison(ctx: &ExpContext) -> Table {
    // HMC no-load: a single in-flight request through the whole stack.
    let map = AddressMap::hmc_gen2_default();
    let seed = ctx.seed_for("ext-ddr", 0);
    let trace = random_reads_in_banks(&map, VaultId(0), 16, PayloadSize::B64, 1, seed);
    let hmc_no_load = stream_run(ctx, seed, vec![trace]).mean_latency_ns();
    // HMC peak: 9 GUPS ports, 128 B reads over all vaults.
    let hmc_peak = gups_run(
        ctx,
        ctx.seed_for("ext-ddr", 1),
        AccessPattern::Vaults { count: 16 },
        GupsOp::Read(PayloadSize::B128),
        9,
    );
    // DDR: same spirit — one client for latency, many for bandwidth.
    let ddr = DdrChannel::ddr4_2400();
    let ddr_no_load = ddr.no_load_latency().as_ns_f64();
    let ddr_peak = DdrChannel::ddr4_2400().run_closed_loop(64, 50_000, 64, seed);

    let mut t = Table::new([
        "system",
        "no-load latency (ns)",
        "peak random bandwidth (GB/s)",
    ]);
    t.row([
        "HMC (full measured stack)".to_owned(),
        format!("{hmc_no_load:.0}"),
        format!(
            "{:.1} (counted bidirectional)",
            hmc_peak.total_bandwidth_gbs()
        ),
    ]);
    t.row([
        "HMC (data payload only)".to_owned(),
        format!("{hmc_no_load:.0}"),
        format!("{:.1}", hmc_peak.total_bandwidth_gbs() * 128.0 / 160.0),
    ]);
    t.row([
        "DDR4-2400 channel".to_owned(),
        format!("{ddr_no_load:.0}"),
        format!("{:.1}", ddr_peak.data_gb_per_s),
    ]);
    t
}

/// One row of the read/write mix sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RwMixPoint {
    /// Percentage of writes.
    pub write_percent: u8,
    /// Request-direction traffic, GB/s.
    pub request_gbs: f64,
    /// Response-direction traffic, GB/s.
    pub response_gbs: f64,
    /// Counted bidirectional bandwidth, GB/s.
    pub total_gbs: f64,
}

/// Ext-B: sweep the write percentage at 128 B over all vaults.
pub(crate) fn rw_mix(ctx: &ExpContext) -> Vec<RwMixPoint> {
    let mixes: Vec<u8> = vec![0, 25, 50, 75, 100];
    let ctx = ctx.clone();
    ctx.clone().par_map(mixes, move |&write_percent| {
        let seed = ctx.seed_for("ext-rw", u64::from(write_percent));
        let op = GupsOp::Mix {
            size: PayloadSize::B128,
            write_percent,
        };
        let report = gups_run(&ctx, seed, AccessPattern::Vaults { count: 16 }, op, 9);
        let reads = report.total_reads() as f64;
        let writes = report.total_writes() as f64;
        let rd = RequestKind::Read {
            size: PayloadSize::B128,
        };
        let wr = RequestKind::Write {
            size: PayloadSize::B128,
        };
        let elapsed_ps = report.elapsed.as_ps() as f64;
        let request_bytes = reads * rd.request_bytes() as f64 + writes * wr.request_bytes() as f64;
        let response_bytes =
            reads * rd.response_bytes() as f64 + writes * wr.response_bytes() as f64;
        RwMixPoint {
            write_percent,
            request_gbs: request_bytes * 1e3 / elapsed_ps,
            response_gbs: response_bytes * 1e3 / elapsed_ps,
            total_gbs: report.total_bandwidth_gbs(),
        }
    })
}

/// Renders the mix sweep.
pub(crate) fn rw_mix_table(points: &[RwMixPoint]) -> Table {
    let mut t = Table::new([
        "writes (%)",
        "request dir (GB/s)",
        "response dir (GB/s)",
        "total (GB/s)",
    ]);
    for p in points {
        t.row([
            p.write_percent.to_string(),
            format!("{:.2}", p.request_gbs),
            format!("{:.2}", p.response_gbs),
            format!("{:.2}", p.total_gbs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    #[test]
    fn ddr_beats_hmc_on_latency_loses_on_counted_bandwidth() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 20,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let table = ddr_comparison(&ctx);
        let csv = table.to_csv();
        // Structure only; the quantitative claims live in the module's
        // integration test via the underlying models.
        assert_eq!(table.len(), 3);
        assert!(csv.contains("DDR4-2400"));
    }

    #[test]
    fn mixed_traffic_balances_directions() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 21,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let points = rw_mix(&ctx);
        let at = |wp: u8| {
            points
                .iter()
                .find(|p| p.write_percent == wp)
                .expect("mix point")
        };
        // Pure reads: response-heavy. Pure writes: request-heavy.
        assert!(at(0).response_gbs > 4.0 * at(0).request_gbs);
        assert!(at(100).request_gbs > 4.0 * at(100).response_gbs);
        // Section IV-F argues a balanced mix uses the bidirectional links
        // best. In our model the host controller's per-packet pacing, not
        // link direction, binds first, so the balanced mix lands near the
        // extremes rather than far above them (EXPERIMENTS.md discusses
        // the gap). Sanity-check it stays in that neighbourhood and that
        // each direction stays below its per-direction effective capacity.
        let balanced = at(50).total_gbs;
        let best_extreme = at(0).total_gbs.max(at(100).total_gbs);
        assert!(
            balanced > best_extreme * 0.8,
            "mix collapsed: {balanced} vs {best_extreme}"
        );
        for p in &points {
            assert!(
                p.request_gbs < 21.5,
                "request dir above capacity: {}",
                p.request_gbs
            );
            assert!(
                p.response_gbs < 21.5,
                "response dir above capacity: {}",
                p.response_gbs
            );
        }
    }
}
