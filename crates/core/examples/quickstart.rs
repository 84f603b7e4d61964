//! Quickstart: measure the HMC's latency/bandwidth trade-off in a few
//! lines.
//!
//! Runs three configurations of the simulated AC-510 measurement stack:
//! a single low-load request stream (no-load latency), a saturating
//! nine-port GUPS run confined to one vault, and the same run spread over
//! all sixteen vaults — reproducing, in miniature, the paper's central
//! observation that access distribution and the internal NoC, not the
//! DRAM, set the performance envelope.
//!
//! Run with: `cargo run --release --example quickstart`

use hmc_sim::prelude::*;

fn main() {
    let seed = 2018;

    // 1. No-load latency: one stream port, one read at a time.
    let cfg = FabricConfig::chain(seed, 1);
    let map = cfg.cube.map;
    let trace = random_reads_in_banks(&map, VaultId(0), 16, PayloadSize::B32, 1, seed);
    let report =
        FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId::HOST)]).run_streams();
    println!(
        "no-load round trip    : {:8.1} ns",
        report.mean_latency_ns()
    );

    // 2. Nine GUPS ports hammering a single vault (bank-level parallelism
    //    only): the vault's ~10 GB/s internal bandwidth is the ceiling.
    let cfg = FabricConfig::chain(seed, 1);
    let filter = AccessPattern::Vaults { count: 1 }.filter(&map);
    let ports =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    let report = FabricSim::new(cfg, ports).run_gups(Delay::from_us(50), Delay::from_us(200));
    println!(
        "1 vault, 128B reads   : {:8.2} GB/s at {:7.2} us mean latency",
        report.total_bandwidth_gbs(),
        report.mean_latency_us()
    );

    // 3. The same traffic spread over all sixteen vaults: the external
    //    links become the ceiling (~23 GB/s counted bidirectionally).
    let cfg = FabricConfig::chain(seed, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
    let ports =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    let report = FabricSim::new(cfg, ports).run_gups(Delay::from_us(50), Delay::from_us(200));
    println!(
        "16 vaults, 128B reads : {:8.2} GB/s at {:7.2} us mean latency",
        report.total_bandwidth_gbs(),
        report.mean_latency_us()
    );
}
