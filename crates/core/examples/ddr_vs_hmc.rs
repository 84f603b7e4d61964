//! DDR vs HMC: the latency/bandwidth trade the paper states in
//! Section IV-B — "since HMC utilizes a packet-switched interface to vault
//! controllers in its logic layer, the observed average latency of the HMC
//! is higher than that of traditional DDRx".
//!
//! Compares a DDR4-2400 channel model against the simulated HMC stack at
//! increasing memory-level parallelism (closed-loop clients for DDR,
//! stream depth for the HMC).
//!
//! Run with: `cargo run --release --example ddr_vs_hmc`

use hmc_sim::ddr::DdrChannel;
use hmc_sim::prelude::*;
use hmc_sim::workloads::random_reads_in_vaults;

fn main() {
    let seed = 11;
    println!("random 64 B reads at increasing parallelism:\n");
    println!(
        "{:>12} {:>22} {:>22}",
        "in flight", "DDR4-2400 (ns)", "HMC stack (ns)"
    );
    let map = AddressMap::hmc_gen2_default();
    let all_vaults: Vec<VaultId> = (0..16).map(VaultId).collect();
    for mlp in [1usize, 4, 16, 64] {
        let ddr = DdrChannel::ddr4_2400().run_closed_loop(mlp, 5_000, 64, seed);
        // HMC: one stream port whose tag pool bounds in-flight requests.
        let cfg = FabricConfig::chain(seed, 1);
        let trace = random_reads_in_vaults(&map, &all_vaults, PayloadSize::B64, 2_000, seed);
        let spec = FabricPortSpec::stream(trace, CubeId::HOST).with_tags(mlp as u16);
        let hmc = FabricSim::new(cfg, vec![spec]).run_streams();
        println!(
            "{:>12} {:>22.1} {:>22.1}",
            mlp,
            ddr.mean_latency_ns,
            hmc.mean_latency_ns()
        );
    }
    println!();
    // Peak random throughput comparison.
    let ddr_peak = DdrChannel::ddr4_2400().run_closed_loop(64, 50_000, 64, seed);
    let cfg = FabricConfig::chain(seed, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
    let ports =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    let hmc_peak = FabricSim::new(cfg, ports).run_gups(Delay::from_us(50), Delay::from_us(200));
    println!("peak random-read throughput:");
    println!(
        "  DDR4-2400 channel : {:5.1} GB/s of data",
        ddr_peak.data_gb_per_s
    );
    println!(
        "  HMC (two links)   : {:5.1} GB/s of data ({:5.1} GB/s counted with packet overheads)",
        hmc_peak.total_bandwidth_gbs() * 128.0 / 160.0,
        hmc_peak.total_bandwidth_gbs()
    );
    println!("\n→ DDR wins unloaded latency by ~10×; the HMC wins concurrent");
    println!("  random throughput — the paper's core trade-off.");
}
