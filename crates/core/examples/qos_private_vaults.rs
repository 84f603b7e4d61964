//! QoS via private vaults: the remedy the paper proposes in Section IV-C.
//!
//! "In a case that we have five traffic streams, four of which can be
//! served in long latency, and one has high priority and requires a fast
//! service; the system can assign a limited number of vaults to all four
//! low-priority traffic streams, and remaining vaults to the high-priority
//! traffic."
//!
//! This example runs that exact scenario twice: once with the
//! high-priority stream sharing a vault with the four background streams,
//! and once with the high-priority stream on a private vault. Latency
//! isolation follows.
//!
//! Run with: `cargo run --release --example qos_private_vaults`

use hmc_sim::prelude::*;
use hmc_sim::workloads::random_reads_in_vaults;

/// Runs 4 background ports + 1 priority port; returns (background mean µs,
/// priority mean µs, priority max µs).
fn run(priority_vault: u8, seed: u64) -> (f64, f64, f64) {
    let cfg = FabricConfig::chain(seed, 1);
    let map = cfg.cube.map;
    let reads = 800;
    // Four background streams pounding vault 2.
    let mut specs: Vec<FabricPortSpec> = (0..4)
        .map(|i| {
            FabricPortSpec::stream(
                random_reads_in_vaults(&map, &[VaultId(2)], PayloadSize::B128, reads, seed + i),
                CubeId::HOST,
            )
        })
        .collect();
    // One latency-sensitive stream.
    specs.push(FabricPortSpec::stream(
        random_reads_in_vaults(
            &map,
            &[VaultId(priority_vault)],
            PayloadSize::B32,
            reads,
            seed + 100,
        ),
        CubeId::HOST,
    ));
    let report = FabricSim::new(cfg, specs).run_streams();
    let background = report.ports[..4]
        .iter()
        .map(|p| p.latency.mean_us())
        .sum::<f64>()
        / 4.0;
    let prio = &report.ports[4];
    (background, prio.latency.mean_us(), prio.latency.max_us())
}

fn main() {
    let (bg_shared, prio_shared, max_shared) = run(2, 7);
    let (bg_private, prio_private, max_private) = run(9, 7);

    println!("high-priority stream SHARING vault 2 with 4 background streams:");
    println!("  background mean {bg_shared:6.2} us | priority mean {prio_shared:6.2} us, max {max_shared:6.2} us");
    println!("high-priority stream on PRIVATE vault 9:");
    println!("  background mean {bg_private:6.2} us | priority mean {prio_private:6.2} us, max {max_private:6.2} us");
    println!(
        "  → private-vault mapping cuts priority mean latency {:.1}× and max {:.1}×",
        prio_shared / prio_private,
        max_shared / max_private
    );
}
