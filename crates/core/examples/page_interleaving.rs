//! Page interleaving: why the HMC's low-order-interleaved address map
//! (Figure 3 of the paper) gives sequential accesses bank-level
//! parallelism for free.
//!
//! First prints where the 32 blocks of one 4 KB OS page land (two banks
//! across all sixteen vaults), then measures the same 32-read burst issued
//! sequentially (page walk) versus packed into a single bank — the
//! Section IV-F insight that "mapping accesses across vaults then banks is
//! key to achieve better bandwidth utilization and lower latency".
//!
//! Run with: `cargo run --release --example page_interleaving`

use hmc_sim::prelude::*;
use hmc_sim::workloads::{linear_reads, Trace, TraceOp};

fn main() {
    let map = AddressMap::hmc_gen2_default();

    // 1. Decode one page's footprint.
    let page = Address::new(0x40_0000);
    println!("4 KB page at {page} with 128 B blocks:");
    let footprint = map.page_footprint(page, 4096);
    for (i, loc) in footprint.iter().enumerate() {
        if i % 8 == 0 {
            print!("  blocks {i:2}..{:2}: ", i + 7);
        }
        print!("{}/{} ", loc.vault.0, loc.bank.0);
        if i % 8 == 7 {
            println!();
        }
    }
    let vaults: std::collections::BTreeSet<u8> = footprint.iter().map(|l| l.vault.0).collect();
    let banks: std::collections::BTreeSet<u8> = footprint.iter().map(|l| l.bank.0).collect();
    println!("  → {} vaults, {} banks\n", vaults.len(), banks.len());

    // 2. Four ports walk sixteen consecutive pages (interleaved by
    //    construction: the map spreads them across every vault).
    let seed = 1;
    let reads_per_port = 128usize;
    let cfg = FabricConfig::chain(seed, 1);
    let specs: Vec<FabricPortSpec> = (0..4u64)
        .map(|p| {
            let base = Address::new(page.raw() + p * 4096 * 4);
            FabricPortSpec::stream(
                linear_reads(base, PayloadSize::B128, reads_per_port),
                CubeId::HOST,
            )
        })
        .collect();
    let sequential = FabricSim::new(cfg, specs).run_streams();

    // 3. The same total demand packed into a single bank of one vault —
    //    what a pathological mapping would do.
    let cfg = FabricConfig::chain(seed, 1);
    let specs: Vec<FabricPortSpec> = (0..4u64)
        .map(|p| {
            let packed: Trace = (0..reads_per_port as u64)
                .map(|i| {
                    TraceOp::read(
                        map.encode(VaultId(0), BankId(0), p * 1000 + i, 0),
                        PayloadSize::B128,
                    )
                })
                .collect();
            FabricPortSpec::stream(packed, CubeId::HOST)
        })
        .collect();
    let single_bank = FabricSim::new(cfg, specs).run_streams();

    println!("4 ports × {reads_per_port} × 128 B reads:");
    println!(
        "  page walk (16 vaults × banks): mean {:7.1} ns, max {:8.1} ns",
        sequential.mean_latency_ns(),
        sequential.max_latency_us() * 1e3,
    );
    println!(
        "  packed into a single bank    : mean {:7.1} ns, max {:8.1} ns",
        single_bank.mean_latency_ns(),
        single_bank.max_latency_us() * 1e3,
    );
    let speedup = single_bank.mean_latency_ns() / sequential.mean_latency_ns();
    println!("  → interleaving cuts mean latency {speedup:.1}×");
}
