//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! per-bank queue depth, link protocol overhead, NoC topology (quadrants
//! vs flat crossbar), and tag-pool size. Each configuration's simulated
//! outcome is printed once (stderr), and Criterion times the run — so the
//! suite doubles as a sensitivity study and a performance regression net.

use std::sync::Mutex;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hmc_sim::mapping::{AddressMap, BlockSize, Geometry, QuadrantId};
use hmc_sim::prelude::*;

fn gups_128b(cfg: FabricConfig, ports: usize) -> RunReport {
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); ports];
    FabricSim::new(cfg, specs).run_gups(Delay::from_us(10), Delay::from_us(40))
}

/// Ablation 1: per-bank queue depth. The paper infers ~144-entry per-bank
/// queues from Little's law; here the knob directly moves the outstanding
/// request ceiling of bank-limited patterns.
fn ablate_bank_queue(c: &mut Criterion) {
    let printed = Mutex::new(Vec::new());
    let mut group = c.benchmark_group("ablation_bank_queue");
    group.sample_size(10);
    for depth in [18usize, 72, 288] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut device = DeviceConfig::ac510_hmc();
                device.vault.bank_queue_capacity = depth;
                let cfg = FabricConfig::single(device, HostConfig::ac510_default(), 1);
                let filter = AccessPattern::Banks {
                    vault: VaultId(0),
                    count: 2,
                }
                .filter(&cfg.cube.map);
                let spec =
                    FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST);
                let specs = vec![spec; 9];
                let report =
                    FabricSim::new(cfg, specs).run_gups(Delay::from_us(10), Delay::from_us(40));
                printed.lock().unwrap().push(format!(
                    "[bank_queue={depth}] 2-bank outstanding ≈ {:.0}, latency {:.2} us",
                    report.estimated_outstanding(),
                    report.mean_latency_us()
                ));
                report.total_accesses()
            });
        });
    }
    group.finish();
    let mut lines = printed.into_inner().unwrap();
    lines.dedup();
    for l in lines.iter().take(3) {
        eprintln!("{l}");
    }
}

/// Ablation 2: link protocol overhead. Sets the effective-bandwidth
/// ceiling of Figures 6/13 (the ~23 GB/s plateau at the default 0.40).
fn ablate_link_overhead(c: &mut Criterion) {
    let printed = Mutex::new(Vec::new());
    let mut group = c.benchmark_group("ablation_link_overhead");
    group.sample_size(10);
    for overhead in [0.0f64, 0.40, 0.80] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{overhead:.2}")),
            &overhead,
            |b, &overhead| {
                b.iter(|| {
                    let mut device = DeviceConfig::ac510_hmc();
                    let mut host = HostConfig::ac510_default();
                    device.link.protocol_overhead = overhead;
                    host.link.protocol_overhead = overhead;
                    let report = gups_128b(FabricConfig::single(device, host, 1), 9);
                    printed.lock().unwrap().push(format!(
                        "[overhead={overhead:.2}] 16-vault 128B: {:.2} GB/s",
                        report.total_bandwidth_gbs()
                    ));
                    report.total_accesses()
                });
            },
        );
    }
    group.finish();
    let mut lines = printed.into_inner().unwrap();
    lines.dedup();
    for l in lines.iter().take(3) {
        eprintln!("{l}");
    }
}

/// Ablation 3: NoC topology — the paper's quadrant hierarchy vs a flat
/// 16-vault crossbar (one quadrant). Latency spread across vaults is the
/// interesting output: the flat crossbar removes the hop asymmetry.
fn ablate_topology(c: &mut Criterion) {
    let printed = Mutex::new(Vec::new());
    let mut group = c.benchmark_group("ablation_topology");
    group.sample_size(10);
    for quadrants in [4u8, 1] {
        let label = if quadrants == 4 { "quadrants" } else { "flat" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &quadrants, |b, &q| {
            b.iter(|| {
                let mut device = DeviceConfig::ac510_hmc();
                let mut host = HostConfig::ac510_default();
                let mut geometry = Geometry::hmc_gen2();
                geometry.quadrants = q;
                device.map = AddressMap::new(geometry, BlockSize::B128);
                device.link_quadrants = if q == 4 {
                    vec![QuadrantId(0), QuadrantId(1)]
                } else {
                    vec![QuadrantId(0)]
                };
                host.link_count = device.link_quadrants.len() as u8;
                let report = gups_128b(FabricConfig::single(device, host, 1), 9);
                printed.lock().unwrap().push(format!(
                    "[topology={label}] {:.2} GB/s at {:.2} us",
                    report.total_bandwidth_gbs(),
                    report.mean_latency_us()
                ));
                report.total_accesses()
            });
        });
    }
    group.finish();
    let mut lines = printed.into_inner().unwrap();
    lines.dedup();
    for l in lines.iter().take(2) {
        eprintln!("{l}");
    }
}

/// Ablation 4: GUPS tag-pool size — the outstanding-request ceiling that
/// caps small-request bandwidth (Section IV-A).
fn ablate_tags(c: &mut Criterion) {
    let printed = Mutex::new(Vec::new());
    let mut group = c.benchmark_group("ablation_tag_pool");
    group.sample_size(10);
    for tags in [8u16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(tags), &tags, |b, &tags| {
            b.iter(|| {
                let cfg = FabricConfig::chain(1, 1);
                let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
                let spec =
                    FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B16), CubeId::HOST);
                let specs = vec![spec.with_tags(tags); 9];
                let report =
                    FabricSim::new(cfg, specs).run_gups(Delay::from_us(10), Delay::from_us(40));
                printed.lock().unwrap().push(format!(
                    "[tags={tags}] 16B reads: {:.2} GB/s at {:.2} us",
                    report.total_bandwidth_gbs(),
                    report.mean_latency_us()
                ));
                report.total_accesses()
            });
        });
    }
    group.finish();
    let mut lines = printed.into_inner().unwrap();
    lines.dedup();
    for l in lines.iter().take(3) {
        eprintln!("{l}");
    }
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablate_bank_queue, ablate_link_overhead, ablate_topology, ablate_tags
}
criterion_main!(ablations);
