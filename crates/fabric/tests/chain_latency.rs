//! Integration tests of the assembled fabric: the configured per-hop
//! delay is exactly what a packet pays, traffic is conserved across
//! cubes, and transit contention is observable where the paper's model
//! says it must be — in the pass-through NoC.

use hmc_des::Delay;
use hmc_fabric::{CubeId, FabricConfig, FabricPortSpec, FabricSim, Topology};
use hmc_mapping::{AccessPattern, VaultId};
use hmc_packet::{PayloadSize, RequestKind};
use hmc_workloads::random_reads_in_banks;

/// Unloaded mean read latency to `cube` on a fresh copy of `cfg`.
fn unloaded_ns(cfg: &FabricConfig, cube: CubeId, size: PayloadSize, seed: u64) -> f64 {
    let trace = random_reads_in_banks(&cfg.cube.map, VaultId(0), 16, size, 1, seed);
    FabricSim::new(cfg.clone(), vec![FabricPortSpec::stream(trace, cube)])
        .run_streams()
        .mean_latency_ns()
}

#[test]
fn two_cube_chain_far_latency_exceeds_near_by_the_hop_delay() {
    let cfg = FabricConfig::chain(23, 2);
    for size in [PayloadSize::B16, PayloadSize::B64, PayloadSize::B128] {
        let near = unloaded_ns(&cfg, CubeId(0), size, 23);
        let far = unloaded_ns(&cfg, CubeId(1), size, 23);
        let hop = cfg
            .unloaded_hop_delay(RequestKind::Read { size })
            .as_ns_f64();
        let delta = far - near;
        // Same trace, same port, same cube-internal path: the only
        // difference is one fabric hop in each direction. The host issues
        // on its FPGA clock grid, so allow one cycle (5.3 ns) of slack.
        assert!(
            (delta - hop).abs() < 6.0,
            "{size}: far-near delta {delta:.1} ns != configured hop delay {hop:.1} ns"
        );
    }
}

#[test]
fn unloaded_latency_is_monotone_in_hop_count_up_to_eight_cubes() {
    let mut prev = 0.0;
    for n in 1..=8u8 {
        let cfg = FabricConfig::chain(29, n);
        let ns = unloaded_ns(&cfg, CubeId(n - 1), PayloadSize::B64, 29);
        assert!(
            ns > prev,
            "chain of {n}: unloaded latency {ns:.1} ns not above {prev:.1} ns"
        );
        prev = ns;
    }
}

#[test]
fn fabric_conserves_requests_across_cubes() {
    // Four ports, one per cube of a 4-cube ring, each replaying a
    // bounded trace: every request must be serviced by exactly its
    // target cube and every response must come home.
    let cfg = FabricConfig::ac510(Topology::Ring, 4, 31);
    let reads = 200;
    let specs: Vec<FabricPortSpec> = (0..4u8)
        .map(|c| {
            let trace = random_reads_in_banks(
                &cfg.cube.map,
                VaultId(c),
                8,
                PayloadSize::B32,
                reads,
                31 + u64::from(c),
            );
            FabricPortSpec::stream(trace, CubeId(c))
        })
        .collect();
    let report = FabricSim::new(cfg, specs).run_streams();
    for (c, port) in report.ports.iter().enumerate() {
        assert_eq!(port.issued, reads as u64, "port {c} issued");
        assert_eq!(port.completed, reads as u64, "port {c} completed");
        assert_eq!(
            report.cubes[c].device.requests_received, reads as u64,
            "cube {c} serviced exactly its port's requests"
        );
        assert_eq!(report.cubes[c].device.responses_sent, reads as u64);
    }
    // Something actually transited the fabric.
    assert!(report.transit_forwarded() > 0);
}

#[test]
fn transit_traffic_contends_in_the_hub_crossbar() {
    // A star hub forwards every leaf's traffic; with all leaves loaded,
    // the hub's pass-through crossbar must observe arbitration conflicts
    // — the fabric-level version of the paper's NoC contention claim.
    let cfg = FabricConfig::ac510(Topology::Star, 4, 37);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs: Vec<FabricPortSpec> = (1..4u8)
        .flat_map(|c| {
            vec![
                FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B128), CubeId(c),);
                3
            ]
        })
        .collect();
    let report = FabricSim::new(cfg, specs).run_gups(Delay::from_us(5), Delay::from_us(20));
    let hub = report.cubes[0]
        .transit
        .as_ref()
        .expect("hub has a pass-through stage");
    assert!(hub.forwarded > 0);
    assert!(
        hub.arbitration_conflicts > 0,
        "nine saturating leaf-bound ports must collide in the hub crossbar"
    );
    // The hub's own device serviced nothing; the leaves split the load.
    assert_eq!(report.cubes[0].device.requests_received, 0);
    for c in 1..4 {
        assert!(
            report.cubes[c].device.requests_received > 0,
            "leaf {c} idle"
        );
    }
}

#[test]
fn chain_bandwidth_survives_chaining() {
    // Saturating far-cube traffic on a 3-cube chain still reaches most
    // of the single-cube link ceiling: the fabric pipeline adds latency,
    // not a throughput cliff (companion-study behaviour).
    let run = |n: u8| {
        let cfg = FabricConfig::chain(41, n);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let specs = vec![
            FabricPortSpec::gups(
                filter,
                hmc_host::GupsOp::Read(PayloadSize::B128),
                CubeId(n - 1),
            );
            9
        ];
        FabricSim::new(cfg, specs)
            .run_gups(Delay::from_us(10), Delay::from_us(40))
            .total_bandwidth_gbs()
    };
    let single = run(1);
    let chained = run(3);
    assert!(
        chained > single * 0.9,
        "3-cube chain bandwidth {chained:.1} GB/s collapsed vs single-cube {single:.1} GB/s"
    );
}
