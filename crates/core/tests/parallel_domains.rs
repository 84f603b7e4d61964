//! Regression: conservative-parallel domain scheduling is an exact
//! optimization. A multi-cube run split over any number of engine
//! domains must produce the *byte-identical* report — same latencies to
//! the picosecond, same per-cube counters, same engine totals — as the
//! serial run, exercised through the public API exactly as `repro
//! --domains N` drives it.

use hmc_sim::prelude::*;
use hmc_sim::workloads::{GlobalGupsSource, OffloadSource};

/// One saturated interleaved 8-cube chain GUPS run at a given domain
/// count, rendered to its full debug string (every field, every port,
/// every cube) plus the engine totals.
fn intercube_fingerprint(domains: usize) -> (String, String) {
    let cfg = FabricConfig::ac510(Topology::Chain, 8, 2018);
    let fabric_map = FabricAddressMap::new(CubePolicy::Interleaved, 8, &cfg.cube.map);
    let window = 1u64 << Address::BITS;
    let spec = FabricPortSpec::from_source(
        move |seed| {
            Box::new(GlobalGupsSource::new(
                GupsOp::Read(PayloadSize::B128),
                window,
                &fabric_map,
                seed,
            ))
        },
        CubeId::HOST,
    )
    .with_tags(GUPS_TAGS)
    .addressed(fabric_map);
    let mut sim = FabricSim::new(cfg, vec![spec; 5]).with_domains(domains);
    let report = sim.run_gups(Delay::from_us(5), Delay::from_us(15));
    assert!(report.total_accesses() > 0, "the run moved real traffic");
    (format!("{report:?}"), format!("{:?}", sim.engine_stats()))
}

#[test]
fn gups_reports_are_identical_across_domain_counts() {
    let serial = intercube_fingerprint(1);
    for domains in [2, 4, 8] {
        assert_eq!(
            intercube_fingerprint(domains),
            serial,
            "--domains {domains} diverged from the serial run"
        );
    }
}

#[test]
fn closed_loop_stream_reports_are_identical_across_domain_counts() {
    // The offload stream is closed-loop (each write waits on its read),
    // so any reordering of cross-cube deliveries would change the
    // issue sequence itself — the sharpest determinism probe we have.
    let run = |domains: usize| {
        let cfg = FabricConfig::chain(7, 4);
        let map = cfg.cube.map;
        let spec = FabricPortSpec::from_source(
            move |_| {
                Box::new(OffloadSource::new(
                    &map,
                    VaultId(1),
                    VaultId(9),
                    PayloadSize::B128,
                    300,
                    8,
                ))
            },
            CubeId(3),
        );
        let mut sim = FabricSim::new(cfg, vec![spec]).with_domains(domains);
        let report = sim.run_streams();
        assert!(report.total_accesses() > 0);
        format!("{report:?}")
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(4), serial);
}
