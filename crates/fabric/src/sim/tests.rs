//! End-to-end `FabricSim` tests.

use super::*;
use crate::{LinkFaultTotals, Topology};
use hmc_mapping::{AccessPattern, VaultId};
use hmc_packet::PayloadSize;
use hmc_workloads::random_reads_in_banks;

fn one_read_trace(cfg: &FabricConfig, seed: u64) -> hmc_workloads::Trace {
    random_reads_in_banks(&cfg.cube.map, VaultId(0), 16, PayloadSize::B64, 1, seed)
}

#[test]
fn single_cube_fabric_has_no_passthrough() {
    let cfg = FabricConfig::single(
        hmc_device::DeviceConfig::ac510_hmc(),
        hmc_host::HostConfig::ac510_default(),
        3,
    );
    let trace = one_read_trace(&cfg, 3);
    let report = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0))]).run_streams();
    assert_eq!(report.cubes.len(), 1);
    assert!(report.cubes[0].transit.is_none());
    assert_eq!(report.transit_forwarded(), 0);
}

#[test]
fn remote_requests_are_serviced_by_the_remote_cube() {
    let cfg = FabricConfig::chain(5, 3);
    let trace = random_reads_in_banks(&cfg.cube.map, VaultId(1), 4, PayloadSize::B32, 50, 5);
    let report = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(2))]).run_streams();
    assert_eq!(report.ports[0].completed, 50);
    assert_eq!(report.cubes[2].device.requests_received, 50);
    assert_eq!(report.cubes[0].device.requests_received, 0);
    assert_eq!(report.cubes[1].device.requests_received, 0);
    // Transit: cube 0 and cube 1 each forwarded request and response.
    for c in [0, 1] {
        let t = report.cubes[c].transit.as_ref().unwrap();
        assert!(t.forwarded >= 100, "cube {c} forwarded {}", t.forwarded);
    }
}

#[test]
fn fabric_runs_are_deterministic() {
    let run = |seed: u64| {
        let cfg = FabricConfig::ac510(Topology::Star, 4, seed);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let specs: Vec<FabricPortSpec> = (0..4)
            .map(|c| {
                FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B64), CubeId(c))
            })
            .collect();
        let r = FabricSim::new(cfg, specs).run_gups(Delay::from_us(5), Delay::from_us(15));
        (
            r.total_accesses(),
            r.aggregate_latency().total_ps(),
            r.transit_forwarded(),
            r.total_switch_conflicts(),
        )
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

#[test]
fn farther_cubes_cost_more_unloaded_latency() {
    let mut prev = 0.0;
    for target in 0..3u8 {
        let cfg = FabricConfig::chain(7, 3);
        let trace = one_read_trace(&cfg, 7);
        let report =
            FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(target))]).run_streams();
        let ns = report.mean_latency_ns();
        assert!(
            ns > prev,
            "latency must grow with hop count: cube{target} {ns} ns vs {prev} ns"
        );
        prev = ns;
    }
}

#[test]
#[should_panic(expected = "outside the")]
fn ports_cannot_target_missing_cubes() {
    let cfg = FabricConfig::chain(0, 2);
    let trace = one_read_trace(&cfg, 0);
    let _ = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(5))]);
}

#[test]
#[should_panic(expected = "65 ports exceed the host's 64-port arbiter")]
fn port_count_is_bounded_by_the_host_arbiter() {
    let cfg = FabricConfig::chain(0, 1);
    let trace = one_read_trace(&cfg, 0);
    let _ = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0)); 65]);
}

#[test]
#[should_panic(expected = "spans 4 cube(s) but the fabric has 2")]
fn addressed_map_must_match_the_fabric_size() {
    let cfg = FabricConfig::chain(0, 2);
    let map =
        hmc_mapping::FabricAddressMap::new(hmc_mapping::CubePolicy::Blocked, 4, &cfg.cube.map);
    let trace = one_read_trace(&cfg, 0);
    let _ = FabricSim::new(
        cfg,
        vec![FabricPortSpec::stream(trace, CubeId(0)).addressed(map)],
    );
}

#[test]
fn addressed_ports_derive_cube_from_the_address() {
    use hmc_mapping::{CubePolicy, FabricAddressMap};
    use hmc_packet::GlobalAddress;

    // One stream, explicit global addresses: block 0 in cube 0,
    // block 1 in cube 2, block 2 in cube 1 (blocked map: high bits).
    let cfg = FabricConfig::chain(9, 3);
    let fabric = FabricAddressMap::new(CubePolicy::Blocked, 3, &cfg.cube.map);
    let ops: Vec<hmc_workloads::TraceOp> = [(0u64, 0x000u64), (2, 0x080), (1, 0x100), (2, 0x180)]
        .iter()
        .map(|&(cube, local)| {
            hmc_workloads::TraceOp::read(
                GlobalAddress::new(cube << 34 | local),
                hmc_packet::PayloadSize::B64,
            )
        })
        .collect();
    let trace = hmc_workloads::Trace::from_ops(ops);
    let report = FabricSim::new(
        cfg,
        vec![FabricPortSpec::stream(trace, CubeId(0)).addressed(fabric)],
    )
    .run_streams();
    assert_eq!(report.ports[0].completed, 4);
    assert_eq!(report.cubes[0].device.requests_received, 1);
    assert_eq!(report.cubes[1].device.requests_received, 1);
    assert_eq!(report.cubes[2].device.requests_received, 2);
    // The split stream has no static cube; its per-cube attribution
    // carries the spread instead.
    assert_eq!(report.ports[0].cube, None);
    assert_eq!(report.ports[0].cube_completions[..3], [1, 1, 2]);
    assert_eq!(report.cube_completions(CubeId(2)), 2);
    assert_eq!(report.cubes_hit(), 3);
}

#[test]
fn offload_copies_between_cubes_touch_both_devices() {
    use hmc_mapping::{CubePolicy, FabricAddressMap};
    use hmc_workloads::OffloadSource;

    let cfg = FabricConfig::chain(4, 2);
    let map = cfg.cube.map;
    let fabric = FabricAddressMap::new(CubePolicy::Blocked, 2, &map);
    let blocks = 40u64;
    let spec = FabricPortSpec::from_source(
        move |_| {
            Box::new(OffloadSource::between_cubes(
                &map,
                fabric,
                (CubeId(0), VaultId(0)),
                (CubeId(1), VaultId(8)),
                PayloadSize::B128,
                blocks,
                8,
            ))
        },
        CubeId(0),
    )
    .addressed(fabric);
    let report = FabricSim::new(cfg, vec![spec]).run_streams();
    // Every pair: the read terminates at cube 0, the dependent write
    // crosses the fabric to cube 1.
    assert_eq!(report.ports[0].completed, 2 * blocks);
    assert_eq!(report.cubes[0].device.requests_received, blocks);
    assert_eq!(report.cubes[1].device.requests_received, blocks);
    assert_eq!(report.total_reads(), blocks);
    assert_eq!(report.total_writes(), blocks);
    assert_eq!(report.ports[0].cube_completions[..2], [blocks, blocks]);
}

#[test]
fn domain_schedules_reproduce_serial_runs_byte_for_byte() {
    let run = |domains: usize| {
        let cfg = FabricConfig::ac510(Topology::Star, 4, 21);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let specs: Vec<FabricPortSpec> = (0..4)
            .map(|c| {
                FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B64), CubeId(c))
            })
            .collect();
        let mut sim = FabricSim::new(cfg, specs).with_domains(domains);
        let report = sim.run_gups(Delay::from_us(5), Delay::from_us(15));
        (format!("{report:?}"), sim.engine_stats())
    };
    let serial = run(1);
    assert_eq!(serial, run(2), "2 domains must replay the serial run");
    assert_eq!(serial, run(4), "4 domains must replay the serial run");
}

#[test]
fn offload_runs_identically_under_domains() {
    use hmc_mapping::{CubePolicy, FabricAddressMap};
    use hmc_workloads::OffloadSource;

    let run = |domains: usize| {
        let cfg = FabricConfig::chain(4, 2);
        let map = cfg.cube.map;
        let fabric = FabricAddressMap::new(CubePolicy::Blocked, 2, &map);
        let spec = FabricPortSpec::from_source(
            move |_| {
                Box::new(OffloadSource::between_cubes(
                    &map,
                    fabric,
                    (CubeId(0), VaultId(0)),
                    (CubeId(1), VaultId(8)),
                    PayloadSize::B128,
                    40,
                    8,
                ))
            },
            CubeId(0),
        )
        .addressed(fabric);
        let mut sim = FabricSim::new(cfg, vec![spec]).with_domains(domains);
        let report = sim.run_streams();
        (format!("{report:?}"), sim.engine_stats())
    };
    assert_eq!(run(1), run(2), "dependent offload streams must not skew");
}

#[test]
fn single_cube_domains_run_as_one_domain() {
    let cfg = FabricConfig::single(
        hmc_device::DeviceConfig::ac510_hmc(),
        hmc_host::HostConfig::ac510_default(),
        3,
    );
    let trace = one_read_trace(&cfg, 3);
    let mut sim =
        FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0))]).with_domains(4);
    let report = sim.run_streams();
    assert_eq!(report.ports[0].completed, 1);
    assert!(sim.engine_stats().dispatched > 0);
    assert_eq!(sim.sched_stats(), SchedStats::default());
}

#[test]
fn zero_lookahead_fabrics_run_as_one_domain() {
    let run = |domains: usize| {
        let mut cfg = FabricConfig::chain(5, 2);
        cfg.hop.link.serdes_latency = Delay::ZERO;
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let spec =
            FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B64), CubeId(1));
        let mut sim = FabricSim::new(cfg, vec![spec; 2]).with_domains(domains);
        let report = sim.run_gups(Delay::from_us(2), Delay::from_us(6));
        assert_eq!(sim.sched_stats(), SchedStats::default());
        (format!("{report:?}"), sim.engine_stats())
    };
    let one = run(1);
    assert!(one.1.dispatched > 0);
    assert_eq!(one, run(2));
}

/// A 4-cube chain with one GUPS port per cube, telemetry attached to
/// `hub`, at `domains` engine domains; returns the report and the
/// scheduler counters.
fn chain4_with_hub(hub: &hmc_telemetry::SharedHub, domains: usize) -> (RunReport, SchedStats) {
    let cfg = FabricConfig::chain(13, 4);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs: Vec<FabricPortSpec> = (0..4)
        .map(|c| FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B64), CubeId(c)))
        .collect();
    let mut sim = FabricSim::with_telemetry(cfg, specs, Probe::attached(hub)).with_domains(domains);
    let report = sim.run_gups(Delay::from_us(2), Delay::from_us(6));
    (report, sim.sched_stats())
}

#[test]
fn an_attached_hub_reads_the_same_at_every_domain_count() {
    use hmc_telemetry::{Hub, HubConfig};

    let run = |domains: usize| {
        let hub = Hub::shared(HubConfig::default());
        let (report, _) = chain4_with_hub(&hub, domains);
        let h = hub.borrow();
        let read = (
            h.epochs().to_vec(),
            h.origin(),
            h.aggregate_sketch().count(),
            h.aggregate_tail_ps(),
        );
        (read, report.cubes_hit())
    };
    let (serial, cubes_hit) = run(1);
    assert!(serial.2 > 0, "the hub saw the run");
    assert_eq!(cubes_hit, 4, "every cube completed requests");
    for domains in [2, 4] {
        assert_eq!(serial, run(domains).0, "{domains} domains moved the hub");
    }
}

#[test]
fn traced_runs_stay_on_one_domain() {
    use hmc_telemetry::{Hub, HubConfig};

    let run = |domains: usize| {
        let hub = Hub::shared(HubConfig {
            trace_sample: Some(8),
            ..HubConfig::default()
        });
        let (_, sched) = chain4_with_hub(&hub, domains);
        let h = hub.borrow();
        (sched, h.trace_json(), h.traced_slices())
    };
    let serial = run(1);
    assert!(serial.2 > 0, "the tracer sampled the run");
    let (sched, json, slices) = run(4);
    assert_eq!(sched, SchedStats::default(), "a traced run left one domain");
    assert_eq!(slices, serial.2);
    assert!(json == serial.1, "the trace moved under --domains 4");
}

fn faulty_gups_report(
    plan: Option<FaultPlan>,
    domains: usize,
    hub: Option<&hmc_telemetry::SharedHub>,
) -> (RunReport, EngineStats) {
    let cfg = FabricConfig::ac510(Topology::Ring, 4, 21);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs: Vec<FabricPortSpec> = (0..4)
        .map(|c| FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B128), CubeId(c)))
        .collect();
    let probe = hub.map_or_else(Probe::off, Probe::attached);
    let mut sim = FabricSim::with_telemetry(cfg, specs, probe).with_domains(domains);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan).expect("valid fault plan");
    }
    let report = sim.run_gups(Delay::from_us(2), Delay::from_us(8));
    (report, sim.engine_stats())
}

#[test]
fn empty_fault_plan_changes_nothing() {
    let (clean, _) = faulty_gups_report(None, 1, None);
    let (armed, _) = faulty_gups_report(Some(FaultPlan::new(99)), 1, None);
    assert_eq!(
        format!("{clean:?}"),
        format!("{armed:?}"),
        "a no-op plan must leave the run byte-identical"
    );
    assert_eq!(clean.link_fault_totals(), LinkFaultTotals::default());
}

#[test]
fn faulty_runs_complete_and_count_retries() {
    let plan = FaultPlan::new(7).with_all_links(hmc_faults::LinkFaultSpec::ber(1e-5).with_burst(2));
    let (report, _) = faulty_gups_report(Some(plan), 1, None);
    let totals = report.link_fault_totals();
    assert!(totals.crc_errors > 0, "a 1e-5 BER must corrupt something");
    assert_eq!(totals.retries, totals.crc_errors + totals.down_drops);
    assert!(totals.retransmitted_flits >= totals.retries);
    // Graceful: every issued request still completes.
    for p in &report.ports {
        assert_eq!(p.completed, p.issued, "port {} lost requests", p.port.0);
    }
}

#[test]
fn faulty_runs_are_domain_invariant() {
    let plan = || {
        FaultPlan::new(7)
            .with_all_links(hmc_faults::LinkFaultSpec::ber(2e-5))
            .degrade_after(40)
    };
    let serial = format!("{:?}", faulty_gups_report(Some(plan()), 1, None).0);
    for domains in [2, 4] {
        let par = format!("{:?}", faulty_gups_report(Some(plan()), domains, None).0);
        assert_eq!(serial, par, "--domains {domains} skewed a faulty run");
    }
}

#[test]
fn attaching_a_hub_changes_nothing_simulated() {
    let plan = || FaultPlan::new(7).with_all_links(hmc_faults::LinkFaultSpec::ber(1e-5));
    for domains in [1, 4] {
        let (detached, detached_stats) = faulty_gups_report(Some(plan()), domains, None);
        assert!(
            detached.link_fault_totals().retries > 0,
            "the retry path must run"
        );
        let hub = hmc_telemetry::Hub::shared(hmc_telemetry::HubConfig::default());
        let (attached, attached_stats) = faulty_gups_report(Some(plan()), domains, Some(&hub));
        assert!(
            hub.borrow().aggregate_sketch().count() > 0,
            "the hub saw the run"
        );
        assert_eq!(
            format!("{detached:?}"),
            format!("{attached:?}"),
            "a hub moved the report at --domains {domains}"
        );
        assert_eq!(detached_stats, attached_stats, "--domains {domains}");
    }
}

#[test]
fn ring_reroutes_around_a_dead_edge_and_completes() {
    let cfg = FabricConfig::ac510(Topology::Ring, 4, 33);
    let trace = random_reads_in_banks(&cfg.cube.map, VaultId(1), 4, PayloadSize::B32, 40, 3);
    let sim = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(1))]);
    let mut sim = sim
        .with_faults(FaultPlan::new(0).with_dead_edge(0, 1))
        .expect("ring survives one dead edge");
    let report = sim.run_streams();
    assert_eq!(report.ports[0].completed, 40);
    // The direct 0-1 hop is dead: traffic reaches cube 1 the long way
    // (0 → 3 → 2 → 1), so cubes 3 and 2 forward it.
    for c in [3usize, 2] {
        let t = report.cubes[c].transit.as_ref().unwrap();
        assert!(t.forwarded > 0, "cube {c} should carry rerouted traffic");
    }
}

#[test]
fn chain_dead_edge_is_a_loud_build_error() {
    let cfg = FabricConfig::chain(1, 3);
    let trace = one_read_trace(&cfg, 1);
    let err = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0))])
        .with_faults(FaultPlan::new(0).with_dead_edge(1, 2))
        .err()
        .expect("a severed chain must not build");
    assert!(err.contains("unreachable"), "unhelpful error: {err}");
}

/// Pins the event schedule itself, not only its results: a 1-cube
/// system and a 4-cube chain, each with nine 128 B GUPS ports over 16
/// vaults for 5 + 20 µs, must dispatch exactly these events, timer
/// fires and cancellations — the chain on one, two and four engine
/// domains, whose window schedule (rounds, windows, events inside
/// windows) is pinned too. A change that adds, drops or merges events,
/// or moves the lookahead windows, has to re-pin these counts on
/// purpose.
#[test]
fn event_schedule_is_pinned() {
    let run = |cubes: u8, domains: usize| {
        let cfg = FabricConfig::chain(2018, cubes);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let op = hmc_host::GupsOp::Read(PayloadSize::B128);
        let specs = (0..9u8)
            .map(|p| FabricPortSpec::gups(filter, op, CubeId(p % cubes)))
            .collect();
        let mut sim = FabricSim::new(cfg, specs).with_domains(domains);
        let report = sim.run_gups(Delay::from_us(5), Delay::from_us(20));
        let (s, w) = (sim.engine_stats(), sim.sched_stats());
        (
            (
                s.dispatched,
                s.wake_fires,
                s.wake_cancels,
                report.total_accesses(),
            ),
            (w.rounds, w.windows, w.window_events),
        )
    };
    // (dispatched, wake_fires, wake_cancels, total_accesses)
    let chain = (85_352, 21_739, 4_120, 2_847);
    assert_eq!(run(1, 1), ((32_867, 15_194, 2_158, 2_852), (0, 0, 0)));
    assert_eq!(run(4, 1), (chain, (0, 0, 0)));
    // (rounds, windows, window_events)
    for domains in [2, 4] {
        assert_eq!(
            run(4, domains),
            (chain, (15, 480, 85_352)),
            "{domains} domains"
        );
    }
}
