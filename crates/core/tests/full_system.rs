//! Integration tests of the assembled measurement stack: conservation,
//! determinism, calibration anchors and the paper's qualitative orderings,
//! exercised through the public `hmc_sim` API exactly as the experiment
//! harness uses it.

use hmc_sim::prelude::*;
use hmc_sim::workloads::{random_reads_in_banks, random_reads_in_vaults};

fn gups(seed: u64, pattern: AccessPattern, size: PayloadSize, ports: usize) -> RunReport {
    let cfg = FabricConfig::chain(seed, 1);
    let filter = pattern.filter(&cfg.cube.map);
    let specs = vec![FabricPortSpec::gups(filter, GupsOp::Read(size), CubeId::HOST); ports];
    FabricSim::new(cfg, specs).run_gups(Delay::from_us(10), Delay::from_us(40))
}

#[test]
fn no_load_round_trip_matches_paper_calibration() {
    // Figure 7 at n=1: ~0.7 µs through FPGA + links + cube, for every
    // request size.
    for size in PayloadSize::PAPER_SWEEP {
        let cfg = FabricConfig::chain(3, 1);
        let map = cfg.cube.map;
        let trace = random_reads_in_banks(&map, VaultId(2), 16, size, 1, 3);
        let report =
            FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId::HOST)]).run_streams();
        let us = report.mean_latency_us();
        assert!(
            (0.55..=0.85).contains(&us),
            "{size} no-load round trip {us} µs outside the 0.7 µs band"
        );
    }
}

#[test]
fn stream_runs_conserve_requests() {
    let cfg = FabricConfig::chain(5, 1);
    let map = cfg.cube.map;
    let all: Vec<VaultId> = (0..16).map(VaultId).collect();
    let specs: Vec<FabricPortSpec> = (0..4u64)
        .map(|p| {
            FabricPortSpec::stream(
                random_reads_in_vaults(&map, &all, PayloadSize::B32, 300, 5 + p),
                CubeId::HOST,
            )
        })
        .collect();
    let report = FabricSim::new(cfg, specs).run_streams();
    for port in &report.ports {
        assert_eq!(port.issued, 300, "every trace entry issued");
        assert_eq!(port.completed, 300, "every request answered");
        assert_eq!(port.latency.count(), 300, "every response recorded");
    }
    assert_eq!(report.device.requests_received, 1_200);
    assert_eq!(report.device.responses_sent, 1_200);
    let serviced: u64 = report.device.per_vault_serviced.iter().sum();
    assert_eq!(
        serviced, 1_200,
        "every request serviced by exactly one vault"
    );
}

#[test]
fn gups_runs_are_deterministic_in_seed() {
    let summary = |seed: u64| {
        let r = gups(
            seed,
            AccessPattern::Vaults { count: 8 },
            PayloadSize::B64,
            5,
        );
        (
            r.total_accesses(),
            r.aggregate_latency().total_ps(),
            r.device.requests_received,
            r.device.switch_conflicts,
        )
    };
    assert_eq!(summary(42), summary(42), "identical seeds, identical runs");
    assert_ne!(summary(42), summary(43), "different seeds actually differ");
}

#[test]
fn bandwidth_ceilings_are_ordered_like_figure_6() {
    let b1 = gups(
        7,
        AccessPattern::Banks {
            vault: VaultId(0),
            count: 1,
        },
        PayloadSize::B128,
        9,
    );
    let v1 = gups(7, AccessPattern::Vaults { count: 1 }, PayloadSize::B128, 9);
    let v16 = gups(7, AccessPattern::Vaults { count: 16 }, PayloadSize::B128, 9);
    // Strictly increasing bandwidth with distribution.
    assert!(b1.total_bandwidth_gbs() < v1.total_bandwidth_gbs());
    assert!(v1.total_bandwidth_gbs() < v16.total_bandwidth_gbs());
    // Strictly decreasing latency with distribution.
    assert!(b1.mean_latency_us() > v1.mean_latency_us());
    assert!(v1.mean_latency_us() > v16.mean_latency_us());
    // Absolute anchors (generous bands around the paper's 23 / ~12.5 / 2–4).
    assert!((18.0..=27.0).contains(&v16.total_bandwidth_gbs()));
    assert!((9.0..=15.0).contains(&v1.total_bandwidth_gbs()));
    assert!((1.0..=6.0).contains(&b1.total_bandwidth_gbs()));
}

#[test]
fn request_size_orders_bandwidth_and_latency() {
    // Section IV-A: "large packet sizes utilize available bandwidth more
    // effectively at the cost of added latency".
    let reports: Vec<RunReport> = PayloadSize::PAPER_SWEEP
        .iter()
        .map(|&size| gups(9, AccessPattern::Vaults { count: 16 }, size, 9))
        .collect();
    for pair in reports.windows(2) {
        assert!(
            pair[1].total_bandwidth_gbs() > pair[0].total_bandwidth_gbs(),
            "bandwidth must grow with request size"
        );
        assert!(
            pair[1].mean_latency_us() >= pair[0].mean_latency_us() * 0.98,
            "latency must not shrink with request size"
        );
    }
}

#[test]
fn monitors_only_record_the_measurement_window() {
    let report = gups(11, AccessPattern::Vaults { count: 16 }, PayloadSize::B64, 3);
    // Total traffic includes warmup and drain, so issued > recorded.
    let recorded = report.total_accesses();
    let issued: u64 = report.ports.iter().map(|p| p.issued).sum();
    assert!(
        issued > recorded,
        "warmup traffic must exist ({issued} vs {recorded})"
    );
    // The window is the configured 40 µs.
    assert_eq!(report.elapsed, Delay::from_us(40));
}

#[test]
fn little_law_estimate_is_self_consistent() {
    let report = gups(13, AccessPattern::Vaults { count: 4 }, PayloadSize::B64, 9);
    let n = report.estimated_outstanding();
    // Outstanding can never exceed the aggregate tag pool.
    assert!(n > 1.0, "saturating run keeps requests in flight");
    assert!(
        n < f64::from(GUPS_TAGS) * 9.0 * 1.02,
        "outstanding {n} above tag pool"
    );
}

#[test]
fn stream_and_gups_agree_at_low_load() {
    // One in-flight request at a time: a GUPS port with one tag and a
    // 1-request stream should see the same unloaded round trip.
    let cfg = FabricConfig::chain(17, 1);
    let map = cfg.cube.map;
    let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
    let specs = vec![
        FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B32), CubeId::HOST).with_tags(1),
    ];
    let gups_report = FabricSim::new(cfg, specs).run_gups(Delay::from_us(5), Delay::from_us(20));
    let cfg = FabricConfig::chain(17, 1);
    let trace = random_reads_in_vaults(
        &map,
        &(0..16).map(VaultId).collect::<Vec<_>>(),
        PayloadSize::B32,
        1,
        17,
    );
    let stream_report =
        FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId::HOST)]).run_streams();
    let g = gups_report.mean_latency_ns();
    let s = stream_report.mean_latency_ns();
    // Stream ports pay one extra address flit on the RX path (~5 ns).
    assert!(
        (g - s).abs() < 60.0,
        "firmware paths disagree at no load: GUPS {g} ns vs stream {s} ns"
    );
}

#[test]
fn idle_skip_cuts_dispatched_events_by_10x_at_low_load() {
    // The low-load end of the Figure 6 latency-vs-load curve: a single
    // GUPS read port with one tag hammering one bank, so exactly one
    // request is in flight and the host spends ~130 of every ~131 FPGA
    // cycles idle. The event-driven core must sleep through those cycles:
    // per-cycle ticking would dispatch at least one event per simulated
    // FPGA cycle, so `dispatched` staying 10x below the cycle count
    // proves the >10x reduction the refactor promises.
    let cfg = FabricConfig::chain(2018, 1);
    let filter = AccessPattern::Banks {
        vault: VaultId(0),
        count: 1,
    }
    .filter(&cfg.cube.map);
    let specs = vec![
        FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B16), CubeId::HOST).with_tags(1),
    ];
    let mut sim = FabricSim::new(cfg, specs);
    let report = sim.run_gups(Delay::from_us(10), Delay::from_us(40));
    assert!(report.total_accesses() > 0, "the run moved real traffic");
    let stats = sim.engine_stats();
    let period = HostConfig::ac510_default().fpga_period;
    let cycles = report.sim_end.as_ps() / period.as_ps();
    assert!(
        stats.dispatched * 10 < cycles,
        "idle-skip regressed: {} events dispatched over {} host cycles \
         (per-cycle ticking would dispatch at least one per cycle)",
        stats.dispatched,
        cycles
    );
    assert!(
        stats.wake_fires > 0,
        "the host must be running on timer wakeups, not per-cycle messages"
    );
}

#[test]
fn saturated_host_no_longer_retries_every_cycle_on_serializer_room() {
    // A saturated Figure 6 point (9 ports of 128 B reads hammering one
    // bank): the ports are FIFO/tag-blocked and the staged pipeline waits
    // on serializer room for most of the run. The old host retried every
    // FPGA cycle while a staged packet waited on *room*; the wake is now
    // derived from the wire-drain schedule, so timer fires must stay well
    // below one per simulated cycle (per-cycle retrying fired at least
    // one), and total dispatched events follow.
    let cfg = FabricConfig::chain(2018, 1);
    let filter = AccessPattern::Banks {
        vault: VaultId(0),
        count: 1,
    }
    .filter(&cfg.cube.map);
    let specs =
        vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
    let mut sim = FabricSim::new(cfg, specs);
    let report = sim.run_gups(Delay::from_us(10), Delay::from_us(40));
    assert!(report.total_accesses() > 0, "the run moved real traffic");
    let stats = sim.engine_stats();
    let period = HostConfig::ac510_default().fpga_period;
    let cycles = report.sim_end.as_ps() / period.as_ps();
    assert!(
        stats.wake_fires < cycles,
        "serializer-room wake regressed: {} timer fires over {} host cycles \
         (a host retrying every blocked cycle fires at least one per cycle)",
        stats.wake_fires,
        cycles
    );
    assert!(
        stats.dispatched * 2 < cycles * 3,
        "dispatched events regressed: {} over {} cycles",
        stats.dispatched,
        cycles
    );
}

#[test]
fn single_walker_chase_equals_its_serial_replay_exactly() {
    // The closed-loop pointer chase must cost exactly what an open-loop
    // replay of the same addresses costs when both are strictly serial:
    // the chain is deterministic, so unroll it into a trace and replay it
    // with a 1-tag stream port. Latency aggregates must match to the
    // picosecond — the chase adds no phantom time and saves none.
    let map = AddressMap::hmc_gen2_default();
    let vaults: Vec<VaultId> = (0..16).map(VaultId).collect();
    let hops = 40;
    let chase =
        hmc_sim::workloads::PointerChase::new(&map, &vaults, PayloadSize::B64, 1, hops, 2017);
    let trace = chase.unrolled_trace();
    let chase_report = FabricSim::new(
        FabricConfig::chain(6, 1),
        vec![FabricPortSpec::from_source(
            move |_| Box::new(chase.clone()),
            CubeId::HOST,
        )],
    )
    .run_streams();
    let replay_report = FabricSim::new(
        FabricConfig::chain(6, 1),
        vec![FabricPortSpec::stream(trace, CubeId::HOST).with_tags(1)],
    )
    .run_streams();
    assert_eq!(chase_report.ports[0].completed, hops);
    assert_eq!(
        chase_report.aggregate_latency().total_ps(),
        replay_report.aggregate_latency().total_ps(),
        "chase and serial replay must cost identical total time"
    );
    assert_eq!(
        chase_report.aggregate_latency().max_us(),
        replay_report.aggregate_latency().max_us()
    );
    // And the per-hop round trip sits in the paper's unloaded band
    // (Figure 7 at n=1: ~0.7 µs through FPGA + links + cube).
    let us = chase_report.mean_latency_us();
    assert!(
        (0.55..=0.85).contains(&us),
        "unloaded chase hop {us} µs outside the 0.7 µs band"
    );
}

#[test]
fn closed_loop_runs_replay_byte_identically() {
    // Determinism of the closed-loop pipeline end to end: a mixed system
    // (pointer chase + NOM offload on one host) must produce bit-equal
    // reports on every run.
    let run = || {
        let cfg = FabricConfig::chain(9, 1);
        let map = cfg.cube.map;
        let vaults: Vec<VaultId> = (0..16).map(VaultId).collect();
        let chase = FabricPortSpec::from_source(
            move |seed| {
                Box::new(hmc_sim::workloads::PointerChase::new(
                    &map,
                    &vaults,
                    PayloadSize::B32,
                    4,
                    50,
                    seed,
                ))
            },
            CubeId::HOST,
        );
        let offload = FabricPortSpec::from_source(
            move |_| {
                Box::new(hmc_sim::workloads::OffloadSource::new(
                    &map,
                    VaultId(1),
                    VaultId(9),
                    PayloadSize::B128,
                    100,
                    8,
                ))
            },
            CubeId::HOST,
        );
        let report = FabricSim::new(cfg, vec![chase, offload]).run_streams();
        (
            report.aggregate_latency().total_ps(),
            report.total_reads(),
            report.total_writes(),
            report.sim_end,
        )
    };
    assert_eq!(run(), run(), "closed-loop runs must be reproducible");
}

#[test]
fn writes_round_trip_through_the_full_stack() {
    let cfg = FabricConfig::chain(19, 1);
    let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
    let specs =
        vec![FabricPortSpec::gups(filter, GupsOp::Write(PayloadSize::B128), CubeId::HOST); 4];
    let report = FabricSim::new(cfg, specs).run_gups(Delay::from_us(10), Delay::from_us(40));
    assert!(report.total_writes() > 0, "writes recorded");
    assert_eq!(report.total_reads(), 0, "write-only run");
    assert!(
        report.total_bandwidth_gbs() > 5.0,
        "writes move real bandwidth"
    );
}

#[test]
fn hot_path_allocations_are_bounded_not_per_event() {
    // The zero-allocation hot-path claim, asserted: every per-event
    // buffer (switch departures, link deliveries, device outputs, host
    // events) is a reused scratch that allocates only while growing to
    // the workload's peak burst — never per dispatch. EngineStats counts
    // each such allocation (`scratch_spills`). Run the saturated Figure 6
    // point at two measurement lengths: the event count scales ~4x, the
    // spill count must not grow at all once buffers are warm (a small
    // additive slack covers bursts first reached late in the longer run).
    let run = |measure_us: u64| {
        let cfg = FabricConfig::chain(2018, 1);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let specs =
            vec![FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST); 9];
        let mut sim = FabricSim::new(cfg, specs);
        let report = sim.run_gups(Delay::from_us(10), Delay::from_us(measure_us));
        assert!(report.total_accesses() > 0, "the run moved real traffic");
        sim.engine_stats()
    };
    let short = run(30);
    let long = run(120);
    assert!(
        long.dispatched > short.dispatched * 3,
        "the long run must dispatch ~4x the events ({} vs {})",
        long.dispatched,
        short.dispatched
    );
    assert!(
        long.scratch_spills <= short.scratch_spills + 4,
        "hot-path allocations must be bounded by burst shape, not run length: \
         short run spilled {} times, long run {} times over {} events",
        short.scratch_spills,
        long.scratch_spills,
        long.dispatched
    );
    // And in absolute terms the whole saturated run allocates at most a
    // few dozen times across hundreds of thousands of events.
    assert!(
        long.scratch_spills < 64,
        "scratch buffers spilled {} times — hot path is allocating",
        long.scratch_spills
    );
}
