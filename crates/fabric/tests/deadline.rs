//! A watchdog deadline that elapses mid-run must leave the run alone.
//!
//! Its own test binary: the deadline is process-wide state, and a
//! deadline that reached into running simulations would cut short every
//! concurrent test's run in the same process, not just this one's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hmc_des::{Delay, EngineStats};
use hmc_fabric::watchdog::Deadline;
use hmc_fabric::{CubePolicy, FabricAddressMap, FabricConfig, FabricPortSpec, FabricSim};
use hmc_packet::PayloadSize;
use hmc_workloads::GupsOp;

/// An 8-cube chain under interleaved GUPS from nine 64 B ports, split
/// over four engine domains so phase barriers are in flight.
fn run() -> (String, EngineStats) {
    let cubes = 8;
    let cfg = FabricConfig::chain(2018, cubes);
    let map = FabricAddressMap::new(CubePolicy::Interleaved, cubes, &cfg.cube.map);
    let specs = vec![FabricPortSpec::global_gups(GupsOp::Read(PayloadSize::B64), map); 9];
    let mut sim = FabricSim::new(cfg, specs).with_domains(4);
    let report = sim.run_gups(Delay::from_us(10), Delay::from_us(200));
    (format!("{report:?}"), sim.engine_stats())
}

#[test]
fn a_deadline_that_elapses_mid_run_leaves_the_report_whole() {
    let plain = run();
    let fired = Arc::new(AtomicBool::new(false));
    let flag = fired.clone();
    let deadline = Deadline::arm(Duration::from_millis(20), move || {
        flag.store(true, Ordering::Release);
    });
    let armed = run();
    drop(deadline);
    assert!(
        fired.load(Ordering::Acquire),
        "the run ended before the deadline, so it tested nothing"
    );
    assert!(plain.1.dispatched > 0);
    assert_eq!(plain.1, armed.1, "the deadline moved the engine counters");
    assert_eq!(plain.0, armed.0, "the deadline moved the report");
}
