//! Internal calibration probe (not part of the documented examples).
use hmc_sim::prelude::*;

fn run_seed(seed: u64, measure_us: u64) {
    let cfg = FabricConfig::chain(seed, 1);
    let map = cfg.cube.map;
    let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
    let op = GupsOp::Mix {
        size: PayloadSize::B128,
        write_percent: 50,
    };
    let ports = vec![FabricPortSpec::gups(filter, op, CubeId::HOST); 9];
    let mut sim = FabricSim::new(cfg, ports);
    let report = sim.run_gups(Delay::from_us(30), Delay::from_us(measure_us));
    println!(
        "seed {seed:20} measure {measure_us:4}us: {:6.2} GB/s lat {:7.2}us reads {} writes {}",
        report.total_bandwidth_gbs(),
        report.mean_latency_us(),
        report.total_reads(),
        report.total_writes()
    );
    for (label, peak) in sim.device_peak_census(CubeId::HOST) {
        if peak > 40 {
            println!("   {label:20} peak {peak}");
        }
    }
}

fn main() {
    // The exact seed the ext-rw experiment derives for write_percent=50.
    let ctx_seed: u64 = 2018 ^ 0x517C_C1B7_2722_0A95;
    let mut h = ctx_seed;
    for b in "ext-rw".bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    let exp_seed = h.wrapping_add(50u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    run_seed(exp_seed, 120);
    run_seed(1, 120);
    run_seed(2, 120);
    run_seed(3, 120);
}
