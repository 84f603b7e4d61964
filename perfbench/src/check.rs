//! Correctness gates: the simulated-output digest, conservation audits and
//! the Fig. 6 calibration band.
//!
//! A run that is faster but simulates something different must count as a
//! failed operation, never as a gain. Everything folded into the digest is
//! deterministic simulated output, never host time.

use hmc_sim::fabric::CubeId;

use crate::workloads::{Outcome, Workload};

/// The default seed.
pub const DEFAULT_SEED: u64 = 2018;

/// The digest of `w` at the default seed, pinned with the benchmark. A run
/// at the default seed whose digest differs simulated something else than
/// the code the benchmark was defined against.
pub fn pinned(w: Workload) -> u64 {
    match w {
        Workload::CubeReadSat => 0x831f_b770_2c57_40a3,
        Workload::CubeRwBank => 0x47d8_2587_6676_3e5e,
        Workload::Mesh64Read => 0x3e6c_8b4c_900c_ac72,
        Workload::Chain4ChaseHub => 0x02d3_9aa7_396f_8c07,
    }
}

/// 64-bit FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds a run's deterministic simulated outputs into one word: accesses,
/// reads and writes, `sim_end`, engine events and wake fires, per-port
/// issued and completed, per-cube completions, and the latency aggregate.
/// The latency recorder keeps no quantiles, so its count, total, min and
/// max stand in for p50/p99; runs with a hub attached fold the sketch's
/// p50/p99 as well.
pub fn digest(o: &Outcome) -> u64 {
    let mut h = Fnv(digest_sim(o));
    if let Some([p50, p99, _]) = o.tail_ps {
        h.word(p50);
        h.word(p99);
    }
    h.0
}

/// [`digest`] without the hub's quantiles: equal for a run and its twin
/// with the hub flipped or the engine domains changed, since neither may
/// change what is simulated.
pub fn digest_sim(o: &Outcome) -> u64 {
    let r = &o.report;
    let mut h = Fnv::new();
    h.word(r.total_accesses());
    h.word(r.total_reads());
    h.word(r.total_writes());
    h.word(r.sim_end.as_ps());
    h.word(o.engine.dispatched);
    h.word(o.engine.wake_fires);
    for p in &r.ports {
        h.word(p.issued);
        h.word(p.completed);
    }
    for c in 0..r.cubes.len() {
        h.word(r.cube_completions(CubeId(c as u8)));
    }
    let lat = r.aggregate_latency();
    h.word(lat.count());
    h.word(lat.total_ps() as u64);
    h.word((lat.total_ps() >> 64) as u64);
    h.word(lat.min_ps().unwrap_or(0));
    h.word(lat.max_ps().unwrap_or(0));
    h.0
}

/// Accesses the run simulated: every completed request, warmup and drain
/// included — the simulator's unit of work.
pub fn accesses(o: &Outcome) -> u64 {
    o.report.ports.iter().map(|p| p.completed).sum()
}

/// Requests the ports issued that the run never answered: those still
/// queued in the host controller (port FIFOs, request pipeline) when the
/// run quiesced. The host stops ticking at the freeze, so they never leave.
pub fn in_flight_at_end(o: &Outcome) -> u64 {
    o.report
        .ports
        .iter()
        .map(|p| p.issued.saturating_sub(p.completed))
        .sum()
}

/// End-of-run conservation audits.
pub fn conservation(w: Workload, o: &Outcome) -> Result<(), String> {
    let r = &o.report;
    let (acc, reads, writes) = (r.total_accesses(), r.total_reads(), r.total_writes());
    if acc != reads + writes {
        return Err(format!("accesses {acc} != reads {reads} + writes {writes}"));
    }
    if acc == 0 {
        return Err("the run recorded no accesses".to_owned());
    }
    if let Some(p) = r.ports.iter().find(|p| p.completed > p.issued) {
        return Err(format!(
            "{}: completed {} > issued {}",
            p.port, p.completed, p.issued
        ));
    }
    let in_flight = in_flight_at_end(o);
    if in_flight > w.in_flight() as u64 {
        return Err(format!(
            "{in_flight} requests unanswered, more than the {} tags the ports hold",
            w.in_flight()
        ));
    }
    let per_cube: u64 = (0..r.cubes.len())
        .map(|c| r.cube_completions(CubeId(c as u8)))
        .sum();
    if per_cube != acc {
        return Err(format!(
            "per-cube completions {per_cube} != recorded accesses {acc}"
        ));
    }
    // Every issued request is either answered or still in flight, and
    // every completion was answered by a device.
    let issued: u64 = r.ports.iter().map(|p| p.issued).sum();
    let completed = accesses(o);
    let received: u64 = r.cubes.iter().map(|c| c.device.requests_received).sum();
    let sent: u64 = r.cubes.iter().map(|c| c.device.responses_sent).sum();
    if received > issued || sent > received || completed > sent {
        return Err(format!(
            "{issued} issued, {received} received and {sent} answered by devices, \
             {completed} completed"
        ));
    }
    if w == Workload::Mesh64Read && r.cubes_hit() < 64 {
        return Err(format!("mesh64-read hit {} of 64 cubes", r.cubes_hit()));
    }
    Ok(())
}

/// The paper's Fig. 6 anchor for 16-vault 128 B reads: bandwidth (GB/s)
/// and mean latency (µs), each with the band a run must fall in.
pub const FIG6_GBS: f64 = 22.5;
/// Accepted bandwidth band, GB/s.
pub const FIG6_GBS_BAND: (f64, f64) = (22.0, 23.0);
/// Fig. 6 mean latency anchor, µs.
pub const FIG6_US: f64 = 1.2;
/// Accepted mean-latency band, µs (±10 % of the anchor).
pub const FIG6_US_BAND: (f64, f64) = (1.08, 1.32);

/// Simulated bandwidth and latency against the Fig. 6 anchor.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Simulated bidirectional bandwidth, GB/s.
    pub gbs: f64,
    /// Simulated mean round-trip latency, µs.
    pub us: f64,
}

impl Calibration {
    /// Relative bandwidth error against the anchor.
    pub fn gbs_error(&self) -> f64 {
        (self.gbs - FIG6_GBS) / FIG6_GBS
    }

    /// Relative latency error against the anchor.
    pub fn us_error(&self) -> f64 {
        (self.us - FIG6_US) / FIG6_US
    }

    /// Checks both values against their bands.
    pub fn check(&self) -> Result<(), String> {
        let inside = |v: f64, (lo, hi): (f64, f64)| (lo..=hi).contains(&v);
        if !inside(self.gbs, FIG6_GBS_BAND) || !inside(self.us, FIG6_US_BAND) {
            return Err(format!(
                "outside the Fig. 6 band: {:.3} GB/s (band {:?}), {:.4} us (band {:?})",
                self.gbs, FIG6_GBS_BAND, self.us, FIG6_US_BAND
            ));
        }
        Ok(())
    }
}

/// The Fig. 6 comparison, for the one workload with a silicon reference.
pub fn calibration(w: Workload, o: &Outcome) -> Option<Calibration> {
    (w == Workload::CubeReadSat).then(|| Calibration {
        gbs: o.report.total_bandwidth_gbs(),
        us: o.report.mean_latency_us(),
    })
}
