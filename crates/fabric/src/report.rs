//! Run reports: what an experiment learns from one simulation, per port,
//! per cube and end-to-end.

use hmc_des::{Delay, Time};
use hmc_device::DeviceStats;
use hmc_link::LinkStats;
use hmc_packet::PortId;
use hmc_stats::{BandwidthMeter, LatencySketch};

use crate::config::CubeId;

/// Per-port measurement results — the counters the FPGA monitoring logic
/// reports back to the host after a run (Section III-B).
#[derive(Debug, Clone)]
pub struct PortReport {
    /// The port.
    pub port: PortId,
    /// The traffic source's reporting label (`"gups"`, `"stream"`,
    /// `"chase"`, `"offload"`, ...).
    pub source: &'static str,
    /// Requests issued (including unrecorded warmup traffic).
    pub issued: u64,
    /// Responses received (including unrecorded warmup traffic).
    pub completed: u64,
    /// Latency aggregate and quantile sketch over the measurement window.
    pub latency: LatencySketch,
    /// Byte counter over the measurement window (paper bandwidth units:
    /// request + response packets including header, tail and payload).
    pub bytes: BandwidthMeter,
    /// Read transactions recorded in the measurement window.
    pub reads: u64,
    /// Write transactions recorded in the measurement window.
    pub writes: u64,
    /// The cube this port statically targeted, or `None` for an
    /// address-targeted (split) stream whose CUB field is derived per
    /// request — read [`PortReport::cube_completions`] for those.
    pub cube: Option<CubeId>,
    /// Completions recorded in the measurement window per destination
    /// cube — the per-cube attribution of a split stream. Compact,
    /// fabric-sized storage: indexed by [`CubeId::index`], grown only as
    /// far as the highest cube this port completed against (so 64-wide
    /// fabrics don't bloat every port); absent entries mean zero. For a
    /// fixed-targeting port only the targeted cube's slot is nonzero.
    pub cube_completions: Vec<u64>,
}

/// Counters of one cube's pass-through stage (absent on a single-cube
/// system, where no pass-through stage exists).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransitStats {
    /// Packets forwarded through the pass-through crossbar (local
    /// deliveries and transit alike).
    pub forwarded: u64,
    /// Crossbar grants where several inputs contended for one output —
    /// the fabric-level analogue of the device's switch conflicts.
    pub arbitration_conflicts: u64,
    /// Peak occupancy of each crossbar input, in flits.
    pub peak_input_flits: Vec<u32>,
    /// Serializer counters of each outbound fabric/host link, in port
    /// order.
    pub link_stats: Vec<LinkStats>,
}

/// One cube's share of a run.
#[derive(Debug, Clone)]
pub struct CubeReport {
    /// The cube.
    pub cube: CubeId,
    /// The cube-internal counters (vaults, quadrant switches, links).
    pub device: DeviceStats,
    /// Pass-through counters; `None` on a single-cube system.
    pub transit: Option<TransitStats>,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-port results, in port order.
    pub ports: Vec<PortReport>,
    /// Length of the measurement window.
    pub elapsed: Delay,
    /// Per-cube results, in cube order.
    pub cubes: Vec<CubeReport>,
    /// Simulation time when the run quiesced.
    pub sim_end: Time,
}

impl RunReport {
    /// Merged latency aggregate across all ports.
    pub fn aggregate_latency(&self) -> LatencySketch {
        let mut total = LatencySketch::new();
        for p in &self.ports {
            total.merge(&p.latency);
        }
        total
    }

    /// Merged latency aggregate across the ports *statically* targeting
    /// one cube (address-targeted ports span cubes and are excluded; use
    /// [`RunReport::cube_completions`] for their per-cube attribution).
    pub fn cube_latency(&self, cube: CubeId) -> LatencySketch {
        let mut total = LatencySketch::new();
        for p in self.ports.iter().filter(|p| p.cube == Some(cube)) {
            total.merge(&p.latency);
        }
        total
    }

    /// `[p50, p99, p999]` round-trip picoseconds across all ports, or
    /// `None` if nothing completed in the measurement window.
    pub fn latency_tail_ps(&self) -> Option<[u64; 3]> {
        self.aggregate_latency().tail_ps()
    }

    /// Bidirectional bandwidth moved by the ports statically targeting
    /// one cube, GB/s over the measurement window.
    pub fn cube_bandwidth_gbs(&self, cube: CubeId) -> f64 {
        self.gbs_over_window(
            self.ports
                .iter()
                .filter(|p| p.cube == Some(cube))
                .map(|p| p.bytes.bytes())
                .sum(),
        )
    }

    /// Bidirectional bandwidth moved by the ports whose source carries
    /// `label` (e.g. `"gups"`, `"chase"`), GB/s over the measurement
    /// window — the bandwidth half of [`RunReport::source_summary`].
    pub fn source_bandwidth_gbs(&self, label: &str) -> f64 {
        self.gbs_over_window(
            self.ports
                .iter()
                .filter(|p| p.source == label)
                .map(|p| p.bytes.bytes())
                .sum(),
        )
    }

    /// The paper's bandwidth formula: `bytes` over the measurement
    /// window, in GB/s (zero for an empty window).
    fn gbs_over_window(&self, bytes: u64) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        bytes as f64 * 1e3 / self.elapsed.as_ps() as f64
    }

    /// Completions recorded against one destination cube, summed over
    /// every port — covers both fixed-targeting ports and split
    /// (address-targeted) streams, whose requests the host attributed per
    /// packet when it stamped the CUB field.
    pub fn cube_completions(&self, cube: CubeId) -> u64 {
        self.ports
            .iter()
            .map(|p| p.cube_completions.get(cube.index()).copied().unwrap_or(0))
            .sum()
    }

    /// Number of cubes that completed at least one recorded request — how
    /// widely a run's traffic actually spread across the fabric.
    pub fn cubes_hit(&self) -> usize {
        let span = self
            .ports
            .iter()
            .map(|p| p.cube_completions.len())
            .max()
            .unwrap_or(0);
        CubeId::all(span as u8)
            .filter(|&c| self.cube_completions(c) > 0)
            .count()
    }

    /// Mean latency in nanoseconds of every recorded completion, reads
    /// and writes alike, across all ports.
    pub fn mean_latency_ns(&self) -> f64 {
        self.aggregate_latency().mean_ns()
    }

    /// [`RunReport::mean_latency_ns`] in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.mean_latency_ns() / 1e3
    }

    /// Maximum observed latency in microseconds across all ports.
    pub fn max_latency_us(&self) -> f64 {
        self.ports
            .iter()
            .map(|p| p.latency.max_us())
            .fold(0.0, f64::max)
    }

    /// Total accesses recorded in the measurement window.
    pub fn total_accesses(&self) -> u64 {
        self.ports.iter().map(|p| p.bytes.accesses()).sum()
    }

    /// Recorded reads across ports.
    pub fn total_reads(&self) -> u64 {
        self.ports.iter().map(|p| p.reads).sum()
    }

    /// Recorded writes across ports.
    pub fn total_writes(&self) -> u64 {
        self.ports.iter().map(|p| p.writes).sum()
    }

    /// Bidirectional bandwidth in GB/s over the measurement window, by the
    /// paper's formula (total request + response bytes / elapsed time).
    pub fn total_bandwidth_gbs(&self) -> f64 {
        self.gbs_over_window(self.ports.iter().map(|p| p.bytes.bytes()).sum())
    }

    /// Access throughput in accesses per second.
    pub(crate) fn accesses_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_accesses() as f64 * 1e12 / self.elapsed.as_ps() as f64
    }

    /// Little's-law estimate of mean outstanding requests during the
    /// window: arrival rate × mean time in system — the calculation behind
    /// Figure 14.
    pub fn estimated_outstanding(&self) -> f64 {
        self.accesses_per_second() * self.mean_latency_ns() * 1e-9
    }

    /// End-to-end switch contention: arbitration conflicts summed over
    /// every cube's internal quadrant switches *and* every pass-through
    /// crossbar — the fabric-wide version of the paper's NoC contention
    /// measure.
    pub fn total_switch_conflicts(&self) -> u64 {
        self.cubes
            .iter()
            .map(|c| {
                c.device.switch_conflicts
                    + c.transit.as_ref().map_or(0, |t| t.arbitration_conflicts)
            })
            .sum()
    }

    /// Per-source completion summary: for each distinct source label, the
    /// total requests issued, responses completed, and the merged latency
    /// aggregate — the closed-loop pipeline's per-source view of a mixed
    /// run (e.g. offload streams contending with GUPS background load).
    pub fn source_summary(&self) -> Vec<(&'static str, u64, u64, LatencySketch)> {
        let mut out: Vec<(&'static str, u64, u64, LatencySketch)> = Vec::new();
        for p in &self.ports {
            match out.iter_mut().find(|(label, ..)| *label == p.source) {
                Some((_, issued, completed, latency)) => {
                    *issued += p.issued;
                    *completed += p.completed;
                    latency.merge(&p.latency);
                }
                None => out.push((p.source, p.issued, p.completed, p.latency.clone())),
            }
        }
        out
    }

    /// Packets forwarded by pass-through crossbars across all cubes.
    pub fn transit_forwarded(&self) -> u64 {
        self.cubes
            .iter()
            .filter_map(|c| c.transit.as_ref())
            .map(|t| t.forwarded)
            .sum()
    }

    /// Sums the retry-protocol counters over every transit-stage link in
    /// the fabric. All-zero on a fault-free run — the injection path is
    /// observably free when no [`crate::FaultPlan`] is armed.
    pub fn link_fault_totals(&self) -> LinkFaultTotals {
        let mut out = LinkFaultTotals::default();
        for stats in self
            .cubes
            .iter()
            .filter_map(|c| c.transit.as_ref())
            .flat_map(|t| t.link_stats.iter())
        {
            out.crc_errors += stats.crc_errors;
            out.down_drops += stats.down_drops;
            out.retries += stats.retries;
            out.retransmitted_flits += stats.retransmitted_flits;
            out.degraded_links += u64::from(stats.degraded);
        }
        out
    }
}

/// Fabric-wide sums of the per-link retry-protocol counters
/// ([`RunReport::link_fault_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultTotals {
    /// Transmissions the receiver rejected on CRC.
    pub crc_errors: u64,
    /// Transmissions cut by a link-down window.
    pub down_drops: u64,
    /// Retransmissions from retry buffers (`crc_errors + down_drops`).
    pub retries: u64,
    /// Flits of failed attempts that were re-serialized.
    pub retransmitted_flits: u64,
    /// Links latched at half width by the end of the run.
    pub degraded_links: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(latencies_ns: &[u64], bytes_per_access: u64, elapsed: Delay) -> RunReport {
        let mut latency = LatencySketch::new();
        let mut meter = BandwidthMeter::new();
        for &ns in latencies_ns {
            latency.record_ps(ns * 1_000);
            meter.add_bytes(bytes_per_access);
        }
        let cube_completions = vec![latencies_ns.len() as u64];
        RunReport {
            ports: vec![PortReport {
                port: PortId(0),
                source: "test",
                issued: latencies_ns.len() as u64,
                completed: latencies_ns.len() as u64,
                latency,
                bytes: meter,
                reads: latencies_ns.len() as u64,
                writes: 0,
                cube: Some(CubeId(0)),
                cube_completions,
            }],
            elapsed,
            cubes: vec![CubeReport {
                cube: CubeId(0),
                device: DeviceStats::default(),
                transit: None,
            }],
            sim_end: Time::ZERO + elapsed,
        }
    }

    #[test]
    fn bandwidth_uses_paper_formula() {
        // 10 accesses × 160 B in 1 µs = 1.6 GB/s.
        let r = report_with(&[1_000; 10], 160, Delay::from_us(1));
        assert!((r.total_bandwidth_gbs() - 1.6).abs() < 1e-9);
        assert_eq!(r.total_accesses(), 10);
        // All traffic targets cube 0.
        assert!((r.cube_bandwidth_gbs(CubeId(0)) - 1.6).abs() < 1e-9);
        assert_eq!(r.cube_bandwidth_gbs(CubeId(3)), 0.0);
    }

    #[test]
    fn little_law_identity() {
        // 10 accesses in 1 µs at 500 ns each → 10e6/s × 0.5e-6 s = 5.
        let r = report_with(&[500; 10], 48, Delay::from_us(1));
        assert!((r.estimated_outstanding() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn latency_aggregation() {
        let r = report_with(&[100, 300], 48, Delay::from_us(1));
        assert_eq!(r.mean_latency_ns(), 200.0);
        assert_eq!(r.max_latency_us(), 0.3);
        assert_eq!(r.cube_latency(CubeId(0)).count(), 2);
        assert_eq!(r.cube_latency(CubeId(1)).count(), 0);
    }

    #[test]
    fn empty_window_is_safe() {
        let r = report_with(&[], 0, Delay::ZERO);
        assert_eq!(r.total_bandwidth_gbs(), 0.0);
        assert_eq!(r.accesses_per_second(), 0.0);
        assert_eq!(r.estimated_outstanding(), 0.0);
    }

    #[test]
    fn fabric_aggregates_cover_all_cubes() {
        let mut r = report_with(&[100], 48, Delay::from_us(1));
        r.cubes.push(CubeReport {
            cube: CubeId(1),
            device: DeviceStats {
                switch_conflicts: 5,
                ..DeviceStats::default()
            },
            transit: Some(TransitStats {
                forwarded: 12,
                arbitration_conflicts: 3,
                peak_input_flits: vec![9, 0],
                link_stats: vec![LinkStats {
                    token_stalls: 2,
                    ..LinkStats::default()
                }],
            }),
        });
        assert_eq!(r.total_switch_conflicts(), 8);
        assert_eq!(r.transit_forwarded(), 12);
    }
}
