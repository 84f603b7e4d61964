//! # hmc-ddr
//!
//! A synchronous-bus DDR4-style memory channel: the "traditional DDRx"
//! comparator the reproduced paper contrasts the HMC against. The paper's
//! claim (Section IV-B) is that "since HMC utilizes a packet-switched
//! interface to vault controllers in its logic layer, the observed average
//! latency of the HMC is higher than that of traditional DDRx"; this crate
//! provides the DDR side of that comparison.
//!
//! Structurally, one DDR channel is the same shape as one HMC vault — a
//! set of banks behind a shared data bus — so the model reuses
//! [`hmc_dram::VaultMemory`] with DDR4 timing and a 64 B bus slot (8n
//! prefetch over a 64-bit bus at 2400 MT/s ≈ 3.33 ns), fronted by a short
//! synchronous controller pipeline instead of packetization, SerDes and a
//! NoC.
//!
//! ```
//! use hmc_ddr::DdrChannel;
//!
//! let mut ddr = DdrChannel::ddr4_2400();
//! let report = ddr.run_closed_loop(4, 2_000, 64, 7);
//! assert!(report.mean_latency_ns < 200.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hmc_des::{Delay, Time};
use hmc_dram::{DramTiming, VaultMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of one DDR channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrConfig {
    /// Banks on the channel (a typical DDR4 DIMM exposes 16).
    pub banks: usize,
    /// Core DRAM timing.
    pub timing: DramTiming,
    /// Bytes moved per bus slot (64 B burst for DDR4 x64).
    pub burst_bytes: u32,
    /// Controller latency on the command path (queue, decode, PHY).
    pub ctrl_latency_req: Delay,
    /// Controller latency on the return path.
    pub ctrl_latency_resp: Delay,
}

impl DdrConfig {
    /// A single-channel DDR4-2400 DIMM.
    pub(crate) fn ddr4_2400() -> DdrConfig {
        DdrConfig {
            banks: 16,
            timing: DramTiming::ddr4_2400(),
            burst_bytes: 64,
            ctrl_latency_req: Delay::from_ps(12_000),
            ctrl_latency_resp: Delay::from_ps(12_000),
        }
    }
}

impl Default for DdrConfig {
    fn default() -> DdrConfig {
        DdrConfig::ddr4_2400()
    }
}

/// Results of a closed-loop run against the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrReport {
    /// Requests completed.
    pub requests: u64,
    /// Mean end-to-end latency in nanoseconds.
    pub mean_latency_ns: f64,
    /// Maximum observed latency in nanoseconds.
    pub max_latency_ns: f64,
    /// Data bandwidth in GB/s (payload bytes only, matching how DDR
    /// bandwidth is conventionally quoted).
    pub data_gb_per_s: f64,
}

/// One DDR channel: banks behind a shared bus, driven synchronously.
#[derive(Debug, Clone)]
pub struct DdrChannel {
    cfg: DdrConfig,
    memory: VaultMemory,
}

impl DdrChannel {
    /// Builds a channel from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks or invalid timing.
    pub(crate) fn new(cfg: DdrConfig) -> DdrChannel {
        DdrChannel {
            cfg,
            memory: VaultMemory::new(cfg.banks, cfg.timing),
        }
    }

    /// A DDR4-2400 channel.
    pub fn ddr4_2400() -> DdrChannel {
        DdrChannel::new(DdrConfig::ddr4_2400())
    }

    /// The unloaded random-read latency: controller in + closed-page
    /// access + one burst + controller out.
    pub fn no_load_latency(&self) -> Delay {
        let t = &self.cfg.timing;
        self.cfg.ctrl_latency_req + t.t_rcd + t.t_cl + t.t_ccd + self.cfg.ctrl_latency_resp
    }

    /// Runs a closed-loop random-read workload: `clients` independent
    /// requesters, each keeping exactly one request in flight, for
    /// `requests` total reads of `size_bytes` each, to uniformly random
    /// banks. Returns latency and bandwidth.
    ///
    /// This mirrors how memory-level parallelism reaches a DDR controller
    /// from a CPU (one miss per MSHR), making latency-vs-load directly
    /// comparable with the HMC stream experiments.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `requests` is zero or `size_bytes` is zero.
    pub fn run_closed_loop(
        &mut self,
        clients: usize,
        requests: u64,
        size_bytes: u32,
        seed: u64,
    ) -> DdrReport {
        assert!(
            clients > 0 && requests > 0 && size_bytes > 0,
            "degenerate workload"
        );
        let bursts = size_bytes.div_ceil(self.cfg.burst_bytes);
        let mut rng = SmallRng::seed_from_u64(seed);
        // (next issue time, client id) min-heap.
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
        for c in 0..clients {
            heap.push(Reverse((Time::ZERO, c)));
        }
        let mut issued = 0u64;
        let mut sum_latency_ps = 0u128;
        let mut max_latency_ps = 0u64;
        let mut last_done = Time::ZERO;
        while let Some(Reverse((at, client))) = heap.pop() {
            if issued >= requests {
                break;
            }
            issued += 1;
            let bank = rng.gen_range(0..self.cfg.banks);
            let start = at + self.cfg.ctrl_latency_req;
            let data_done = self.memory.read(start, bank, bursts);
            let done = data_done + self.cfg.ctrl_latency_resp;
            let latency = (done - at).as_ps();
            sum_latency_ps += u128::from(latency);
            max_latency_ps = max_latency_ps.max(latency);
            last_done = last_done.max(done);
            heap.push(Reverse((done, client)));
        }
        let mean_latency_ns = sum_latency_ps as f64 / issued as f64 / 1e3;
        let data_bytes = issued as f64 * f64::from(size_bytes);
        let data_gb_per_s = data_bytes * 1e3 / last_done.as_ps().max(1) as f64;
        DdrReport {
            requests: issued,
            mean_latency_ns,
            max_latency_ns: max_latency_ps as f64 / 1e3,
            data_gb_per_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peak data bandwidth of the bus, GB/s: one burst per tCCD.
    fn bus_peak_gbs(c: &DdrConfig) -> f64 {
        f64::from(c.burst_bytes) / c.timing.t_ccd.as_ns_f64()
    }

    #[test]
    fn no_load_latency_is_ddr_class() {
        let ddr = DdrChannel::ddr4_2400();
        let ns = ddr.no_load_latency().as_ns_f64();
        // Far below the HMC's ~0.7 µs measured stack: tens of ns.
        assert!((40.0..=90.0).contains(&ns), "no-load {ns} ns");
    }

    #[test]
    fn single_client_latency_matches_no_load() {
        let mut ddr = DdrChannel::ddr4_2400();
        let no_load = ddr.no_load_latency().as_ns_f64();
        let report = ddr.run_closed_loop(1, 500, 64, 1);
        // A lone client sees close to the unloaded latency (occasional
        // same-bank tRC gaps add a little).
        assert!(report.mean_latency_ns >= no_load * 0.99);
        assert!(
            report.mean_latency_ns <= no_load * 1.5,
            "{}",
            report.mean_latency_ns
        );
    }

    #[test]
    fn bandwidth_saturates_below_bus_peak() {
        let mut ddr = DdrChannel::ddr4_2400();
        let report = ddr.run_closed_loop(64, 20_000, 64, 2);
        let peak = bus_peak_gbs(&DdrConfig::ddr4_2400());
        assert!(
            report.data_gb_per_s > peak * 0.5,
            "got {}",
            report.data_gb_per_s
        );
        assert!(report.data_gb_per_s <= peak * 1.01);
    }

    #[test]
    fn latency_rises_with_load() {
        let low = DdrChannel::ddr4_2400()
            .run_closed_loop(1, 2_000, 64, 3)
            .mean_latency_ns;
        let high = DdrChannel::ddr4_2400()
            .run_closed_loop(64, 2_000, 64, 3)
            .mean_latency_ns;
        assert!(high > low * 1.5, "queueing must show: {low} vs {high}");
    }

    #[test]
    fn larger_requests_move_more_data() {
        let small = DdrChannel::ddr4_2400()
            .run_closed_loop(16, 5_000, 64, 4)
            .data_gb_per_s;
        let large = DdrChannel::ddr4_2400()
            .run_closed_loop(16, 5_000, 256, 4)
            .data_gb_per_s;
        assert!(large > small);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = DdrChannel::ddr4_2400().run_closed_loop(8, 3_000, 64, 9);
        let b = DdrChannel::ddr4_2400().run_closed_loop(8, 3_000, 64, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn peak_bandwidth_is_19_2() {
        assert!((bus_peak_gbs(&DdrConfig::ddr4_2400()) - 19.2).abs() < 0.3);
    }

    #[test]
    #[should_panic(expected = "degenerate workload")]
    fn zero_clients_rejected() {
        DdrChannel::ddr4_2400().run_closed_loop(0, 1, 64, 0);
    }
}
