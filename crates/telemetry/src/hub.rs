//! The telemetry sink: the completion timeline, a quantile sketch, and
//! the tracer.

use crate::trace::{Stage, Tracer};
use hmc_des::{Delay, Time};
use hmc_stats::LatencySketch;
use std::cell::RefCell;
use std::rc::Rc;

/// The shared handle probes hold: single-threaded interior mutability.
/// Simulations are built, run and torn down inside one worker thread
/// (only plain result values cross threads), so `Rc<RefCell<_>>` is both
/// sufficient and the cheapest correct choice.
pub type SharedHub = Rc<RefCell<Hub>>;

/// Configuration for a [`Hub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubConfig {
    /// Width of one epoch bucket in the completion timelines.
    pub epoch: Delay,
    /// Trace every Nth issued request (`None` disables the tracer).
    pub trace_sample: Option<u64>,
}

impl Default for HubConfig {
    fn default() -> HubConfig {
        HubConfig {
            epoch: Delay::from_us(5),
            trace_sample: None,
        }
    }
}

/// One epoch of the completion timeline. Epoch 0 starts at the hub's
/// window origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Epoch {
    /// Requests completed in the epoch.
    pub completed: u64,
    /// Round-trip bytes those requests moved on the links.
    pub bytes: u64,
    /// Sum of their round-trip latencies, ps; divide by `completed` for
    /// the epoch's mean latency.
    pub latency_ps: u64,
}

/// The sink behind attached [`Probe`](crate::Probe)s: the per-epoch
/// completion timeline, one latency sketch over every completion, and
/// the sampled packet tracer. Per-port and per-cube sketches live in the
/// run report (`PortReport::latency`), which records the same samples.
#[derive(Debug)]
pub struct Hub {
    cfg: HubConfig,
    origin: Time,
    epochs: Vec<Epoch>,
    latency: LatencySketch,
    tracer: Tracer,
}

impl Hub {
    /// Creates an empty hub.
    pub(crate) fn new(cfg: HubConfig) -> Hub {
        Hub {
            cfg,
            origin: Time::ZERO,
            epochs: Vec::new(),
            latency: LatencySketch::new(),
            tracer: Tracer::new(cfg.trace_sample),
        }
    }

    /// Creates a hub behind the shared handle probes attach to.
    pub fn shared(cfg: HubConfig) -> SharedHub {
        Rc::new(RefCell::new(Hub::new(cfg)))
    }

    /// Restarts the measurement window at `now`: clears the timeline and
    /// the sketch and re-anchors epoch 0. Called when the warmup window
    /// ends so both cover only the measured interval. The tracer is
    /// *not* cleared — packet lifecycles span the boundary.
    pub(crate) fn reset_window(&mut self, now: Time) {
        self.origin = now;
        self.epochs.clear();
        self.latency = LatencySketch::new();
    }

    // --- event sinks (called via Probe) ---

    pub(crate) fn on_completion(&mut self, latency_ps: u64, bytes: u64, now: Time) {
        let ps = now.as_ps().saturating_sub(self.origin.as_ps());
        let e = (ps / self.cfg.epoch.as_ps().max(1)) as usize;
        if self.epochs.len() <= e {
            self.epochs.resize(e + 1, Epoch::default());
        }
        let epoch = &mut self.epochs[e];
        epoch.completed += 1;
        epoch.bytes += bytes;
        epoch.latency_ps += latency_ps;
        self.latency.record_ps(latency_ps);
    }

    pub(crate) fn on_trace_issue(&mut self, port: u16, tag: u16, cube: u8, now: Time) {
        self.tracer.on_issue(port, tag, cube, now);
    }

    pub(crate) fn on_trace_mark(&mut self, port: u16, tag: u16, stage: Stage, now: Time) {
        self.tracer.mark(port, tag, stage, now);
    }

    pub(crate) fn on_trace_complete(&mut self, port: u16, tag: u16, now: Time) {
        self.tracer.complete(port, tag, now);
    }

    // --- accessors ---

    /// The configured epoch width in picoseconds.
    pub fn epoch_ps(&self) -> u64 {
        self.cfg.epoch.as_ps()
    }

    /// Start of the current measurement window.
    pub fn origin(&self) -> Time {
        self.origin
    }

    /// The completion timeline, index = epoch number, up to the last
    /// epoch with a completion.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Every completion of the window in one sketch.
    ///
    /// Kept public until the benchmark reads its tails from
    /// `RunReport::latency_tail_ps`; then the hub's sketch goes with it.
    pub fn aggregate_sketch(&self) -> &LatencySketch {
        &self.latency
    }

    /// `(p50, p99, p999)` round-trip picoseconds across all completions,
    /// or `None` if nothing completed.
    pub fn aggregate_tail_ps(&self) -> Option<[u64; 3]> {
        self.latency.tail_ps()
    }

    /// Whether the sampled packet tracer is active.
    pub(crate) fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Completed packet-lifecycle slices captured so far.
    pub fn traced_slices(&self) -> usize {
        self.tracer.traced()
    }

    /// The sampled packet lifecycles as a Chrome `trace_event` JSON
    /// document (see [`crate`] docs).
    pub fn trace_json(&self) -> String {
        self.tracer.to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(completed: u64, bytes: u64, latency_ps: u64) -> Epoch {
        Epoch {
            completed,
            bytes,
            latency_ps,
        }
    }

    #[test]
    fn epoch_counters_bucket_by_time() {
        let mut h = Hub::new(HubConfig {
            epoch: Delay::from_us(1),
            trace_sample: None,
        });
        h.on_completion(500, 32, Time::from_ns(100));
        h.on_completion(700, 32, Time::from_ns(200));
        h.on_completion(900, 64, Time::from_us(2) + Delay::from_ns(1));
        assert_eq!(
            h.epochs(),
            &[epoch(2, 64, 1200), Epoch::default(), epoch(1, 64, 900)]
        );
    }

    #[test]
    fn reset_window_reanchors_epochs() {
        let mut h = Hub::new(HubConfig {
            epoch: Delay::from_us(1),
            trace_sample: None,
        });
        h.on_completion(500, 160, Time::from_ns(100));
        h.reset_window(Time::from_us(10));
        assert!(h.epochs().is_empty());
        assert!(h.aggregate_tail_ps().is_none());
        h.on_completion(700, 160, Time::from_us(10) + Delay::from_ns(50));
        assert_eq!(h.epochs(), &[epoch(1, 160, 700)]);
        // Only the post-reset completion survives in the sketch.
        assert_eq!(h.aggregate_sketch().count(), 1);
        assert_eq!(h.aggregate_tail_ps(), Some([700, 700, 700]));
    }

    #[test]
    fn completions_feed_the_timeline_and_the_sketch() {
        let mut h = Hub::new(HubConfig::default());
        h.on_completion(1000, 160, Time::from_ns(10));
        h.on_completion(3000, 160, Time::from_ns(20));
        h.on_completion(2000, 32, Time::from_ns(30));
        assert_eq!(h.epochs(), &[epoch(3, 352, 6000)]);
        assert_eq!(h.aggregate_sketch().count(), 3);
        let [p50, p99, p999] = h.aggregate_tail_ps().unwrap();
        assert!(p50 <= p99 && p99 <= p999);
        assert!((1000..=3000).contains(&p50));
    }

    #[test]
    fn trace_round_trip_via_hub() {
        let mut h = Hub::new(HubConfig {
            epoch: Delay::from_us(1),
            trace_sample: Some(1),
        });
        assert!(h.tracing());
        h.on_trace_issue(0, 1, 0, Time::from_ns(5));
        h.on_trace_mark(0, 1, Stage::VaultService, Time::from_ns(25));
        h.on_trace_complete(0, 1, Time::from_ns(90));
        assert_eq!(h.traced_slices(), 2);
        hmc_stats::validate_json(&h.trace_json()).unwrap();
    }
}
