//! The telemetry sink: completion timelines, quantile sketches, and the
//! tracer.

use crate::trace::{Stage, Tracer};
use hmc_des::{Delay, Time};
use hmc_stats::LatencySketch;
use std::cell::RefCell;
use std::collections::BTreeMap;
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

/// A monotone event-count timeline: one `u64` per fixed-width epoch,
/// grown on demand. Epoch 0 starts at the hub's window origin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochSeries {
    counts: Vec<u64>,
}

impl EpochSeries {
    fn add(&mut self, epoch: usize, n: u64) {
        if self.counts.len() <= epoch {
            self.counts.resize(epoch + 1, 0);
        }
        self.counts[epoch] += n;
    }

    /// Per-epoch counts (index = epoch number).
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The count in `epoch` (0 for epochs past the last event).
    #[inline]
    pub fn get(&self, epoch: usize) -> u64 {
        self.counts.get(epoch).copied().unwrap_or(0)
    }

    /// Number of epochs with at least one recorded event after them.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if no events were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total over all epochs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Elementwise-adds `other` into `self`. Addition is commutative and
    /// associative, so absorbing a set of shard timelines yields the same
    /// series in any order — the property hub merging relies on.
    pub fn absorb(&mut self, other: &EpochSeries) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

/// The sink behind attached [`Probe`](crate::Probe)s: per-epoch
/// completion timelines (requests, bytes, latency sums), per-cube latency
/// sketches, and the sampled packet tracer. The sketch map is a
/// `BTreeMap` so iteration (and therefore any report built from a hub) is
/// deterministic. Per-port sketches live on the ports themselves
/// (`PortReport::latency`).
#[derive(Debug, Clone)]
pub struct Hub {
    cfg: HubConfig,
    origin: Time,
    /// Completed-request round-trip bytes per epoch (bandwidth timeline).
    completion_bytes: EpochSeries,
    /// Completed requests per epoch.
    completion_count: EpochSeries,
    /// Sum of completed-request latencies (ps) per epoch; divide by
    /// [`Hub::completion_count`] for a mean-latency timeline.
    completion_latency_ps: EpochSeries,
    by_cube: BTreeMap<u8, LatencySketch>,
    tracer: Tracer,
}

impl Hub {
    /// Creates an empty hub.
    pub fn new(cfg: HubConfig) -> Hub {
        Hub {
            cfg,
            origin: Time::ZERO,
            completion_bytes: EpochSeries::default(),
            completion_count: EpochSeries::default(),
            completion_latency_ps: EpochSeries::default(),
            by_cube: BTreeMap::new(),
            tracer: Tracer::new(cfg.trace_sample),
        }
    }

    /// Creates a hub behind the shared handle probes attach to.
    pub fn shared(cfg: HubConfig) -> SharedHub {
        Rc::new(RefCell::new(Hub::new(cfg)))
    }

    #[inline]
    fn epoch_of(&self, now: Time) -> usize {
        let ps = now.as_ps().saturating_sub(self.origin.as_ps());
        (ps / self.cfg.epoch.as_ps().max(1)) as usize
    }

    /// Restarts the measurement window at `now`: clears every instrument
    /// and re-anchors epoch 0. Called when the warmup window ends so
    /// timelines and sketches cover only the measured interval. The
    /// tracer is *not* cleared — packet lifecycles span the boundary.
    pub fn reset_window(&mut self, now: Time) {
        self.origin = now;
        self.completion_bytes = EpochSeries::default();
        self.completion_count = EpochSeries::default();
        self.completion_latency_ps = EpochSeries::default();
        self.by_cube.clear();
    }

    /// Merges another hub's instruments into this one. Every instrument
    /// merge is order-independent (elementwise counter addition, sketch
    /// bucket addition, slice concatenation per shard), so absorbing
    /// per-domain hub shards produces the same aggregate regardless of
    /// absorb order — a partitioned simulation's telemetry equals the
    /// single-hub run's.
    ///
    /// Both hubs must cover the same measurement window (same epoch width
    /// and origin); debug builds assert it.
    pub fn absorb(&mut self, other: &Hub) {
        debug_assert_eq!(self.cfg.epoch, other.cfg.epoch, "shard epoch widths match");
        debug_assert_eq!(self.origin, other.origin, "shard window origins match");
        self.completion_bytes.absorb(&other.completion_bytes);
        self.completion_count.absorb(&other.completion_count);
        self.completion_latency_ps
            .absorb(&other.completion_latency_ps);
        for (k, s) in &other.by_cube {
            self.by_cube.entry(*k).or_default().merge(s);
        }
        self.tracer.absorb(&other.tracer);
    }

    // --- event sinks (called via Probe) ---

    pub(crate) fn on_completion(&mut self, cube: u8, latency_ps: u64, bytes: u64, now: Time) {
        let e = self.epoch_of(now);
        self.completion_bytes.add(e, bytes);
        self.completion_count.add(e, 1);
        self.completion_latency_ps.add(e, latency_ps);
        self.by_cube.entry(cube).or_default().record_ps(latency_ps);
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

    /// The configuration this hub was created with — what a partitioned
    /// simulation uses to create per-domain shard hubs that bucket into
    /// the same epochs.
    pub fn config(&self) -> HubConfig {
        self.cfg
    }

    /// The configured epoch width in picoseconds.
    pub fn epoch_ps(&self) -> u64 {
        self.cfg.epoch.as_ps()
    }

    /// Start of the current measurement window.
    pub fn origin(&self) -> Time {
        self.origin
    }

    /// Number of epochs covered by the completion timeline.
    pub fn epochs(&self) -> usize {
        self.completion_count.len()
    }

    /// Round-trip bytes completed per epoch.
    pub fn completion_bytes(&self) -> &EpochSeries {
        &self.completion_bytes
    }

    /// Requests completed per epoch.
    pub fn completion_count(&self) -> &EpochSeries {
        &self.completion_count
    }

    /// Sum of round-trip latencies (ps) completed per epoch.
    pub fn completion_latency_ps(&self) -> &EpochSeries {
        &self.completion_latency_ps
    }

    /// Latency sketch per target cube.
    pub fn cube_sketches(&self) -> &BTreeMap<u8, LatencySketch> {
        &self.by_cube
    }

    /// All completions merged into one sketch (merge order is the fixed
    /// cube-id order, and sketch merging is order-independent anyway).
    pub fn aggregate_sketch(&self) -> LatencySketch {
        let mut all = LatencySketch::new();
        for s in self.by_cube.values() {
            all.merge(s);
        }
        all
    }

    /// `(p50, p99, p999)` round-trip picoseconds across all completions,
    /// or `None` if nothing completed.
    pub fn aggregate_tail_ps(&self) -> Option<[u64; 3]> {
        self.aggregate_sketch().tail_ps()
    }

    /// `(p50, p99, p999)` for one cube.
    pub fn cube_tail_ps(&self, cube: u8) -> Option<[u64; 3]> {
        self.by_cube.get(&cube)?.tail_ps()
    }

    /// Whether the sampled packet tracer is active.
    pub fn tracing(&self) -> bool {
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

    #[test]
    fn epoch_counters_bucket_by_time() {
        let mut h = Hub::new(HubConfig {
            epoch: Delay::from_us(1),
            trace_sample: None,
        });
        h.on_completion(3, 500, 32, Time::from_ns(100));
        h.on_completion(3, 700, 32, Time::from_ns(200));
        h.on_completion(3, 900, 64, Time::from_us(2) + Delay::from_ns(1));
        let s = h.completion_count();
        assert_eq!(s.counts(), &[2, 0, 1]);
        assert_eq!(s.total(), 3);
        assert_eq!(s.get(7), 0);
        assert_eq!(h.completion_bytes().counts(), &[64, 0, 64]);
        assert_eq!(h.completion_latency_ps().counts(), &[1200, 0, 900]);
        assert_eq!(h.epochs(), 3);
    }

    #[test]
    fn reset_window_reanchors_epochs() {
        let mut h = Hub::new(HubConfig {
            epoch: Delay::from_us(1),
            trace_sample: None,
        });
        h.on_completion(0, 500, 160, Time::from_ns(100));
        h.reset_window(Time::from_us(10));
        assert_eq!(h.epochs(), 0);
        assert!(h.cube_tail_ps(0).is_none());
        h.on_completion(1, 700, 160, Time::from_us(10) + Delay::from_ns(50));
        assert_eq!(h.completion_count().counts(), &[1]);
        // Only the post-reset completion survives in the sketches.
        assert_eq!(h.aggregate_sketch().count(), 1);
        assert_eq!(h.cube_tail_ps(1), Some([700, 700, 700]));
    }

    #[test]
    fn completions_feed_cube_sketches() {
        let mut h = Hub::new(HubConfig::default());
        h.on_completion(1, 1000, 160, Time::from_ns(10));
        h.on_completion(2, 3000, 160, Time::from_ns(20));
        h.on_completion(1, 2000, 32, Time::from_ns(30));
        assert_eq!(h.cube_sketches()[&1].count(), 2);
        assert_eq!(h.aggregate_sketch().count(), 3);
        let [p50, p99, p999] = h.cube_tail_ps(1).unwrap();
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(h.completion_bytes().total(), 352);
    }

    #[test]
    fn absorb_merges_shards_order_independently() {
        let cfg = HubConfig {
            epoch: Delay::from_us(1),
            trace_sample: None,
        };
        let mut a = Hub::new(cfg);
        a.on_completion(0, 500, 160, Time::from_ns(200));
        let mut b = Hub::new(cfg);
        b.on_completion(1, 900, 32, Time::from_us(1));
        let mut ab = Hub::new(cfg);
        ab.absorb(&a);
        ab.absorb(&b);
        let mut ba = Hub::new(cfg);
        ba.absorb(&b);
        ba.absorb(&a);
        assert_eq!(
            ab.completion_count().counts(),
            ba.completion_count().counts()
        );
        assert_eq!(ab.completion_bytes().total(), 192);
        assert_eq!(ab.aggregate_tail_ps(), ba.aggregate_tail_ps());
        assert_eq!(ab.cube_sketches()[&1].count(), 1);
    }

    #[test]
    fn absorb_into_a_fresh_hub_reproduces_the_shard() {
        let cfg = HubConfig::default();
        let mut shard = Hub::new(cfg);
        shard.on_completion(5, 400, 32, Time::from_ns(40));
        shard.on_completion(5, 600, 160, Time::from_ns(41));
        let mut total = Hub::new(cfg);
        total.absorb(&shard);
        assert_eq!(total.completion_count(), shard.completion_count());
        assert_eq!(total.completion_bytes(), shard.completion_bytes());
        assert_eq!(total.completion_latency_ps(), shard.completion_latency_ps());
        assert_eq!(total.cube_tail_ps(5), shard.cube_tail_ps(5));
        assert_eq!(total.config(), cfg);
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
