//! # hmc-telemetry
//!
//! Streaming observability for the `hmc-noc-sim` workspace. The paper's
//! insights all come from *looking inside* the cube — per-vault bandwidth,
//! link utilization, latency distributions under open- vs closed-loop load
//! — but report-time aggregates can't show *when* bandwidth collapsed or
//! *which* cube's tail grew. This crate adds three layers:
//!
//! 1. [`Probe`] — a cheap, cloneable handle held by the components that
//!    mark a request's lifecycle (`Port`, `HostModel`, `HmcDevice`, the
//!    fabric's pass-through stages and their `LinkTx`s). When detached
//!    ([`Probe::off`]) each event call is a single branch on a `None`.
//! 2. [`Hub`] — the sink behind attached probes: per-epoch **completion
//!    timelines** (requests, round-trip bytes, latency sums) and
//!    per-cube [`hmc_stats::LatencySketch`] quantile sketches for
//!    streaming p50/p99/p999. Per-port sketches need no hub: every port
//!    records one into its run report.
//! 3. a **packet-lifecycle tracer** that samples every Nth issued request
//!    and emits Chrome `trace_event` JSON ([`Hub::trace_json`]), one track
//!    per component the packet crosses — open it in `chrome://tracing` or
//!    Perfetto.
//!
//! Everything is deterministic: epoch indices derive from simulated time,
//! sketches have a fixed bucket structure, and all maps iterate in key
//! order, so telemetry output is byte-identical across runs and thread
//! counts.
//!
//! ```
//! use hmc_des::Time;
//! use hmc_telemetry::{Hub, HubConfig, Probe};
//!
//! let hub = Hub::shared(HubConfig::default());
//! let probe = Probe::attached(&hub);
//! probe.completion(0, 1_500_000, 160, Time::from_us(2));
//! assert_eq!(hub.borrow().aggregate_sketch().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hub;
mod probe;
mod trace;

pub use hub::{EpochSeries, Hub, HubConfig, SharedHub};
pub use probe::Probe;
pub use trace::Stage;
