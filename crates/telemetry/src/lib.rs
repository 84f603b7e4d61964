//! # hmc-telemetry
//!
//! Streaming observability for the `hmc-noc-sim` workspace. The paper's
//! insights all come from *looking inside* the cube — per-vault bandwidth,
//! link utilization, latency distributions under open- vs closed-loop load
//! — but report-time aggregates can't show *when* bandwidth collapsed.
//! This crate adds what a run report lacks, in three layers:
//!
//! 1. [`Probe`] — a cheap, cloneable handle held by the components that
//!    mark a request's lifecycle (`Port`, `HostModel`, `HmcDevice`, the
//!    fabric's pass-through stages and their `LinkTx`s). When detached
//!    ([`Probe::off`]) each event call is a single branch on a `None`.
//! 2. [`Hub`] — the sink behind attached probes: one per-epoch
//!    **completion timeline** ([`Epoch`]: requests, round-trip bytes,
//!    latency sum) and one [`hmc_stats::LatencySketch`] over every
//!    completion for streaming p50/p99/p999. Per-port and per-cube
//!    sketches need no hub: every port records the same samples into
//!    its run report, so the hub's sketch equals the report's merged
//!    one.
//! 3. a **packet-lifecycle tracer** that samples every Nth issued request
//!    and emits Chrome `trace_event` JSON ([`Hub::trace_json`]), one track
//!    per stage the packet crosses — open it in `chrome://tracing` or
//!    Perfetto.
//!
//! Everything is deterministic: epoch indices derive from simulated time
//! and sketches have a fixed bucket structure, so telemetry output is
//! byte-identical across runs and thread counts. One hub serves a whole
//! run: a fabric split over parallel engine domains attaches the
//! caller's probe only to the domain that holds the host, which records
//! every completion and traced issue, so an attached hub reads the same
//! at every domain count.
//!
//! ```
//! use hmc_des::Time;
//! use hmc_telemetry::{Hub, HubConfig, Probe};
//!
//! let hub = Hub::shared(HubConfig::default());
//! let probe = Probe::attached(&hub);
//! probe.completion(1_500_000, 160, Time::from_us(2));
//! assert_eq!(hub.borrow().aggregate_sketch().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hub;
mod probe;
mod trace;

pub use hub::{Epoch, Hub, HubConfig, SharedHub};
pub use probe::Probe;
pub use trace::Stage;
