//! # hmc-stats
//!
//! Measurement plumbing for the `hmc-noc-sim` workspace: a latency sketch
//! holding the FPGA monitoring logic's aggregate counters plus quantiles,
//! bandwidth accounting in the paper's units, fixed-range histograms for
//! the heatmap figures, Welford summaries for the average/σ figures,
//! Little's-law occupancy estimation, and a small table renderer for
//! experiment reports.
//!
//! ```
//! use hmc_stats::{BandwidthMeter, LatencySketch};
//!
//! let mut lat = LatencySketch::new();
//! let mut bw = BandwidthMeter::new();
//! // One 128 B read: 160 B round trip, 2 µs latency.
//! lat.record_ps(2_000_000);
//! bw.add_bytes(160);
//! assert_eq!(lat.mean_us(), 2.0);
//! assert_eq!(bw.gb_per_s(2_000_000), 0.08);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod histogram;
mod sketch;
mod summary;
mod table;
mod validate;

pub use bandwidth::{little_law_outstanding, BandwidthMeter};
pub use histogram::{Histogram, SharedRange};
pub use sketch::LatencySketch;
pub use summary::Summary;
pub use table::{json_escape, json_f64, Table};
pub use validate::validate_json;
