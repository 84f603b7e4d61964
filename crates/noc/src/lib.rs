//! # hmc-noc
//!
//! Network-on-chip building blocks for the logic layer of a 3D-stacked
//! memory: bounded FIFOs, round-robin arbiters, credit-based flow control
//! and an input-queued crossbar [`SwitchCore`].
//!
//! The reproduced paper's central claim is that this layer — not the DRAM —
//! dominates the HMC's loaded latency behaviour: "the characteristics and
//! contention of this internal NoC play an integral role in the overall
//! performance of the HMC" (Section I). Every mechanism the paper blames
//! for latency variation (arbitration conflicts, buffer occupancy,
//! head-of-line blocking, credit stalls) is explicit and observable here.
//!
//! ```
//! use hmc_des::{Delay, Time};
//! use hmc_noc::{Departures, SwitchConfig, SwitchCore, SwitchEntry};
//!
//! let cfg = SwitchConfig {
//!     inputs: 4,
//!     outputs: 4,
//!     input_capacity_flits: 32,
//!     hop_latency: Delay::from_ns(2),
//!     flit_time: Delay::from_ps(800),
//! };
//! let mut sw: SwitchCore<u64> = SwitchCore::new(cfg, &[64, 64, 64, 64]);
//! sw.try_enqueue(0, SwitchEntry { output: 3, flits: 1, payload: 42 }).unwrap();
//! let mut out = Departures::new();
//! sw.service_into(Time::ZERO, &mut out);
//! assert_eq!(out[0].payload, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod credit;
mod queue;
mod switch;

pub use arbiter::RoundRobinArbiter;
pub use credit::Credits;
pub use queue::{BoundedQueue, FlitQueue, QueueFull};
pub use switch::{Departure, Departures, SwitchConfig, SwitchCore, SwitchEntry, SwitchFull};
