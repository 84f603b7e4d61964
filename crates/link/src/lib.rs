//! # hmc-link
//!
//! The external serialized links between host controller and cube:
//! configuration ([`LinkConfig`]) and the transmit-side model ([`LinkTx`])
//! with HMC-style token flow control.
//!
//! Calibration anchors from the reproduced paper:
//!
//! - two half-width links × 8 lanes × 15 Gbps × 2 directions = 60 GB/s peak
//!   (Equation 1);
//! - effective throughput tops out near 23 GB/s of counted bidirectional
//!   traffic for 128 B reads (Figures 6/13) — captured by the
//!   `protocol_overhead` serialization stretch;
//! - packet-based memories pay serialization/deserialization and flow
//!   control on every access (Section II-B) — the fixed `serdes_latency`.
//!
//! ```
//! use hmc_des::Time;
//! use hmc_link::{Deliveries, LinkConfig, LinkTx};
//!
//! let mut tx: LinkTx<u32> = LinkTx::new(&LinkConfig::ac510_default());
//! tx.enqueue(7, 9); // a 128 B read response
//! let mut deliveries = Deliveries::new();
//! tx.service_into(Time::ZERO, &mut deliveries);
//! assert_eq!(deliveries.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod retry;

pub use crate::core::{Deliveries, LinkDelivery, LinkStats, LinkTx};
pub use config::{LinkConfig, LinkWidth};
pub use retry::RetryTuning;
