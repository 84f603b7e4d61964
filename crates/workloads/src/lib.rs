//! # hmc-workloads
//!
//! Workloads for the reproduced experiments, in two layers:
//!
//! - **Traces and eager generators** — the in-memory traces the modelled
//!   multi-port stream firmware replays, uniform-random generators
//!   confined to structural subsets of the cube, linear sweeps, and the
//!   vault-combination enumerator behind the C(16,4) = 1820-combination
//!   sweep of Figures 10–12.
//! - **Pull-based traffic sources** ([`source`]) — the closed-loop
//!   workload pipeline: a port pulls one operation at a time from a
//!   [`TrafficSource`], feeding back completed transactions, so sources
//!   can be rate-controlled, replay traces lazily, chase pointers
//!   ([`PointerChase`]) or run NOM-style copy streams ([`OffloadSource`]).
//!
//! ```
//! use hmc_mapping::{AddressMap, VaultId};
//! use hmc_packet::PayloadSize;
//! use hmc_workloads::random_reads_in_vaults;
//!
//! let map = AddressMap::hmc_gen2_default();
//! let trace = random_reads_in_vaults(
//!     &map,
//!     &[VaultId(0), VaultId(4)],
//!     PayloadSize::B64,
//!     100,
//!     /* seed */ 7,
//! );
//! assert_eq!(trace.len(), 100);
//! ```
//!
//! # Writing your own `TrafficSource`
//!
//! A source is a small state machine answering "what would you issue
//! next?". The port calls [`TrafficSource::next`] only when it could
//! actually issue; the [`Feedback`] argument presents every transaction
//! completed since the previous call exactly once, so a closed-loop
//! source just reacts to completions. Here is a complete dependent-stride
//! source — each read's *result* unlocks the next read one stride away
//! (mirroring the style of the `hmc_des::wake` worked example):
//!
//! ```
//! use hmc_des::Time;
//! use hmc_packet::{Address, PayloadSize};
//! use hmc_workloads::{Completion, Feedback, SourceStep, TraceOp, TrafficSource};
//!
//! /// Reads `addr`, then `addr + stride`, ... each only after the
//! /// previous read completed: a 1-deep dependency chain.
//! struct DependentStride {
//!     next_addr: u64,
//!     stride: u64,
//!     remaining: u64,
//!     in_flight: bool,
//! }
//!
//! impl TrafficSource for DependentStride {
//!     fn next(&mut self, _now: Time, fb: &Feedback<'_>) -> SourceStep {
//!         if fb.completions.iter().any(|c| c.op.kind.is_read()) {
//!             self.in_flight = false; // the dependency resolved
//!         }
//!         if self.remaining == 0 {
//!             return SourceStep::Done;
//!         }
//!         if self.in_flight {
//!             return SourceStep::Blocked; // wait for the completion
//!         }
//!         let op = TraceOp::read(Address::new(self.next_addr), PayloadSize::B64);
//!         self.next_addr += self.stride;
//!         self.remaining -= 1;
//!         self.in_flight = true;
//!         SourceStep::Op(op)
//!     }
//!
//!     fn label(&self) -> &'static str {
//!         "dependent-stride"
//!     }
//! }
//!
//! // Drive it by hand, playing the port's role.
//! let mut src = DependentStride {
//!     next_addr: 0,
//!     stride: 128,
//!     remaining: 2,
//!     in_flight: false,
//! };
//! let SourceStep::Op(first) = src.next(Time::ZERO, &Feedback::EMPTY) else {
//!     unreachable!()
//! };
//! assert_eq!(first.addr.raw(), 0);
//! // Until the first read completes, the source must block...
//! assert_eq!(src.next(Time::ZERO, &Feedback::EMPTY), SourceStep::Blocked);
//! // ...and its completion unlocks the next stride.
//! let done = Completion {
//!     index: 0,
//!     op: first,
//!     issued_at: Time::ZERO,
//!     completed_at: Time::from_ns(700),
//! };
//! let fb = Feedback { completions: &[done], outstanding: 0 };
//! let SourceStep::Op(second) = src.next(Time::from_ns(700), &fb) else {
//!     unreachable!()
//! };
//! assert_eq!(second.addr.raw(), 128);
//! ```
//!
//! Hand the source to a port via a [`SourceFactory`] (specs carry
//! factories, not built sources, so one cloneable spec can seed many
//! ports): `hmc_fabric::FabricPortSpec::from_source`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
pub mod source;
mod trace;

pub use generate::{
    linear_reads, random_reads_in_banks, random_reads_in_vaults, vault_combinations,
    VaultCombinations,
};
pub use source::{
    source_factory, Completion, Feedback, GlobalGupsSource, GupsOp, GupsSource, LinearSource,
    OffloadSource, PointerChase, SourceFactory, SourceStep, TraceReplay, TrafficSource,
    UniformSource,
};
pub use trace::{Trace, TraceOp};
