//! # hmc-des
//!
//! A small, deterministic, single-threaded discrete-event simulation kernel.
//!
//! This crate is the substrate that every timing model in the `hmc-noc-sim`
//! workspace runs on. It provides:
//!
//! - [`Time`] / [`Delay`]: picosecond-resolution instants and spans,
//! - [`Engine`]: an event queue ordered by `(timestamp, insertion order)`,
//!   implemented as a two-level scheduler — a bucketed near-horizon timer
//!   wheel in front of a binary heap for far-future events,
//! - [`Component`]: the trait simulated hardware blocks implement,
//! - engine-owned component timers: [`Ctx::set_wake`] arms, moves or
//!   disarms a component's timer by index, so a component sleeps while
//!   idle instead of ticking every cycle. This carries the shared
//!   clocked-component protocol (worked example on [`Ctx::set_wake`]):
//!   sans-event cores report their next interesting instant from a
//!   `next_wake` method and their engine wrappers keep one timer armed
//!   at it.
//!
//! ## Determinism
//!
//! The engine pops events in timestamp order and breaks ties by insertion
//! order (FIFO); timer wakeups share the same ordering domain as messages.
//! There is no other source of ordering, no wall-clock input and no
//! threading, so a simulation driven only by seeded randomness is
//! bit-for-bit reproducible. The integration suite asserts this property
//! for the full HMC system model, and the two-level scheduler is
//! property-tested to order events exactly as a single global heap would.
//!
//! ## Example
//!
//! ```
//! use hmc_des::{Component, Ctx, Delay, Engine, Time};
//!
//! /// A token that bounces between two pongers until its hop budget is spent.
//! struct Ponger {
//!     peer: Option<hmc_des::ComponentId>,
//!     bounces: u32,
//! }
//!
//! impl Component<u32> for Ponger {
//!     fn on_message(&mut self, hops_left: u32, ctx: &mut Ctx<'_, u32>) {
//!         self.bounces += 1;
//!         if hops_left > 0 {
//!             let peer = self.peer.expect("wired");
//!             ctx.send(Delay::from_ns(10), peer, hops_left - 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let a = engine.add_component(Box::new(Ponger { peer: None, bounces: 0 }));
//! let b = engine.add_component(Box::new(Ponger { peer: None, bounces: 0 }));
//! engine.component_mut::<Ponger>(a).unwrap().peer = Some(b);
//! engine.component_mut::<Ponger>(b).unwrap().peer = Some(a);
//! engine.schedule(Time::ZERO, a, 5);
//! engine.run_until(Time::MAX);
//! assert_eq!(engine.now(), Time::from_ns(50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod inline;
pub mod pool;
mod time;
pub mod wheel;

pub use engine::{
    AsAnyComponent, Component, ComponentId, Ctx, Engine, EngineStats, KEYED_EVENT_BIT,
};
pub use inline::InlineVec;
pub use time::{Delay, Time};
pub use wheel::EventQueue;
