//! The shared clocked-component protocol: sans-event cores report the next
//! instant they need service, and their engine-side wrappers keep exactly
//! one timer armed at it.
//!
//! Every timing model in this workspace is written *sans-event*: a plain
//! state machine (a crossbar, a link serializer, a host controller) that is
//! advanced by calling a `service`-style method whenever something changed,
//! plus a `next_wake(now) -> Option<Time>` query reporting the earliest
//! future instant at which the core could make progress *on its own* —
//! an output port freeing, a pipeline stage's latency elapsing, the next
//! FPGA cycle with work pending. Progress that depends on an external
//! stimulus (a credit return, a packet arrival) is *not* reported: the
//! stimulus itself is a message that triggers service. The reported
//! instant is the earliest **future or current** one, and it must be
//! honest: servicing the core at or after it makes the promised progress.
//!
//! Each core exposes that query as an inherent `next_wake` method, and
//! [`AutoWake`] is the engine-side half: a one-slot timer
//! that a [`Component`](crate::Component) wrapper re-arms from `next_wake`
//! after every message, cancelling stale deadlines instead of letting them
//! fire as no-ops. Together they guarantee **no component ticks while
//! idle**: a core whose `next_wake` is `None` consumes zero engine events
//! until a message arrives for it.
//!
//! # Writing a new clocked component
//!
//! ```
//! use hmc_des::{AutoWake, Component, Ctx, Delay, Engine, Time, WakeToken};
//!
//! /// A sans-event core: emits one unit of work every `period`, at most
//! /// `budget` times.
//! struct Core {
//!     period: Delay,
//!     budget: u32,
//!     done: u32,
//!     next_due: Time,
//! }
//!
//! impl Core {
//!     /// Advance to `now`: perform everything due.
//!     fn service(&mut self, now: Time) {
//!         while self.done < self.budget && self.next_due <= now {
//!             self.done += 1;
//!             self.next_due = self.next_due + self.period;
//!         }
//!     }
//!
//!     /// The earliest instant service could progress on its own, if any.
//!     fn next_wake(&self, _now: Time) -> Option<Time> {
//!         (self.done < self.budget).then_some(self.next_due)
//!     }
//! }
//!
//! /// The engine-side wrapper: service on every stimulus, then re-arm.
//! struct CoreComp {
//!     core: Core,
//!     wake: AutoWake,
//! }
//!
//! impl Component<()> for CoreComp {
//!     fn on_message(&mut self, _msg: (), ctx: &mut Ctx<'_, ()>) {
//!         self.core.service(ctx.now());
//!         let at = self.core.next_wake(ctx.now());
//!         self.wake.set(ctx, at);
//!     }
//!
//!     fn on_wake(&mut self, token: WakeToken, ctx: &mut Ctx<'_, ()>) {
//!         if self.wake.fired(token) {
//!             self.core.service(ctx.now());
//!             let at = self.core.next_wake(ctx.now());
//!             self.wake.set(ctx, at);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let id = engine.add_component(Box::new(CoreComp {
//!     core: Core {
//!         period: Delay::from_ns(10),
//!         budget: 5,
//!         done: 0,
//!         next_due: Time::ZERO,
//!     },
//!     wake: AutoWake::new(),
//! }));
//! engine.schedule(Time::ZERO, id, ());
//! engine.run_to_quiescence();
//! // Exactly one kick + 4 timer fires; the idle core consumes nothing more.
//! assert_eq!(engine.now(), Time::from_ns(40));
//! assert_eq!(engine.component::<CoreComp>(id).unwrap().core.done, 5);
//! ```

use crate::engine::{Ctx, WakeToken};
use crate::time::Time;

/// A one-slot self-timer for a [`Component`](crate::Component): keeps at
/// most one engine timer armed, re-arming or cancelling as the target
/// deadline moves.
///
/// See the [module docs](self) for the full protocol and a worked example.
#[derive(Debug, Default)]
pub struct AutoWake {
    armed: Option<(Time, WakeToken)>,
}

impl AutoWake {
    /// A disarmed timer.
    pub const fn new() -> AutoWake {
        AutoWake { armed: None }
    }

    /// Moves the timer to `deadline`: arms, re-arms, or cancels so that
    /// afterwards exactly the requested deadline (or nothing) is pending.
    /// A no-op when the timer is already armed at `deadline`.
    pub fn set<M>(&mut self, ctx: &mut Ctx<'_, M>, deadline: Option<Time>) {
        match (self.armed, deadline) {
            (Some((t, _)), Some(want)) if t == want => {}
            (Some((_, token)), Some(want)) => {
                ctx.cancel_wake(token);
                self.armed = Some((want, ctx.wake_at(want)));
            }
            (Some((_, token)), None) => {
                ctx.cancel_wake(token);
                self.armed = None;
            }
            (None, Some(want)) => {
                self.armed = Some((want, ctx.wake_at(want)));
            }
            (None, None) => {}
        }
    }

    /// Reports whether `token` is this timer's armed wakeup, disarming it
    /// if so. Call from [`Component::on_wake`](crate::Component::on_wake);
    /// a `false` return is a stale fire that should be ignored.
    pub fn fired(&mut self, token: WakeToken) -> bool {
        if self.armed.is_some_and(|(_, t)| t == token) {
            self.armed = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Component, Engine};

    /// Counts wake fires; `deadlines` is a script of re-arm targets applied
    /// one per delivery (message or accepted wake).
    struct Scripted {
        wake: AutoWake,
        script: Vec<Option<Time>>,
        fires: Vec<u64>,
    }

    impl Scripted {
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            let next = if self.script.is_empty() {
                None
            } else {
                self.script.remove(0)
            };
            self.wake.set(ctx, next);
        }
    }

    impl Component<()> for Scripted {
        fn on_message(&mut self, _msg: (), ctx: &mut Ctx<'_, ()>) {
            self.step(ctx);
        }
        fn on_wake(&mut self, token: WakeToken, ctx: &mut Ctx<'_, ()>) {
            if self.wake.fired(token) {
                self.fires.push(ctx.now().as_ps());
                self.step(ctx);
            }
        }
    }

    fn run(script: Vec<Option<Time>>) -> (Vec<u64>, crate::engine::EngineStats) {
        let mut e: Engine<()> = Engine::new();
        let id = e.add_component(Box::new(Scripted {
            wake: AutoWake::new(),
            script,
            fires: Vec::new(),
        }));
        e.schedule(Time::ZERO, id, ());
        e.run_to_quiescence();
        let fires = e.component::<Scripted>(id).unwrap().fires.clone();
        (fires, e.stats())
    }

    #[test]
    fn arms_and_fires_once_per_deadline() {
        let (fires, _) = run(vec![Some(Time::from_ns(5)), Some(Time::from_ns(9)), None]);
        assert_eq!(fires, vec![5_000, 9_000]);
    }

    #[test]
    fn rearm_to_same_deadline_is_single_fire() {
        // Two messages both targeting 5 ns: one timer, one fire.
        let mut e: Engine<()> = Engine::new();
        let id = e.add_component(Box::new(Scripted {
            wake: AutoWake::new(),
            script: vec![Some(Time::from_ns(5)), Some(Time::from_ns(5)), None],
            fires: Vec::new(),
        }));
        e.schedule(Time::ZERO, id, ());
        e.schedule(Time::from_ns(1), id, ());
        e.run_to_quiescence();
        assert_eq!(e.component::<Scripted>(id).unwrap().fires, vec![5_000]);
        assert_eq!(e.stats().wake_cancels, 0);
    }

    #[test]
    fn moving_the_deadline_cancels_the_stale_timer() {
        // Second message moves the deadline earlier; the stale timer is
        // cancelled, not fired.
        let mut e: Engine<()> = Engine::new();
        let id = e.add_component(Box::new(Scripted {
            wake: AutoWake::new(),
            script: vec![Some(Time::from_ns(50)), Some(Time::from_ns(5)), None],
            fires: Vec::new(),
        }));
        e.schedule(Time::ZERO, id, ());
        e.schedule(Time::from_ns(1), id, ());
        e.run_to_quiescence();
        assert_eq!(e.component::<Scripted>(id).unwrap().fires, vec![5_000]);
        assert_eq!(e.stats().wake_cancels, 1);
        assert_eq!(e.now(), Time::from_ns(5), "cancelled timer moves no clock");
    }

    #[test]
    fn disarm_leaves_nothing_pending() {
        let (fires, stats) = run(vec![Some(Time::from_ns(5)), None]);
        assert_eq!(fires, vec![5_000]);
        assert_eq!(stats.pending, 0);
    }
}
