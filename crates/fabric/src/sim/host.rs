//! The host as an engine component.

use hmc_des::{Component, ComponentId, Ctx, Delay, Time};
use hmc_host::{HostEvent, HostEvents, HostModel};
use hmc_telemetry::Probe;

use super::msg::Msg;

/// The host's one timer: armed at the model's next interesting FPGA
/// cycle, disarmed while the host is idle.
const TICK: usize = 0;

pub(super) struct HostComp {
    pub(super) model: HostModel,
    /// Cube 0's component, the receiver of every host link.
    pub(super) cube0: ComponentId,
    /// GUPS ports tick until this instant, then drain; `None` (streams)
    /// ticks until every trace is issued and answered.
    pub(super) stop: Option<Time>,
    pub(super) period: Delay,
    pub(super) measure_start: Time,
    pub(super) measure_end: Option<Time>,
    /// Telemetry probe; its epoch window re-anchors when monitors reset.
    pub(super) probe: Probe,
}

impl HostComp {
    /// Relays a view of the host model's reused event buffer. An
    /// associated function over the `cube0` id (not `&self`) so callers
    /// can hold the model borrowed while relaying — the zero-copy,
    /// zero-allocation path from model to engine.
    fn relay(cube0: ComponentId, events: &HostEvents, ctx: &mut Ctx<'_, Msg>) {
        let me = ctx.self_id();
        for ev in events.iter() {
            match *ev {
                HostEvent::RequestArrival { link, pkt, at } => {
                    ctx.send_at(at, cube0, Msg::HostRequest { link, pkt });
                }
                HostEvent::ResponseDrained { pkt, at, .. } => {
                    ctx.send_at(at, me, Msg::PortDeliver { pkt });
                }
                HostEvent::ResponseTokens { link, flits, at } => {
                    ctx.send_at(at, cube0, Msg::HostTokens { link, flits });
                }
            }
        }
    }

    fn should_tick_at(&self, at: Time) -> bool {
        match self.stop {
            Some(stop) => at < stop,
            None => !self.model.all_done(),
        }
    }

    /// One host FPGA cycle, then re-arm for the next interesting one.
    fn do_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let events = self.model.tick(ctx.now());
        Self::relay(self.cube0, events, ctx);
        self.arm_tick(ctx, true);
    }

    /// Moves the tick timer to the model's next interesting instant:
    /// `HostModel::next_wake` snapped forward past the cycle just run (so
    /// a tick never re-fires at its own timestamp) and gated by the stop
    /// time. With no interesting instant the timer is disarmed — the
    /// idle-skip at the heart of the event-driven core.
    fn arm_tick(&mut self, ctx: &mut Ctx<'_, Msg>, just_ticked: bool) {
        let now = ctx.now();
        let at = match self.model.next_wake(now) {
            Some(t) if just_ticked => Some(t.max(now + self.period)),
            at => at,
        };
        ctx.set_wake(TICK, at.filter(|&at| self.should_tick_at(at)));
    }
}

impl Component<Msg> for HostComp {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::HostKick => self.do_tick(ctx),
            Msg::HostStop => {
                self.model.set_all_active(false);
                self.model.freeze_stats();
                self.measure_end = Some(ctx.now());
                self.arm_tick(ctx, false);
            }
            Msg::HostResetStats => {
                self.model.reset_stats();
                self.measure_start = ctx.now();
                self.probe.reset_window(ctx.now());
            }
            Msg::HostResponse { link, pkt } => {
                let events = self.model.on_response_arrival(ctx.now(), link, pkt);
                Self::relay(self.cube0, events, ctx);
            }
            Msg::PortDeliver { pkt } => {
                self.model.deliver_response(ctx.now(), &pkt);
                self.arm_tick(ctx, false);
            }
            Msg::ReturnRequestTokens { link, flits } => {
                let events = self.model.on_request_tokens(ctx.now(), link, flits);
                Self::relay(self.cube0, events, ctx);
                self.arm_tick(ctx, false);
            }
            _ => unreachable!("message addressed elsewhere reached the host"),
        }
    }

    fn on_wake(&mut self, timer: usize, ctx: &mut Ctx<'_, Msg>) {
        debug_assert_eq!(timer, TICK, "the host has one timer");
        self.do_tick(ctx);
    }

    fn name(&self) -> &str {
        "host"
    }
}
