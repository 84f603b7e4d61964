//! One cube as an engine component: its device and, in a fabric,
//! its pass-through stage.

use hmc_des::{Component, ComponentId, Ctx, Delay};
use hmc_device::{DeviceOutput, HmcDevice};

use crate::config::CubeId;

use super::msg::{Msg, TransitBody, TransitMsg};
use super::pass_through::PassThrough;

/// The device's timer: armed at its next internal deadline (bank timers,
/// switch busy intervals), disarmed while the device is drained.
pub(super) const DEVICE_TIMER: usize = 0;
/// The pass-through crossbar's timer: armed at its next output-free
/// instant, disarmed while every queued head waits on credits.
pub(super) const CROSSBAR_TIMER: usize = 1;

/// One cube as the engine sees it: the device and, in a fabric, the
/// pass-through stage that fronts its links. Host traffic reaches cube 0
/// the same way whatever the cube count; this component alone decides
/// whether it lands on the device or on the crossbar's host ports. The
/// device↔pass-through handoffs stay engine messages the component sends
/// to itself, so every event keeps its timestamp and its place in the
/// schedule.
pub(super) struct CubeComp {
    pub(super) device: HmcDevice,
    /// The host component — present only on cube 0 in the domain that
    /// owns it, wired once the host is registered.
    pub(super) host: Option<ComponentId>,
    /// The pass-through stage; `None` on a single cube, whose device
    /// links face the host directly.
    pub(super) pass: Option<PassThrough>,
}

impl CubeComp {
    /// Advances the device to `now`, relays its outputs — to the host on
    /// a single cube, into the pass-through stage in a fabric — and
    /// re-arms the device timer at the next internal deadline.
    fn service(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let me = ctx.self_id();
        let host = self.host;
        let fabric = self.pass.is_some();
        for out in self.device.advance(now) {
            match *out {
                // Device link `l` feeds crossbar input `l`, and its
                // request tokens are crossbar output `l`'s credits.
                DeviceOutput::Response { link, pkt, at } if fabric => {
                    let msg = TransitMsg {
                        dest: CubeId::HOST,
                        host_link: link,
                        body: TransitBody::Resp(pkt),
                    };
                    let input = link.index();
                    ctx.send_at(at, me, Msg::AdapterArrive { input, msg });
                }
                DeviceOutput::RequestTokens { link, flits } if fabric => {
                    let output = link.index();
                    ctx.send(Delay::ZERO, me, Msg::AdapterCredits { output, flits });
                }
                DeviceOutput::Response { link, pkt, at } => {
                    let host = host.expect("a single cube fronts the host");
                    ctx.send_at(at, host, Msg::HostResponse { link, pkt });
                }
                DeviceOutput::RequestTokens { link, flits } => {
                    let host = host.expect("a single cube fronts the host");
                    ctx.send(Delay::ZERO, host, Msg::ReturnRequestTokens { link, flits });
                }
            }
        }
        let next = self.device.next_wake();
        debug_assert!(next.is_none_or(|t| t >= now), "device wake in the past");
        ctx.set_wake(DEVICE_TIMER, next);
    }
}

impl Component<Msg> for CubeComp {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        match (msg, &mut self.pass) {
            // The device's links: the host's on a single cube, crossbar
            // outputs in a fabric.
            (Msg::HostRequest { link, pkt }, None) | (Msg::DeviceRequest { link, pkt }, _) => {
                self.device.on_request(now, link, pkt);
            }
            (Msg::HostTokens { link, flits }, None)
            | (Msg::ReturnResponseTokens { link, flits }, _) => {
                self.device.return_response_tokens(link, flits);
            }
            (msg, Some(pass)) => {
                if pass.accept(msg) {
                    pass.pump(now, self.host, ctx);
                }
                return;
            }
            _ => unreachable!("message addressed elsewhere reached a single cube"),
        }
        self.service(ctx);
    }

    fn on_wake(&mut self, timer: usize, ctx: &mut Ctx<'_, Msg>) {
        match (timer, &mut self.pass) {
            (DEVICE_TIMER, _) => self.service(ctx),
            (CROSSBAR_TIMER, Some(pass)) => {
                pass.sw_dirty = true;
                pass.pump(ctx.now(), self.host, ctx);
            }
            _ => unreachable!("a single cube arms only its device timer"),
        }
    }

    fn name(&self) -> &str {
        "cube"
    }
}
