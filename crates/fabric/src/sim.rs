//! The fabric simulation: host, cubes and pass-through stages wired onto
//! the deterministic event engine.
//!
//! A [`FabricSim`] generalizes the single-cube measurement system to a
//! memory network. Cube 0 carries the host links; every other cube is
//! reached through HMC-style source routing: the host stamps each request
//! with its destination cube and the link layer of every transit cube
//! forwards it through a pass-through crossbar ([`hmc_noc::SwitchCore`])
//! onto the next cube-to-cube link. Responses retrace the route. Because
//! the pass-through crossbar is a real arbitrated switch with finite
//! buffers and credits, transit traffic contends with traffic terminating
//! at the cube — the multi-cube extension of the paper's central claim
//! that the NoC, not the DRAM, governs loaded latency.
//!
//! The engine sees one component for the host and one per cube. A cube
//! component owns its device and, in a fabric, its pass-through stage;
//! the host always talks to cube 0's component the same way, and only
//! the cube decides where host traffic lands. With `cube_count == 1`
//! there is no pass-through stage: host requests and token returns go
//! straight into the device, exactly the paper's single-cube system, so
//! single-cube results are unchanged by the fabric machinery.
//!
//! # Parallel domains
//!
//! [`FabricSim::with_domains`] partitions the cubes into contiguous
//! engine *domains* that advance concurrently under conservative
//! lookahead: every cube-to-cube message (packet deliveries *and* link
//! token returns) crosses its edge with at least the fabric SerDes
//! latency `L` ([`FabricConfig::lookahead`]), so a domain may safely
//! simulate `L` per hop beyond its neighbors' earliest pending events
//! (see [`crate::domain`]). Each domain has one inbox: a cross-domain
//! message leaves its edge as a timestamped envelope naming the
//! receiving cube, goes straight into the receiving domain's inbox, and
//! is injected when that domain next drains it as a *keyed* event whose
//! ordering key — a per-edge channel id plus a per-channel sequence —
//! is identical in serial and parallel schedules, which is what makes
//! the run report byte-identical for every `--domains` setting. One
//! `Harvest` per domain, folded together after the join, builds the
//! report.
//!
//! Every run goes through that one scheduler. The default is one domain
//! holding every cube: one engine, no envelopes, and a horizon of
//! `u64::MAX`, so its single window is a run to quiescence.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use hmc_des::pool;
use hmc_des::{
    AutoWake, Component, ComponentId, Ctx, Delay, Engine, EngineStats, Time, WakeToken,
    KEYED_EVENT_BIT,
};
use hmc_device::{DeviceConfig, DeviceOutput, HmcDevice};
use hmc_faults::{FaultPlan, LinkKey};
use hmc_host::{HostConfig, HostEvent, HostEvents, HostModel, Port};
use hmc_link::{Deliveries, LinkConfig, LinkTx, LinkWidth, RetryTuning};
use hmc_mapping::CubeTargeting;
use hmc_noc::{Departures, SwitchConfig, SwitchCore, SwitchEntry};
use hmc_packet::{LinkId, PortId, RequestPacket, ResponsePacket};
use hmc_telemetry::{Hub, HubConfig, Probe, Stage};
use hmc_workloads::{
    source_factory, GlobalGupsSource, GupsSource, SourceFactory, TraceReplay, TrafficSource,
};

use crate::config::{CubeId, FabricConfig};
use crate::domain::{plan_windows, BarrierPoisoned, DomainPlan, PhaseBarrier};
use crate::report::{CubeReport, PortReport, RunReport, TransitStats};
use crate::route::RouteTable;

/// Default GUPS tag-pool size: 64 tags per port. Nine ports give the 576
/// maximum outstanding requests consistent with the paper's Figure 14
/// (≈535 measured for 4-bank patterns, just under the tag ceiling).
pub const GUPS_TAGS: u16 = 64;

/// Default stream tag-pool size: 80 tags per port, matching the Figure 8
/// saturation knee (the paper's latency stops growing near 100 in-flight
/// requests).
pub const STREAM_TAGS: u16 = 80;

/// Specification of one traffic port of a fabric system.
///
/// The spec carries a [`SourceFactory`] rather than a built source so that
/// one spec can be cloned across ports (`vec![spec; 9]`) while each port's
/// source is still built with its own deterministically derived seed.
#[derive(Clone)]
pub struct FabricPortSpec {
    /// Builds the port's traffic source from the port's derived seed.
    pub source: SourceFactory,
    /// Tag-pool size (maximum outstanding requests).
    pub tags: u16,
    /// How the host derives the CUB field for this port's requests: a
    /// statically configured cube (the degenerate single-cube map — the
    /// pre-fabric behavior), or a per-request split of the workload's
    /// global address under a
    /// [`FabricAddressMap`](hmc_mapping::FabricAddressMap).
    pub targeting: CubeTargeting,
}

impl std::fmt::Debug for FabricPortSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricPortSpec")
            .field("tags", &self.tags)
            .field("targeting", &self.targeting)
            .finish_non_exhaustive()
    }
}

impl FabricPortSpec {
    /// A GUPS port with the default tag pool, targeting `cube`.
    pub fn gups(
        filter: hmc_mapping::AddressFilter,
        op: hmc_workloads::GupsOp,
        cube: CubeId,
    ) -> FabricPortSpec {
        FabricPortSpec {
            source: source_factory(move |seed| Box::new(GupsSource::new(filter, op, seed))),
            tags: GUPS_TAGS,
            targeting: CubeTargeting::Fixed(cube),
        }
    }

    /// A GUPS port over the fabric-global address space: `op`s drawn
    /// uniformly from one cube's worth of global addresses
    /// (`1 << Address::BITS` bytes), with the default GUPS tag pool, each
    /// request's cube derived from its address under `map`. Under an
    /// interleaved map the window spreads across every cube; under a
    /// blocked map it pins every request to cube 0.
    pub fn global_gups(
        op: hmc_workloads::GupsOp,
        map: hmc_mapping::FabricAddressMap,
    ) -> FabricPortSpec {
        let window = 1u64 << hmc_packet::Address::BITS;
        FabricPortSpec {
            source: source_factory(move |seed| {
                Box::new(GlobalGupsSource::new(op, window, &map, seed))
            }),
            tags: GUPS_TAGS,
            targeting: CubeTargeting::Addressed(map),
        }
    }

    /// A stream port with the default tag pool, targeting `cube`.
    pub fn stream(trace: hmc_workloads::Trace, cube: CubeId) -> FabricPortSpec {
        FabricPortSpec {
            source: source_factory(move |_seed| Box::new(TraceReplay::new(trace.clone()))),
            tags: STREAM_TAGS,
            targeting: CubeTargeting::Fixed(cube),
        }
    }

    /// A port over any traffic source, targeting `cube`, with the default
    /// stream tag pool. The factory receives the port's derived seed.
    pub fn from_source<F>(factory: F, cube: CubeId) -> FabricPortSpec
    where
        F: Fn(u64) -> Box<dyn TrafficSource> + Send + Sync + 'static,
    {
        FabricPortSpec {
            source: source_factory(factory),
            tags: STREAM_TAGS,
            targeting: CubeTargeting::Fixed(cube),
        }
    }

    /// Overrides the tag-pool size.
    pub fn with_tags(mut self, tags: u16) -> FabricPortSpec {
        self.tags = tags;
        self
    }

    /// Replaces this port's targeting: the CUB field of each request is
    /// derived from the workload's global address instead of a static
    /// cube. The map must span exactly the fabric's cube count.
    pub fn addressed(mut self, map: hmc_mapping::FabricAddressMap) -> FabricPortSpec {
        self.targeting = CubeTargeting::Addressed(map);
        self
    }
}

/// A packet in flight on the fabric, stamped with its source route anchors:
/// the destination cube (requests) and the host link affinity that carries
/// it back out (responses exit the fabric on the host link the request
/// entered on).
#[derive(Debug, Clone, Copy)]
struct TransitMsg {
    /// Destination cube of a request; responses always head for cube 0.
    dest: CubeId,
    /// The host link the transaction entered on; doubles as the device
    /// link used at the destination cube.
    host_link: LinkId,
    body: TransitBody,
}

#[derive(Debug, Clone, Copy)]
enum TransitBody {
    Req(RequestPacket),
    Resp(ResponsePacket),
}

impl TransitMsg {
    fn flits(&self) -> u32 {
        match &self.body {
            TransitBody::Req(pkt) => pkt.flits(),
            TransitBody::Resp(pkt) => pkt.flits(),
        }
    }

    /// The `(port, tag)` transaction identity telemetry traces by.
    fn identity(&self) -> (u16, u16) {
        match &self.body {
            TransitBody::Req(pkt) => (u16::from(pkt.port.0), pkt.tag.0),
            TransitBody::Resp(pkt) => (u16::from(pkt.port.0), pkt.tag.0),
        }
    }
}

/// Messages exchanged between the components. Periodic work (host FPGA
/// cycles, deferred crossbar service, internal device timers) is *not*
/// message-driven: each component arms an engine timer at its model's
/// `next_wake` instant and sleeps in between, so no component ticks while
/// idle.
enum Msg {
    /// Kick-start the host's tick timer (sent once at the beginning of a
    /// run; every subsequent cycle is a timer wakeup the host re-arms
    /// itself, skipping idle stretches).
    HostKick,
    /// Deactivate GUPS ports and freeze monitors (end of measurement).
    HostStop,
    /// Clear monitors (end of warmup).
    HostResetStats,
    /// A response fully arrived at the host on `link`.
    HostResponse { link: LinkId, pkt: ResponsePacket },
    /// A response finished draining to its port.
    PortDeliver { pkt: ResponsePacket },
    /// Request-direction tokens freed toward the host's transmitter.
    ReturnRequestTokens { link: LinkId, flits: u32 },
    /// A request fully arrived from the host at cube 0 on host link
    /// `link`.
    HostRequest { link: LinkId, pkt: RequestPacket },
    /// The host freed response-direction buffer space on host link
    /// `link`; the tokens return to cube 0's transmitter.
    HostTokens { link: LinkId, flits: u32 },
    /// A request fully arrived at a device on `link`.
    DeviceRequest { link: LinkId, pkt: RequestPacket },
    /// The downstream receiver freed response-direction buffer space.
    ReturnResponseTokens { link: LinkId, flits: u32 },
    /// A packet fully arrived at a pass-through stage on `input`.
    AdapterArrive { input: usize, msg: TransitMsg },
    /// A packet cleared the crossbar and enters the egress serializer
    /// behind `port`.
    AdapterEgress { port: usize, msg: TransitMsg },
    /// Downstream credits freed for a crossbar output.
    AdapterCredits { output: usize, flits: u32 },
    /// Link tokens returned to the serializer behind `port`.
    AdapterLinkTokens { port: usize, flits: u32 },
    /// Re-anchor this stage's telemetry window (end of GUPS warmup).
    /// Scheduled for every pass-through stage so each engine domain's
    /// telemetry shard resets even when the host lives elsewhere.
    AdapterResetWindow,
}

/// A cross-domain message as it crosses an edge: the receiving cube, the
/// absolute delivery time, the canonical ordering key and the payload.
/// Injected into the receiving domain's engine when that domain next
/// drains its inbox.
struct Envelope {
    cube: usize,
    at: Time,
    key: u64,
    msg: Msg,
}

/// Where a fabric edge's messages go: straight into the shared engine
/// (serial, or a neighbor in the same domain) or into the inbox of the
/// domain that owns `cube`.
enum EdgeWire {
    Local(ComponentId),
    Remote {
        inbox: Sender<Envelope>,
        cube: usize,
    },
}

impl EdgeWire {
    fn send(&self, ctx: &mut Ctx<'_, Msg>, at: Time, key: u64, msg: Msg) {
        match self {
            EdgeWire::Local(to) => ctx.send_keyed_at(at, *to, key, msg),
            EdgeWire::Remote { inbox, cube } => {
                let env = Envelope {
                    cube: *cube,
                    at,
                    key,
                    msg,
                };
                inbox.send(env).expect("inboxes outlive every domain");
            }
        }
    }
}

/// Builds a keyed-event ordering key: bit 63 selects the keyed band (at
/// equal timestamps keyed events sort after all plain events, in key
/// order), bits 62..40 the channel, bits 39..0 the per-channel sequence.
/// Because the key — not push order — decides ties, a message injected
/// from another domain sorts exactly where the serial schedule would have
/// pushed it.
fn keyed(chan: u64, seq: &mut u64) -> u64 {
    let s = *seq;
    *seq += 1;
    debug_assert!(s < 1 << 40, "per-channel sequence overflow");
    debug_assert!(chan < 1 << 23, "channel id overflows the key layout");
    KEYED_EVENT_BIT | (chan << 40) | s
}

/// One directed fabric edge as seen by its sending pass-through stage:
/// the wire (local engine or the peer domain's inbox), the crossbar input
/// port on the peer, and the two keyed channels — packet arrivals and
/// link-token returns — with their monotone sequences. The channel ids
/// derive from the global edge index, so serial and parallel schedules
/// generate identical keys.
struct EdgeCtl {
    wire: EdgeWire,
    peer_port: usize,
    arrive_chan: u64,
    tokens_chan: u64,
    arrive_seq: u64,
    tokens_seq: u64,
}

impl EdgeCtl {
    fn next_arrive_key(&mut self) -> u64 {
        keyed(self.arrive_chan, &mut self.arrive_seq)
    }

    fn next_tokens_key(&mut self) -> u64 {
        keyed(self.tokens_chan, &mut self.tokens_seq)
    }
}

/// What [`FabricSim::execute`] is asked to run.
#[derive(Debug, Clone, Copy)]
enum RunKind {
    Gups { warmup: Delay, measure: Delay },
    Streams,
}

struct HostComp {
    model: HostModel,
    /// Cube 0's component, the receiver of every host link.
    cube0: ComponentId,
    /// GUPS ports tick until this instant, then drain; `None` (streams)
    /// ticks until every trace is issued and answered.
    stop: Option<Time>,
    period: Delay,
    /// The tick timer: armed at the model's next interesting FPGA cycle,
    /// disarmed while the host is idle.
    tick: AutoWake,
    measure_start: Time,
    measure_end: Option<Time>,
    /// Telemetry probe; its epoch window re-anchors when monitors reset.
    probe: Probe,
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
    /// time. With no interesting instant the timer is cancelled — the
    /// idle-skip at the heart of the event-driven core.
    fn arm_tick(&mut self, ctx: &mut Ctx<'_, Msg>, just_ticked: bool) {
        let now = ctx.now();
        let at = match self.model.next_wake(now) {
            Some(t) if just_ticked => t.max(now + self.period),
            Some(t) => t,
            None => {
                self.tick.set(ctx, None);
                return;
            }
        };
        let want = self.should_tick_at(at).then_some(at);
        self.tick.set(ctx, want);
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

    fn on_wake(&mut self, token: WakeToken, ctx: &mut Ctx<'_, Msg>) {
        if self.tick.fired(token) {
            self.do_tick(ctx);
        }
    }

    fn name(&self) -> &str {
        "host"
    }
}

/// One cube as the engine sees it: the device and, in a fabric, the
/// pass-through stage that fronts its links. Host traffic reaches cube 0
/// the same way whatever the cube count; this component alone decides
/// whether it lands on the device or on the crossbar's host ports. The
/// device↔pass-through handoffs stay engine messages the component sends
/// to itself, so every event keeps its timestamp and its place in the
/// schedule.
struct CubeComp {
    device: HmcDevice,
    /// Armed at the device's next internal deadline (bank timers, switch
    /// busy intervals); disarmed while the device is drained.
    dev_wake: AutoWake,
    /// The host component — present only on cube 0 in the domain that
    /// owns it, wired once the host is registered.
    host: Option<ComponentId>,
    /// The pass-through stage; `None` on a single cube, whose device
    /// links face the host directly.
    pass: Option<PassThrough>,
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
        self.dev_wake.set(ctx, next);
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
                if pass.accept(msg, now) {
                    pass.pump(now, self.host, ctx);
                }
                return;
            }
            _ => unreachable!("message addressed elsewhere reached a single cube"),
        }
        self.service(ctx);
    }

    fn on_wake(&mut self, token: WakeToken, ctx: &mut Ctx<'_, Msg>) {
        if self.dev_wake.fired(token) {
            self.service(ctx);
        } else if let Some(pass) = &mut self.pass {
            if pass.wake.fired(token) {
                pass.sw_dirty = true;
                pass.pump(ctx.now(), self.host, ctx);
            }
        }
    }

    fn name(&self) -> &str {
        "cube"
    }
}

/// Port layout of one cube's pass-through crossbar:
/// `[device links, fabric links (by ascending neighbor id), host links]`,
/// host links existing only on cube 0.
#[derive(Debug, Clone)]
struct AdapterLayout {
    dev_links: usize,
    neighbors: Vec<CubeId>,
    host_links: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortClass {
    /// Local device link `l`.
    Dev(usize),
    /// Fabric link slot `i` (toward `neighbors[i]`).
    Fabric(usize),
    /// Host link `l` (cube 0 only).
    Host(usize),
}

impl AdapterLayout {
    fn count(&self) -> usize {
        self.dev_links + self.neighbors.len() + self.host_links
    }

    fn dev_port(&self, link: LinkId) -> usize {
        link.index()
    }

    fn fabric_port(&self, slot: usize) -> usize {
        self.dev_links + slot
    }

    fn host_port(&self, link: LinkId) -> usize {
        self.dev_links + self.neighbors.len() + link.index()
    }

    fn classify(&self, port: usize) -> PortClass {
        if port < self.dev_links {
            PortClass::Dev(port)
        } else if port < self.dev_links + self.neighbors.len() {
            PortClass::Fabric(port - self.dev_links)
        } else {
            PortClass::Host(port - self.dev_links - self.neighbors.len())
        }
    }

    /// The fabric port whose link leads to `cube`.
    fn port_toward(&self, cube: CubeId) -> usize {
        let slot = self
            .neighbors
            .iter()
            .position(|&n| n == cube)
            .unwrap_or_else(|| panic!("no fabric link toward {cube}"));
        self.fabric_port(slot)
    }
}

/// One cube's pass-through stage: the link-layer crossbar that joins the
/// local device, the cube-to-cube links and (on cube 0) the host links.
/// Part of the cube's [`CubeComp`], which hands it every crossbar-bound
/// message and pumps it when one can make progress.
struct PassThrough {
    cube: CubeId,
    layout: AdapterLayout,
    routes: RouteTable,
    sw: SwitchCore<TransitMsg>,
    /// Egress serializer behind each fabric/host port (`None` on device
    /// ports, whose receiver is the device's own link input buffer).
    tx: Vec<Option<LinkTx<TransitMsg>>>,
    /// Fabric edge wiring per port (`None` on non-fabric ports).
    edges: Vec<Option<EdgeCtl>>,
    /// The fabric edge lookahead: token returns to a neighbor ride the
    /// reverse SerDes and arrive this much later.
    lookahead: Delay,
    /// The crossbar needs service: a fresh enqueue, a credit return that
    /// un-starved an output, or the armed time wake fired.
    sw_dirty: bool,
    /// Per-port bitmask of egress serializers needing service: a fresh
    /// egress enqueue or a token return that un-starved the head. Clean
    /// serializers are provably idle — `LinkTx` commits everything its
    /// tokens allow in one call and has no time-driven wakeups — so the
    /// pump skips them entirely. One u64 bounds a crossbar to 64 ports
    /// ([`FabricConfig::validate`] enforces it — only star hubs past ~60
    /// cubes can exceed the ceiling).
    tx_dirty: u64,
    /// Armed at the crossbar's next output-free instant; disarmed while
    /// every queued head waits on credits (the credit return notifies).
    wake: AutoWake,
    /// Reused departure scratch for crossbar service.
    dep_scratch: Departures<TransitMsg>,
    /// Reused delivery scratch for egress serializer service.
    del_scratch: Deliveries<TransitMsg>,
    /// Telemetry probe (detached by default).
    probe: Probe,
}

impl PassThrough {
    fn route_output(&self, msg: &TransitMsg) -> usize {
        match msg.body {
            TransitBody::Req(_) => {
                if msg.dest == self.cube {
                    self.layout.dev_port(msg.host_link)
                } else {
                    self.layout
                        .port_toward(self.routes.next_hop(self.cube, msg.dest))
                }
            }
            TransitBody::Resp(_) => {
                if self.cube == CubeId::HOST {
                    self.layout.host_port(msg.host_link)
                } else {
                    self.layout
                        .port_toward(self.routes.next_hop(self.cube, CubeId::HOST))
                }
            }
        }
    }

    /// Takes in one crossbar-bound message and reports whether a pump is
    /// due. A credit or token return into a pool nobody starves on
    /// unblocks nothing — time-driven progress is covered by the armed
    /// wake — so it skips the pump entirely.
    fn accept(&mut self, msg: Msg, now: Time) -> bool {
        match msg {
            // The host's links in a fabric: cube 0's crossbar host ports.
            // The destination cube is read off each request's CUB field —
            // the host's port logic stamped it when it split the
            // workload's address.
            Msg::HostRequest { link, pkt } => {
                let msg = TransitMsg {
                    dest: pkt.cube,
                    host_link: link,
                    body: TransitBody::Req(pkt),
                };
                self.arrive(self.layout.host_port(link), msg);
                true
            }
            Msg::HostTokens { link, flits } => self.link_tokens(self.layout.host_port(link), flits),
            Msg::AdapterArrive { input, msg } => {
                self.arrive(input, msg);
                true
            }
            Msg::AdapterEgress { port, msg } => {
                let flits = msg.flits();
                self.tx[port]
                    .as_mut()
                    .expect("egress targets a serialized port")
                    .enqueue(msg, flits);
                self.tx_dirty |= 1 << port;
                true
            }
            Msg::AdapterCredits { output, flits } => {
                let unblocked = self.sw.return_credits(output, flits);
                self.sw_dirty |= unblocked;
                unblocked
            }
            Msg::AdapterLinkTokens { port, flits } => self.link_tokens(port, flits),
            Msg::AdapterResetWindow => {
                self.probe.reset_window(now);
                false
            }
            _ => unreachable!("message addressed elsewhere reached a pass-through stage"),
        }
    }

    /// A packet fully arrived on crossbar input `input`.
    fn arrive(&mut self, input: usize, msg: TransitMsg) {
        let entry = SwitchEntry {
            output: self.route_output(&msg),
            flits: msg.flits(),
            payload: msg,
        };
        self.sw
            .try_enqueue(input, entry)
            .unwrap_or_else(|_| panic!("pass-through input overflow: tokens violated"));
        self.sw_dirty = true;
    }

    /// Link tokens returned to the serializer behind `port`; only a
    /// return that un-starved its head lets it send more.
    fn link_tokens(&mut self, port: usize, flits: u32) -> bool {
        let starved = self.tx[port]
            .as_mut()
            .expect("tokens target a serialized port")
            .return_tokens(flits);
        if starved {
            self.tx_dirty |= 1 << port;
        }
        starved
    }

    /// Runs crossbar and egress service to a fixpoint, but only over the
    /// parts marked dirty: the crossbar when something enqueued, a credit
    /// un-starved an output or its time wake fired; each serializer when
    /// something entered it or a token return un-starved its head.
    /// Handoffs to the local device and to the egress serializers are
    /// messages to the cube's own component; `host` receives what leaves
    /// cube 0's host ports.
    fn pump(&mut self, now: Time, host: Option<ComponentId>, ctx: &mut Ctx<'_, Msg>) {
        let me = ctx.self_id();
        while self.sw_dirty || self.tx_dirty != 0 {
            if self.sw_dirty {
                self.sw_dirty = false;
                self.sw.service_into(now, &mut self.dep_scratch);
                for d in self.dep_scratch.drain() {
                    // A departure may free head-of-line space the next
                    // service round can use.
                    self.sw_dirty = true;
                    let (t_port, t_tag) = d.payload.identity();
                    self.probe.trace_mark(t_port, t_tag, Stage::Transit, d.at);
                    // Input drained: return the space to whoever
                    // serialized into it. Across a fabric edge the return
                    // rides the reverse SerDes — one lookahead of latency
                    // — and carries a canonical ordering key.
                    match self.layout.classify(d.input) {
                        PortClass::Dev(l) => {
                            ctx.send(
                                Delay::ZERO,
                                me,
                                Msg::ReturnResponseTokens {
                                    link: LinkId(l as u8),
                                    flits: d.flits,
                                },
                            );
                        }
                        PortClass::Fabric(slot) => {
                            let at = now + self.lookahead;
                            let ctl = self.edges[self.layout.fabric_port(slot)]
                                .as_mut()
                                .expect("fabric port has an edge");
                            let key = ctl.next_tokens_key();
                            let port = ctl.peer_port;
                            let msg = Msg::AdapterLinkTokens {
                                port,
                                flits: d.flits,
                            };
                            ctl.wire.send(ctx, at, key, msg);
                        }
                        PortClass::Host(l) => {
                            ctx.send(
                                Delay::ZERO,
                                host.expect("cube 0's stage fronts the host"),
                                Msg::ReturnRequestTokens {
                                    link: LinkId(l as u8),
                                    flits: d.flits,
                                },
                            );
                        }
                    }
                    // Forward out of the crossbar.
                    match self.layout.classify(d.output) {
                        PortClass::Dev(l) => {
                            let TransitBody::Req(pkt) = d.payload.body else {
                                unreachable!("responses never route to the local device")
                            };
                            ctx.send_at(
                                d.at,
                                me,
                                Msg::DeviceRequest {
                                    link: LinkId(l as u8),
                                    pkt,
                                },
                            );
                        }
                        PortClass::Fabric(_) | PortClass::Host(_) => {
                            ctx.send_at(
                                d.at,
                                me,
                                Msg::AdapterEgress {
                                    port: d.output,
                                    msg: d.payload,
                                },
                            );
                        }
                    }
                }
            }
            // Egress serializers: push what tokens allow onto the wires.
            let mut mask = self.tx_dirty;
            self.tx_dirty = 0;
            while mask != 0 {
                let port = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let tx = self.tx[port]
                    .as_mut()
                    .expect("dirty bit set on a serialized port");
                tx.service_into(now, &mut self.del_scratch);
                for delivery in self.del_scratch.drain() {
                    // The egress slot frees once the packet is committed
                    // to the wire schedule.
                    if self.sw.return_credits(port, delivery.flits) {
                        self.sw_dirty = true;
                    }
                    match self.layout.classify(port) {
                        PortClass::Fabric(_) => {
                            let ctl = self.edges[port].as_mut().expect("fabric port has an edge");
                            let key = ctl.next_arrive_key();
                            let input = ctl.peer_port;
                            let msg = Msg::AdapterArrive {
                                input,
                                msg: delivery.payload,
                            };
                            ctl.wire.send(ctx, delivery.at, key, msg);
                        }
                        PortClass::Host(l) => {
                            let TransitBody::Resp(pkt) = delivery.payload.body else {
                                unreachable!("only responses exit toward the host")
                            };
                            ctx.send_at(
                                delivery.at,
                                host.expect("cube 0's stage fronts the host"),
                                Msg::HostResponse {
                                    link: LinkId(l as u8),
                                    pkt,
                                },
                            );
                        }
                        PortClass::Dev(_) => unreachable!("device ports have no serializer"),
                    }
                }
            }
        }
        self.wake.set(ctx, self.sw.next_wake(now));
    }

    fn transit_stats(&self) -> TransitStats {
        TransitStats {
            forwarded: self.sw.forwarded(),
            arbitration_conflicts: self.sw.arbitration_conflicts(),
            peak_input_flits: (0..self.layout.count())
                .map(|p| self.sw.peak_input_flits(p))
                .collect(),
            link_stats: self.tx.iter().flatten().map(|tx| tx.stats()).collect(),
        }
    }
}

/// The internal device→pass-through handoff: the device's upstream
/// serializer feeds the crossbar at the logic layer's datapath rate
/// (16 B / 0.8 ns = 20 GB/s) with no SerDes or protocol overhead — the
/// real external link is modelled by the pass-through stage's own
/// serializers.
fn internal_handoff_link(input_buffer_flits: u32) -> LinkConfig {
    LinkConfig {
        width: LinkWidth::Full,
        lane_gbps: 10.0,
        serdes_latency: Delay::ZERO,
        protocol_overhead: 0.0,
        input_buffer_flits,
        min_packet_time: Delay::ZERO,
    }
}

/// Everything needed to build any engine domain of a fabric, computed
/// once up front. `Send + Sync` so worker threads can build their own
/// engines from a shared reference — engines themselves hold `Rc`-based
/// telemetry and are constructed inside the thread that runs them.
struct BuildPlan {
    cfg: FabricConfig,
    dev_cfg: DeviceConfig,
    host_cfg: HostConfig,
    specs: Vec<FabricPortSpec>,
    routes: RouteTable,
    layouts: Vec<AdapterLayout>,
    /// Prefix sums of per-cube neighbor counts: the global index of cube
    /// `c`'s directed edge `slot` is `edge_base[c] + slot`, from which
    /// both of the edge's keyed channel ids derive.
    edge_base: Vec<usize>,
    /// The device's per-link request token pool (input credit of device
    /// crossbar ports).
    req_tokens: u32,
    n: usize,
    /// Deterministic link-fault injection, if any ([`FabricSim::with_faults`]).
    /// `None` keeps every link on the zero-cost fault-free path.
    faults: Option<Arc<FaultPlan>>,
}

/// One engine domain, built and run on a single thread: its engine and
/// the components it owns.
struct DomainParts {
    engine: Engine<Msg>,
    host: Option<ComponentId>,
    /// One component per owned cube, in `cubes` order.
    comps: Vec<ComponentId>,
    /// The cubes this domain owns, ascending.
    cubes: Vec<usize>,
}

/// Arms one link transmitter with the build plan's fault injection, if
/// the plan singles this link out. No plan, or a plan without a spec for
/// this key, leaves the transmitter on its zero-cost fault-free path.
fn arm_faults(plan: &BuildPlan, link: &mut LinkTx<TransitMsg>, key: LinkKey, cfg: &LinkConfig) {
    let Some(fp) = &plan.faults else { return };
    let Some(inj) = fp.injector(key) else { return };
    link.set_faults(inj, RetryTuning::derive(cfg).with_degrade_after(fp.degrade));
    link.set_trace_identity(|m: &TransitMsg| m.identity());
}

/// Builds cube `c`'s pass-through stage, its fabric edges not yet wired.
fn pass_through(plan: &BuildPlan, probe: &Probe, c: usize) -> PassThrough {
    let layout = plan.layouts[c].clone();
    let count = layout.count();
    debug_assert!(count <= 64, "tx dirty mask covers 64 crossbar ports");
    let sw_cfg = SwitchConfig {
        inputs: count,
        outputs: count,
        input_capacity_flits: plan.cfg.hop.input_capacity_flits,
        hop_latency: plan.cfg.hop.passthrough_latency,
        flit_time: plan.cfg.hop.flit_time,
    };
    let mut credits = vec![0u32; count];
    let mut tx: Vec<Option<LinkTx<TransitMsg>>> = Vec::with_capacity(count);
    for (p, credit) in credits.iter_mut().enumerate() {
        match layout.classify(p) {
            PortClass::Dev(_) => {
                // Downstream buffer: the device's link RX (its request
                // token pool).
                *credit = plan.req_tokens;
                tx.push(None);
            }
            PortClass::Fabric(slot) => {
                *credit = plan.cfg.hop.egress_capacity_flits;
                let link_cfg = LinkConfig {
                    input_buffer_flits: plan.cfg.hop.input_capacity_flits,
                    ..plan.cfg.hop.link
                };
                let mut link = LinkTx::new(&link_cfg);
                link.set_probe(probe.clone());
                let peer = layout.neighbors[slot];
                arm_faults(plan, &mut link, LinkKey::edge(c as u8, peer.0), &link_cfg);
                tx.push(Some(link));
            }
            PortClass::Host(l) => {
                *credit = plan.cfg.hop.egress_capacity_flits;
                // Toward the host: the cube's own external link model,
                // tokens guarding the host RX buffer — as the device's
                // serializer does on a single-cube system.
                let link_cfg = LinkConfig {
                    min_packet_time: Delay::ZERO,
                    ..plan.cfg.cube.link
                };
                let mut link = LinkTx::new(&link_cfg);
                link.set_probe(probe.clone());
                arm_faults(plan, &mut link, LinkKey::host(l as u8), &link_cfg);
                tx.push(Some(link));
            }
        }
    }
    let caps = vec![plan.cfg.hop.input_capacity_flits; count];
    let sw = SwitchCore::with_input_capacities(sw_cfg, &caps, &credits);
    PassThrough {
        cube: CubeId(c as u8),
        layout,
        routes: plan.routes.clone(),
        sw,
        tx,
        edges: (0..count).map(|_| None).collect(),
        lookahead: plan.cfg.lookahead(),
        sw_dirty: false,
        tx_dirty: 0,
        wake: AutoWake::new(),
        dep_scratch: Departures::new(),
        del_scratch: Deliveries::new(),
        probe: probe.clone(),
    }
}

/// Builds domain `dom` of the partition `dom_of`: one component per owned
/// cube — its device plus, multi-cube, its pass-through stage — and the
/// host (domain 0 only), with fabric edges wired locally inside the
/// domain and into the peer domain's inbox (`inboxes[domain]`) across
/// domains. With `dom_of` all zeros this builds the complete system on
/// one engine.
fn build_domain(
    plan: &BuildPlan,
    probe: &Probe,
    dom_of: &[usize],
    dom: usize,
    inboxes: &[Sender<Envelope>],
) -> DomainParts {
    let cubes: Vec<usize> = (0..plan.n).filter(|&c| dom_of[c] == dom).collect();
    assert!(!cubes.is_empty(), "every domain owns at least one cube");
    let mut engine = Engine::with_capacity(usize::from(dom == 0) + cubes.len());

    let comps: Vec<ComponentId> = cubes
        .iter()
        .map(|&c| {
            let mut device = HmcDevice::new(plan.dev_cfg.clone());
            device.attach_probe(probe);
            engine.add_component(Box::new(CubeComp {
                device,
                dev_wake: AutoWake::new(),
                host: None,
                pass: (plan.n > 1).then(|| pass_through(plan, probe, c)),
            }))
        })
        .collect();

    let host = (dom == 0).then(|| {
        assert_eq!(cubes[0], 0, "the host's domain owns cube 0");
        let ports: Vec<Port> = plan
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let seed = plan
                    .cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64 + 1);
                Port::new(PortId(i as u8), (spec.source)(seed), spec.tags)
                    .with_targeting(spec.targeting)
            })
            .collect();
        let mut model = HostModel::new(plan.host_cfg.clone(), ports);
        model.attach_probe(probe);
        let period = model.config().fpga_period;
        engine.add_component(Box::new(HostComp {
            model,
            cube0: comps[0],
            stop: None,
            period,
            tick: AutoWake::new(),
            measure_start: Time::ZERO,
            measure_end: None,
            probe: probe.clone(),
        }))
    });

    // Wire cube 0 to the host and the fabric edges: local neighbors get a
    // direct component wire, cross-domain neighbors their domain's inbox.
    for (i, &c) in cubes.iter().enumerate() {
        let layout = &plan.layouts[c];
        let mut ctls: Vec<(usize, EdgeCtl)> = Vec::with_capacity(layout.neighbors.len());
        for (slot, peer) in layout.neighbors.iter().enumerate() {
            let port = layout.fabric_port(slot);
            let peer = peer.index();
            let peer_port = plan.layouts[peer].port_toward(CubeId(c as u8));
            let edge = (plan.edge_base[c] + slot) as u64;
            let wire = if dom_of[peer] == dom {
                let j = cubes
                    .binary_search(&peer)
                    .expect("same-domain peer is owned");
                EdgeWire::Local(comps[j])
            } else {
                EdgeWire::Remote {
                    inbox: inboxes[dom_of[peer]].clone(),
                    cube: peer,
                }
            };
            ctls.push((
                port,
                EdgeCtl {
                    wire,
                    peer_port,
                    arrive_chan: 2 * edge,
                    tokens_chan: 2 * edge + 1,
                    arrive_seq: 0,
                    tokens_seq: 0,
                },
            ));
        }
        let cube = engine
            .component_mut::<CubeComp>(comps[i])
            .expect("cube registered");
        if c == 0 {
            cube.host = host;
        }
        for (port, ctl) in ctls {
            let pass = cube.pass.as_mut().expect("only fabric cubes have edges");
            pass.edges[port] = Some(ctl);
        }
    }
    DomainParts {
        engine,
        host,
        comps,
        cubes,
    }
}

/// Seeds a freshly built domain with its initial events. The host's kick,
/// warmup reset and stop exist only in domain 0; the per-stage telemetry
/// window reset at warmup is scheduled in *every* domain so shard hubs
/// re-anchor exactly like the serial hub.
fn schedule_initial(parts: &mut DomainParts, kind: RunKind, n: usize) {
    match kind {
        RunKind::Gups { warmup, measure } => {
            let stop_at = Time::ZERO + warmup + measure;
            if let Some(id) = parts.host {
                {
                    let host = parts
                        .engine
                        .component_mut::<HostComp>(id)
                        .expect("host registered");
                    host.stop = Some(stop_at);
                    host.model.set_all_active(true);
                }
                parts.engine.schedule(Time::ZERO, id, Msg::HostKick);
                parts
                    .engine
                    .schedule(Time::ZERO + warmup, id, Msg::HostResetStats);
                parts.engine.schedule(stop_at, id, Msg::HostStop);
            }
            if n > 1 {
                for &cube in &parts.comps {
                    parts
                        .engine
                        .schedule(Time::ZERO + warmup, cube, Msg::AdapterResetWindow);
                }
            }
        }
        RunKind::Streams => {
            if let Some(id) = parts.host {
                parts.engine.schedule(Time::ZERO, id, Msg::HostKick);
            }
        }
    }
}

/// Parallel-scheduler and worker-pool counters for one run, surfaced
/// next to [`EngineStats`] (and in perfgate output) but kept out of the
/// run report: one-domain runs report zeros, so folding these into the
/// report would break the byte-identity of `repro --json` across
/// `--domains` settings.
///
/// `rounds`, `windows` and `window_events` are fully deterministic for a
/// given workload and domain count — every window schedule is computed
/// from a published snapshot, never from thread timing — and CI gates
/// them. `workers`, `pool_steals` and `pool_parks` depend on what the
/// shared core budget had free and are telemetry only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Barrier rendezvous rounds the domain scheduler ran (excluding the
    /// final all-quiescent round that ends the run).
    pub rounds: u64,
    /// Total lookahead windows granted across those rounds; one round
    /// grants every domain the same ladder of 1..=32 windows.
    pub windows: u64,
    /// Events dispatched inside parallel windows, summed over domains
    /// (equals the merged [`EngineStats::dispatched`] minus any events a
    /// domain dispatched outside the window loop — in practice, all of
    /// them).
    pub window_events: u64,
    /// Threads the run actually used: 1 (the caller) plus whatever the
    /// shared core budget granted; domains beyond this were multiplexed.
    pub workers: u64,
    /// Work items sweep workers stole from the shared pile while this
    /// run was active (process-wide delta; zero unless a sweep runs
    /// concurrently).
    pub pool_steals: u64,
    /// Workers that parked their core back into the shared budget while
    /// this run was active (its own domain workers included).
    pub pool_parks: u64,
}

impl SchedStats {
    /// Mean lookahead windows granted per rendezvous round — the
    /// adaptive scheduler's whole advantage over one-window-per-round;
    /// `1.0` would mean the ladder never beat the PR 7 baseline.
    pub fn windows_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.windows as f64 / self.rounds as f64
        }
    }

    /// Mean events dispatched per granted window (batch size of one
    /// `run_until`).
    pub fn events_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.window_events as f64 / self.windows as f64
        }
    }
}

/// Post-run state of the host (domain 0 only).
struct HostHarvest {
    ports: Vec<PortReport>,
    measure_start: Time,
    measure_end: Option<Time>,
}

/// What one or more domains hand back once they quiesce: their cubes'
/// reports, summed engine counters, the latest dispatch, window tallies,
/// telemetry shard hubs and — from domain 0 — the host. `Send`, unlike
/// the engines: each worker thread absorbs its own domains, and the
/// caller absorbs every worker.
#[derive(Default)]
struct Harvest {
    cubes: Vec<CubeReport>,
    engine: EngineStats,
    last: Time,
    window_events: u64,
    hubs: Vec<Hub>,
    host: Option<HostHarvest>,
}

impl Harvest {
    /// Extracts one domain's results inside the thread that ran it.
    fn of(r: &DomainRun) -> Harvest {
        let parts = &r.parts;
        let cubes = parts
            .cubes
            .iter()
            .zip(&parts.comps)
            .map(|(&c, &id)| {
                let cube = parts
                    .engine
                    .component::<CubeComp>(id)
                    .expect("cube registered");
                CubeReport {
                    cube: CubeId(c as u8),
                    device: cube.device.stats(),
                    transit: cube.pass.as_ref().map(PassThrough::transit_stats),
                }
            })
            .collect();
        Harvest {
            cubes,
            engine: parts.engine.stats(),
            last: parts.engine.last_dispatched_at(),
            window_events: r.window_events,
            hubs: Vec::new(),
            host: parts.host.map(|id| harvest_host(&parts.engine, id)),
        }
    }

    /// Folds `other` in. Every engine counter is schedule-invariant — the
    /// same components dispatch the same events whichever engine they
    /// run on — so the sums match a one-domain run exactly.
    fn absorb(&mut self, other: Harvest) {
        self.cubes.extend(other.cubes);
        let (a, b) = (&mut self.engine, other.engine);
        a.dispatched += b.dispatched;
        a.pending += b.pending;
        a.wake_fires += b.wake_fires;
        a.wake_cancels += b.wake_cancels;
        a.scratch_spills += b.scratch_spills;
        self.last = self.last.max(other.last);
        self.window_events += other.window_events;
        self.hubs.extend(other.hubs);
        if other.host.is_some() {
            debug_assert!(self.host.is_none(), "one domain hosts the host");
            self.host = other.host;
        }
    }

    /// The run report of an `n`-cube fabric, cubes in id order.
    fn report(mut self, n: usize) -> RunReport {
        self.cubes.sort_by_key(|c| c.cube);
        debug_assert_eq!(self.cubes.len(), n, "every cube harvested exactly once");
        let host = self.host.expect("domain 0 harvested the host");
        let measure_end = host.measure_end.unwrap_or(self.last);
        RunReport {
            ports: host.ports,
            elapsed: measure_end.saturating_since(host.measure_start),
            cubes: self.cubes,
            sim_end: self.last,
        }
    }
}

fn harvest_host(engine: &Engine<Msg>, id: ComponentId) -> HostHarvest {
    let host = engine.component::<HostComp>(id).expect("host registered");
    let ports = host
        .model
        .ports()
        .iter()
        .map(|p| PortReport {
            port: p.id(),
            source: p.source_label(),
            issued: p.issued(),
            completed: p.completed(),
            latency: p.latency().clone(),
            bytes: *p.bytes(),
            reads: p.reads_recorded(),
            writes: p.writes_recorded(),
            cube: p.targeting().fixed_cube(),
            cube_completions: p.completed_by_cube().to_vec(),
        })
        .collect();
    HostHarvest {
        ports,
        measure_start: host.measure_start,
        measure_end: host.measure_end,
    }
}

/// The scheduler state every worker thread reads: what to build and run,
/// the domain plan, the per-domain published bounds (`mins`) and window
/// levels (`done`), the rendezvous barrier, the lookahead `l` in ps, the
/// telemetry shard config, and one inbox per domain — the sending halves
/// cloned into every cross-domain edge, the receivers drained by the
/// owning domain. The receivers live here, in `run_domains`' frame, so
/// they outlive every sender and a send cannot fail.
struct Shared<'a> {
    plan: &'a BuildPlan,
    kind: RunKind,
    dplan: DomainPlan,
    mins: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    barrier: Arc<PhaseBarrier>,
    l: u64,
    shard_cfg: Option<HubConfig>,
    senders: Vec<Sender<Envelope>>,
    inboxes: Vec<Mutex<Receiver<Envelope>>>,
}

/// One engine domain as scheduled by a worker thread: its built parts and
/// the running tally of events its windows dispatched. A thread owns one
/// *or several* of these — when the shared core budget grants fewer
/// workers than domains, each thread simulates a contiguous block of
/// domains itself, advancing them in lockstep through the same window
/// levels a dedicated thread would.
struct DomainRun {
    d: usize,
    parts: DomainParts,
    window_events: u64,
}

impl DomainRun {
    /// Injects everything the domain's inbox currently holds, each
    /// envelope into the component of the cube it addresses. The keyed
    /// ordering makes injection timing irrelevant to results, so a drain
    /// may even pick up envelopes a neighbor sent in a later window — they
    /// simply schedule early.
    fn drain_inbox(&mut self, inbox: &Mutex<Receiver<Envelope>>) {
        let rx = inbox
            .lock()
            .expect("only the owning domain drains its inbox");
        for env in rx.try_iter() {
            let i = self
                .parts
                .cubes
                .binary_search(&env.cube)
                .expect("envelope targets an owned cube");
            self.parts
                .engine
                .schedule_keyed(env.at, self.parts.comps[i], env.key, env.msg);
        }
    }
}

/// Deterministic scheduler counters one thread accumulates; every thread
/// computes identical `rounds`/`windows` (the schedule is a pure
/// function of each round's shared snapshot), so the caller keeps only
/// its own.
#[derive(Default)]
struct SchedTally {
    rounds: u64,
    windows: u64,
}

/// Blocks until every domain adjacent to `d` has published completion of
/// window level `level` (its `done` counter passing `level` means levels
/// `0..level` are complete, their sends in `d`'s inbox). Point-to-point:
/// a domain waits only on its neighbors, never on the whole fabric — the
/// reason multi-window rounds beat per-window barriers. Spins with
/// periodic yields, polling the barrier's poison flag so a panicked
/// neighbor can't strand the wait.
fn wait_level(sh: &Shared<'_>, d: usize, level: u64) -> Result<(), BarrierPoisoned> {
    for (f, &dist) in sh.dplan.dist[d].iter().enumerate() {
        if dist != 1 {
            continue;
        }
        let mut spins = 0u32;
        while sh.done[f].load(Ordering::Acquire) < level {
            if sh.barrier.is_poisoned() {
                return Err(BarrierPoisoned);
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    Ok(())
}

/// The adaptive conservative scheduler: advances a thread's domains
/// through multi-window rounds until global quiescence.
///
/// Each round: publish every owned engine's earliest pending event time,
/// meet at barrier A, read everyone's bound, stop if all engines are
/// empty (no envelope can be in flight then — every send happens inside
/// a `run_until` before the previous barrier B and was injected right
/// after it). Otherwise project the whole round's window ladder from the
/// snapshot ([`plan_windows`]) and run it: window `k` of a domain first
/// waits for its neighbors to finish window `k-1` (per-domain `done`
/// counters — the only synchronization inside a round), drains its
/// inbox, runs to its ladder horizon — cross-domain sends land straight
/// in the receiving domain's inbox — and publishes its own level.
/// Barrier B then orders every send of the round before the final
/// drain, and the next round begins. `runs` must be sorted by domain id:
/// a thread's own earlier domains satisfy the level wait by
/// construction, so multiplexed groups can never self-deadlock.
fn run_group(
    sh: &Shared<'_>,
    runs: &mut [DomainRun],
    tally: &mut SchedTally,
) -> Result<(), BarrierPoisoned> {
    let mut snapshot = vec![0u64; sh.dplan.count];
    let mut base = 0u64;
    loop {
        for r in runs.iter_mut() {
            let next = r
                .parts
                .engine
                .next_event_time()
                .map_or(u64::MAX, |t| t.as_ps());
            sh.mins[r.d].store(next, Ordering::Release);
        }
        sh.barrier.wait()?;
        for (slot, m) in snapshot.iter_mut().enumerate() {
            *m = sh.mins[slot].load(Ordering::Acquire);
        }
        if snapshot.iter().all(|&m| m == u64::MAX) {
            return Ok(());
        }
        let ladder = plan_windows(&snapshot, &sh.dplan.dist, sh.l);
        tally.rounds += 1;
        tally.windows += ladder.len() as u64;
        if runs.iter().any(|r| r.d == 0) {
            // Lead group only, so the process-wide watchdog progress
            // counters count rounds once, not once per worker.
            crate::watchdog::note_round();
            crate::watchdog::note_windows(ladder.len() as u64);
        }
        for (k, horizons) in ladder.iter().enumerate() {
            let level = base + k as u64;
            for r in runs.iter_mut() {
                if k > 0 {
                    wait_level(sh, r.d, level)?;
                    r.drain_inbox(&sh.inboxes[r.d]);
                }
                let before = r.parts.engine.stats().dispatched;
                r.parts.engine.run_until(Time::from_ps(horizons[r.d]));
                r.window_events += r.parts.engine.stats().dispatched - before;
                sh.done[r.d].store(level + 1, Ordering::Release);
            }
        }
        base += ladder.len() as u64;
        sh.barrier.wait()?;
        for r in runs.iter_mut() {
            r.drain_inbox(&sh.inboxes[r.d]);
        }
    }
}

/// One worker thread's whole life: build every domain of its group (each
/// with a telemetry shard hub mirroring the caller's hub config, except
/// domain 0 which — when `main_probe` is given — feeds the caller's hub
/// directly), run the group scheduler, harvest. The poison guard is
/// installed before the builds so a panic anywhere releases the other
/// threads; a poisoned run still harvests what it has — the caller's
/// join of the panicked thread re-raises. The caller runs its own group
/// through this same function on the calling thread.
fn run_group_thread(
    sh: &Shared<'_>,
    domains: &[usize],
    main_probe: Option<&Probe>,
) -> (Harvest, SchedTally) {
    let _guard = sh.barrier.guard();
    let shards: Vec<(Option<Rc<RefCell<Hub>>>, Probe)> = domains
        .iter()
        .map(|&d| {
            if d == 0 {
                if let Some(p) = main_probe {
                    return (None, p.clone());
                }
            }
            match sh.shard_cfg {
                Some(cfg) => {
                    let hub = Hub::shared(cfg);
                    let probe = Probe::attached(&hub);
                    (Some(hub), probe)
                }
                None => (None, Probe::off()),
            }
        })
        .collect();
    let mut runs: Vec<DomainRun> = domains
        .iter()
        .zip(&shards)
        .map(|(&d, (_, probe))| {
            let mut parts = build_domain(sh.plan, probe, &sh.dplan.of_cube, d, &sh.senders);
            schedule_initial(&mut parts, sh.kind, sh.plan.n);
            DomainRun {
                d,
                parts,
                window_events: 0,
            }
        })
        .collect();
    let mut tally = SchedTally::default();
    let _ = run_group(sh, &mut runs, &mut tally);

    let mut harvest = Harvest::default();
    for r in &runs {
        harvest.absorb(Harvest::of(r));
    }
    drop(runs);
    harvest.hubs = shards
        .into_iter()
        .filter_map(|(hub, probe)| {
            drop(probe);
            hub.map(|rc| {
                Rc::try_unwrap(rc)
                    .map(RefCell::into_inner)
                    .unwrap_or_else(|rc| rc.borrow().clone())
            })
        })
        .collect();
    (harvest, tally)
}

/// A complete simulated measurement system: FPGA host plus a network of
/// HMC cubes on a deterministic event engine — or, with
/// [`FabricSim::with_domains`], on several engines advancing in parallel
/// under conservative lookahead, with byte-identical results.
///
/// One `FabricSim` performs one run ([`FabricSim::run_gups`] or
/// [`FabricSim::run_streams`]) and is then consumed by the report.
///
/// # Examples
///
/// ```
/// use hmc_des::Delay;
/// use hmc_fabric::{CubeId, FabricConfig, FabricPortSpec, FabricSim};
/// use hmc_host::GupsOp;
/// use hmc_mapping::AccessPattern;
/// use hmc_packet::PayloadSize;
///
/// // Two chained cubes; one port hammers the far cube.
/// let cfg = FabricConfig::chain(42, 2);
/// let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
/// let far = FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B64), CubeId(1));
/// let report = FabricSim::new(cfg, vec![far])
///     .run_gups(Delay::from_us(5), Delay::from_us(20));
/// assert!(report.total_accesses() > 0);
/// assert_eq!(report.cubes.len(), 2);
/// ```
pub struct FabricSim {
    plan: BuildPlan,
    probe: Probe,
    domains: usize,
    /// The run's merged engine counters (zero until it has run).
    engine: EngineStats,
    /// The run's scheduler counters (zero until it has run).
    sched: SchedStats,
    started: bool,
}

impl FabricSim {
    /// Builds a fabric system with one port per spec.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `specs` is empty or holds
    /// more than [`HostModel::MAX_PORTS`] ports, a spec statically
    /// targets a cube outside the fabric, or an addressed spec's map
    /// disagrees with the fabric's cube count.
    pub fn new(cfg: FabricConfig, specs: Vec<FabricPortSpec>) -> FabricSim {
        FabricSim::with_telemetry(cfg, specs, Probe::off())
    }

    /// Builds a fabric system with a telemetry probe attached to every
    /// component that marks a request's lifecycle: the host and its
    /// ports, each cube's device, and (multi-cube) the pass-through
    /// stages and their link serializers. With [`Probe::off`] this is
    /// exactly [`FabricSim::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FabricSim::new`].
    pub fn with_telemetry(
        cfg: FabricConfig,
        specs: Vec<FabricPortSpec>,
        probe: Probe,
    ) -> FabricSim {
        cfg.validate().expect("valid fabric config");
        assert!(!specs.is_empty(), "a system needs at least one port");
        assert!(
            specs.len() <= HostModel::MAX_PORTS,
            "{} ports exceed the host's {}-port arbiter",
            specs.len(),
            HostModel::MAX_PORTS
        );
        for s in &specs {
            match s.targeting {
                CubeTargeting::Fixed(cube) => assert!(
                    cube.0 < cfg.cube_count,
                    "port targets {} outside the {}-cube fabric",
                    cube,
                    cfg.cube_count
                ),
                CubeTargeting::Addressed(map) => assert!(
                    map.cube_count() == cfg.cube_count,
                    "port's address map spans {} cube(s) but the fabric has {}",
                    map.cube_count(),
                    cfg.cube_count
                ),
            }
        }
        let n = usize::from(cfg.cube_count);

        // Device configuration per mode: in a fabric, the device's
        // upstream serializer becomes the internal handoff into the
        // pass-through stage.
        let dev_cfg: DeviceConfig = if n == 1 {
            cfg.cube.clone()
        } else {
            DeviceConfig {
                link: internal_handoff_link(cfg.hop.input_capacity_flits),
                ..cfg.cube.clone()
            }
        };
        let proto = HmcDevice::new(dev_cfg.clone());
        let req_tokens = proto.request_tokens_per_link();
        let mut host_cfg: HostConfig = cfg.host.clone();
        // Request-direction tokens guard the first receiver's input
        // buffer: the cube's link RX directly, or cube 0's pass-through
        // input.
        host_cfg.link.input_buffer_flits = if n == 1 {
            req_tokens
        } else {
            cfg.hop.input_capacity_flits
        };
        let routes = cfg.routes();
        let dev_links = dev_cfg.link_count();
        let host_links = usize::from(cfg.host.link_count);
        let layouts: Vec<AdapterLayout> = CubeId::all(cfg.cube_count)
            .map(|c| AdapterLayout {
                dev_links,
                neighbors: cfg.topology.neighbors(cfg.cube_count, c),
                host_links: if c == CubeId::HOST { host_links } else { 0 },
            })
            .collect();
        let edge_base: Vec<usize> = layouts
            .iter()
            .scan(0usize, |acc, l| {
                let base = *acc;
                *acc += l.neighbors.len();
                Some(base)
            })
            .collect();

        FabricSim {
            plan: BuildPlan {
                cfg,
                dev_cfg,
                host_cfg,
                specs,
                routes,
                layouts,
                edge_base,
                req_tokens,
                n,
                faults: None,
            },
            probe,
            domains: 1,
            engine: EngineStats::default(),
            sched: SchedStats::default(),
            started: false,
        }
    }

    /// Requests the run be partitioned into up to `domains` per-cube
    /// engine domains advancing in parallel (clamped to the cube count;
    /// `1` — the default — puts every cube on one engine). Results are
    /// byte-identical for every setting. Traced runs, single-cube systems
    /// and zero-lookahead configurations always run as one domain on the
    /// same scheduler.
    pub fn with_domains(mut self, domains: usize) -> FabricSim {
        self.domains = domains.max(1);
        self
    }

    /// Arms deterministic link-fault injection ([`FaultPlan`]) on the
    /// fabric. Every armed link transmitter runs the HMC retry protocol:
    /// CRC-failed transmissions are retried from a bounded retry buffer
    /// (each failure paying the wasted wire time plus the
    /// ErrorAbort/StartRetry turnaround), transient down windows stall
    /// the wire, and — past the plan's degrade threshold — lanes fall to
    /// half width. Because the injector draws per `(link, flit-sequence)`
    /// and failures only push the eager wire schedule *later*, faulty
    /// runs stay byte-identical across every `--domains`/`--threads`
    /// setting, exactly like fault-free ones.
    ///
    /// Dead edges (`dead=A-B`) reroute the fabric around the failed link
    /// where the topology allows it (a ring sends traffic the long way);
    /// where it does not (chain, star), this returns a loud error naming
    /// the unreachable cube. A plan with no dead edges leaves the
    /// calibrated routing untouched.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the plan is internally invalid ([`FaultPlan`]
    /// validation), names a dead edge outside the fabric, or the dead
    /// edges disconnect it.
    pub fn with_faults(mut self, faults: FaultPlan) -> Result<FabricSim, String> {
        faults.validate()?;
        if !faults.dead_edges.is_empty() {
            // Reroute around the dead links. Only then: `avoiding`'s BFS
            // picks different (equally minimal) ring tie-breaks than the
            // calibrated clockwise table, and a no-dead-edge plan must
            // not perturb the fault-free schedule.
            self.plan.routes = RouteTable::avoiding(
                self.plan.cfg.topology,
                self.plan.cfg.cube_count,
                &faults.dead_edges,
            )?;
        }
        self.plan.faults = Some(Arc::new(faults));
        Ok(self)
    }

    /// Runs the GUPS firmware: every port generates random requests for
    /// `warmup + measure`, monitors reset after `warmup`, and the
    /// measurement freezes at the end while in-flight traffic drains.
    ///
    /// # Panics
    ///
    /// Panics if the system was already run.
    pub fn run_gups(&mut self, warmup: Delay, measure: Delay) -> RunReport {
        self.execute(RunKind::Gups { warmup, measure })
    }

    /// Runs the multi-port stream firmware: every port replays its trace
    /// as fast as tags allow; the run ends when all responses are home.
    ///
    /// # Panics
    ///
    /// Panics if the system was already run.
    pub fn run_streams(&mut self) -> RunReport {
        self.execute(RunKind::Streams)
    }

    fn execute(&mut self, kind: RunKind) -> RunReport {
        assert!(!self.started, "a FabricSim performs a single run");
        self.started = true;
        let n = self.plan.n;
        // Packet-lifecycle tracing samples by issue order, which only a
        // one-domain schedule preserves; traced runs stay on one engine.
        let traced = self
            .probe
            .hub_config()
            .is_some_and(|c| c.trace_sample.is_some());
        let lookahead = self.plan.cfg.lookahead().as_ps();
        let d_count = if traced || n <= 1 || lookahead == 0 {
            1
        } else {
            self.domains.min(n)
        };
        self.run_domains(kind, d_count)
    }

    fn run_domains(&mut self, kind: RunKind, want: usize) -> RunReport {
        let plan = &self.plan;
        let probe = &self.probe;
        let n = plan.n;
        let dplan = DomainPlan::new(n, want, |c| {
            plan.layouts[c]
                .neighbors
                .iter()
                .map(|nb| nb.index())
                .collect()
        });
        let d_count = dplan.count;

        // Worker threads come from the shared core budget: one leased
        // core per domain, the caller's own seat included (the caller
        // always runs even when the budget grants nothing). Whatever the
        // lease falls short by is absorbed by multiplexing — each thread
        // owns a contiguous block of domains and steps them through the
        // same window levels a dedicated thread would — so a sweep that
        // drained the budget (an explicit `--threads N`) composes with
        // `--domains` instead of stacking threads on top of it.
        let pool_before = pool::stats();
        let lease = pool::lease(d_count);
        let workers = lease.granted().max(1);
        let groups: Vec<Vec<usize>> = (0..workers)
            .map(|w| (w * d_count / workers..(w + 1) * d_count / workers).collect())
            .collect();

        let barrier = Arc::new(PhaseBarrier::new(workers));
        crate::watchdog::register_barrier(&barrier);
        // One unbounded inbox per domain.
        let (senders, inboxes) = (0..d_count)
            .map(|_| {
                let (tx, rx) = channel();
                (tx, Mutex::new(rx))
            })
            .unzip();
        let sh = Shared {
            plan,
            kind,
            mins: (0..d_count).map(|_| AtomicU64::new(0)).collect(),
            done: (0..d_count).map(|_| AtomicU64::new(0)).collect(),
            dplan,
            barrier,
            l: plan.cfg.lookahead().as_ps(),
            shard_cfg: probe.hub_config(),
            senders,
            inboxes,
        };

        let (harvest, tally) = std::thread::scope(|s| {
            let handles: Vec<_> = groups[1..]
                .iter()
                .map(|group| {
                    let (sh, lease) = (&sh, &lease);
                    s.spawn(move || {
                        let out = run_group_thread(sh, group, None);
                        // Hand the core back before the join: a sweep
                        // sibling (or a later run's domain lease) can
                        // claim it while the caller is still merging.
                        lease.park_one();
                        out
                    })
                })
                .collect();

            // The caller runs its own group — always containing domain 0,
            // which hosts the host and feeds the caller's probe directly.
            // run_group_thread installs the poison guard before building,
            // so a panic before the first rendezvous can't strand the
            // workers at barrier A.
            let (mut harvest, tally) = run_group_thread(&sh, &groups[0], Some(probe));
            for h in handles {
                let (g, _) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                harvest.absorb(g);
            }
            (harvest, tally)
        });
        drop(lease);

        for shard in &harvest.hubs {
            probe.absorb_shard(shard);
        }
        let pool_after = pool::stats();
        self.sched = if d_count > 1 {
            SchedStats {
                rounds: tally.rounds,
                windows: tally.windows,
                window_events: harvest.window_events,
                workers: workers as u64,
                pool_steals: pool_after.steals - pool_before.steals,
                pool_parks: pool_after.parks - pool_before.parks,
            }
        } else {
            SchedStats::default()
        };
        self.engine = harvest.engine;
        harvest.report(n)
    }

    /// Event-engine counters for this system, merged across domains after
    /// a run: events dispatched, timer fires and cancellations. With the
    /// event-driven core, `dispatched` scales with actual traffic instead
    /// of with simulated FPGA cycles — the regression tests assert it
    /// stays an order of magnitude below per-cycle ticking on low-load
    /// runs. Every counter is schedule-invariant, so the totals match the
    /// one-domain run whatever the domain count.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// Scheduler and worker-pool counters from the last run. One-domain
    /// runs report the all-zero default; parallel runs report the
    /// deterministic round/window tallies plus worker telemetry. See
    /// [`SchedStats`] for which fields are schedule-invariant.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkFaultTotals, Topology};
    use hmc_mapping::{AccessPattern, VaultId};
    use hmc_packet::PayloadSize;
    use hmc_workloads::random_reads_in_banks;

    fn one_read_trace(cfg: &FabricConfig, seed: u64) -> hmc_workloads::Trace {
        random_reads_in_banks(&cfg.cube.map, VaultId(0), 16, PayloadSize::B64, 1, seed)
    }

    #[test]
    fn single_cube_fabric_has_no_passthrough() {
        let cfg = FabricConfig::single(
            hmc_device::DeviceConfig::ac510_hmc(),
            hmc_host::HostConfig::ac510_default(),
            3,
        );
        let trace = one_read_trace(&cfg, 3);
        let report =
            FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0))]).run_streams();
        assert_eq!(report.cubes.len(), 1);
        assert!(report.cubes[0].transit.is_none());
        assert_eq!(report.transit_forwarded(), 0);
    }

    #[test]
    fn remote_requests_are_serviced_by_the_remote_cube() {
        let cfg = FabricConfig::chain(5, 3);
        let trace = random_reads_in_banks(&cfg.cube.map, VaultId(1), 4, PayloadSize::B32, 50, 5);
        let report =
            FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(2))]).run_streams();
        assert_eq!(report.ports[0].completed, 50);
        assert_eq!(report.cubes[2].device.requests_received, 50);
        assert_eq!(report.cubes[0].device.requests_received, 0);
        assert_eq!(report.cubes[1].device.requests_received, 0);
        // Transit: cube 0 and cube 1 each forwarded request and response.
        for c in [0, 1] {
            let t = report.cubes[c].transit.as_ref().unwrap();
            assert!(t.forwarded >= 100, "cube {c} forwarded {}", t.forwarded);
        }
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let run = |seed: u64| {
            let cfg = FabricConfig::ac510(Topology::Star, 4, seed);
            let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
            let specs: Vec<FabricPortSpec> = (0..4)
                .map(|c| {
                    FabricPortSpec::gups(
                        filter,
                        hmc_host::GupsOp::Read(PayloadSize::B64),
                        CubeId(c),
                    )
                })
                .collect();
            let r = FabricSim::new(cfg, specs).run_gups(Delay::from_us(5), Delay::from_us(15));
            (
                r.total_accesses(),
                r.aggregate_latency().total_ps(),
                r.transit_forwarded(),
                r.total_switch_conflicts(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn farther_cubes_cost_more_unloaded_latency() {
        let mut prev = 0.0;
        for target in 0..3u8 {
            let cfg = FabricConfig::chain(7, 3);
            let trace = one_read_trace(&cfg, 7);
            let report = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(target))])
                .run_streams();
            let ns = report.mean_latency_ns();
            assert!(
                ns > prev,
                "latency must grow with hop count: cube{target} {ns} ns vs {prev} ns"
            );
            prev = ns;
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn ports_cannot_target_missing_cubes() {
        let cfg = FabricConfig::chain(0, 2);
        let trace = one_read_trace(&cfg, 0);
        let _ = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(5))]);
    }

    #[test]
    #[should_panic(expected = "65 ports exceed the host's 64-port arbiter")]
    fn port_count_is_bounded_by_the_host_arbiter() {
        let cfg = FabricConfig::chain(0, 1);
        let trace = one_read_trace(&cfg, 0);
        let _ = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0)); 65]);
    }

    #[test]
    #[should_panic(expected = "spans 4 cube(s) but the fabric has 2")]
    fn addressed_map_must_match_the_fabric_size() {
        let cfg = FabricConfig::chain(0, 2);
        let map =
            hmc_mapping::FabricAddressMap::new(hmc_mapping::CubePolicy::Blocked, 4, &cfg.cube.map);
        let trace = one_read_trace(&cfg, 0);
        let _ = FabricSim::new(
            cfg,
            vec![FabricPortSpec::stream(trace, CubeId(0)).addressed(map)],
        );
    }

    #[test]
    fn addressed_ports_derive_cube_from_the_address() {
        use hmc_mapping::{CubePolicy, FabricAddressMap};
        use hmc_packet::GlobalAddress;

        // One stream, explicit global addresses: block 0 in cube 0,
        // block 1 in cube 2, block 2 in cube 1 (blocked map: high bits).
        let cfg = FabricConfig::chain(9, 3);
        let fabric = FabricAddressMap::new(CubePolicy::Blocked, 3, &cfg.cube.map);
        let ops: Vec<hmc_workloads::TraceOp> =
            [(0u64, 0x000u64), (2, 0x080), (1, 0x100), (2, 0x180)]
                .iter()
                .map(|&(cube, local)| {
                    hmc_workloads::TraceOp::read(
                        GlobalAddress::new(cube << 34 | local),
                        hmc_packet::PayloadSize::B64,
                    )
                })
                .collect();
        let trace = hmc_workloads::Trace::from_ops(ops);
        let report = FabricSim::new(
            cfg,
            vec![FabricPortSpec::stream(trace, CubeId(0)).addressed(fabric)],
        )
        .run_streams();
        assert_eq!(report.ports[0].completed, 4);
        assert_eq!(report.cubes[0].device.requests_received, 1);
        assert_eq!(report.cubes[1].device.requests_received, 1);
        assert_eq!(report.cubes[2].device.requests_received, 2);
        // The split stream has no static cube; its per-cube attribution
        // carries the spread instead.
        assert_eq!(report.ports[0].cube, None);
        assert_eq!(report.ports[0].cube_completions[..3], [1, 1, 2]);
        assert_eq!(report.cube_completions(CubeId(2)), 2);
        assert_eq!(report.cubes_hit(), 3);
    }

    #[test]
    fn offload_copies_between_cubes_touch_both_devices() {
        use hmc_mapping::{CubePolicy, FabricAddressMap};
        use hmc_workloads::OffloadSource;

        let cfg = FabricConfig::chain(4, 2);
        let map = cfg.cube.map;
        let fabric = FabricAddressMap::new(CubePolicy::Blocked, 2, &map);
        let blocks = 40u64;
        let spec = FabricPortSpec::from_source(
            move |_| {
                Box::new(OffloadSource::between_cubes(
                    &map,
                    fabric,
                    (CubeId(0), VaultId(0)),
                    (CubeId(1), VaultId(8)),
                    PayloadSize::B128,
                    blocks,
                    8,
                ))
            },
            CubeId(0),
        )
        .addressed(fabric);
        let report = FabricSim::new(cfg, vec![spec]).run_streams();
        // Every pair: the read terminates at cube 0, the dependent write
        // crosses the fabric to cube 1.
        assert_eq!(report.ports[0].completed, 2 * blocks);
        assert_eq!(report.cubes[0].device.requests_received, blocks);
        assert_eq!(report.cubes[1].device.requests_received, blocks);
        assert_eq!(report.total_reads(), blocks);
        assert_eq!(report.total_writes(), blocks);
        assert_eq!(report.ports[0].cube_completions[..2], [blocks, blocks]);
    }

    #[test]
    fn domain_schedules_reproduce_serial_runs_byte_for_byte() {
        let run = |domains: usize| {
            let cfg = FabricConfig::ac510(Topology::Star, 4, 21);
            let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
            let specs: Vec<FabricPortSpec> = (0..4)
                .map(|c| {
                    FabricPortSpec::gups(
                        filter,
                        hmc_host::GupsOp::Read(PayloadSize::B64),
                        CubeId(c),
                    )
                })
                .collect();
            let mut sim = FabricSim::new(cfg, specs).with_domains(domains);
            let report = sim.run_gups(Delay::from_us(5), Delay::from_us(15));
            (format!("{report:?}"), sim.engine_stats())
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "2 domains must replay the serial run");
        assert_eq!(serial, run(4), "4 domains must replay the serial run");
    }

    #[test]
    fn offload_runs_identically_under_domains() {
        use hmc_mapping::{CubePolicy, FabricAddressMap};
        use hmc_workloads::OffloadSource;

        let run = |domains: usize| {
            let cfg = FabricConfig::chain(4, 2);
            let map = cfg.cube.map;
            let fabric = FabricAddressMap::new(CubePolicy::Blocked, 2, &map);
            let spec = FabricPortSpec::from_source(
                move |_| {
                    Box::new(OffloadSource::between_cubes(
                        &map,
                        fabric,
                        (CubeId(0), VaultId(0)),
                        (CubeId(1), VaultId(8)),
                        PayloadSize::B128,
                        40,
                        8,
                    ))
                },
                CubeId(0),
            )
            .addressed(fabric);
            let mut sim = FabricSim::new(cfg, vec![spec]).with_domains(domains);
            let report = sim.run_streams();
            (format!("{report:?}"), sim.engine_stats())
        };
        assert_eq!(run(1), run(2), "dependent offload streams must not skew");
    }

    #[test]
    fn single_cube_domains_run_as_one_domain() {
        let cfg = FabricConfig::single(
            hmc_device::DeviceConfig::ac510_hmc(),
            hmc_host::HostConfig::ac510_default(),
            3,
        );
        let trace = one_read_trace(&cfg, 3);
        let mut sim =
            FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0))]).with_domains(4);
        let report = sim.run_streams();
        assert_eq!(report.ports[0].completed, 1);
        assert!(sim.engine_stats().dispatched > 0);
        assert_eq!(sim.sched_stats(), SchedStats::default());
    }

    #[test]
    fn zero_lookahead_fabrics_run_as_one_domain() {
        let run = |domains: usize| {
            let mut cfg = FabricConfig::chain(5, 2);
            cfg.hop.link.serdes_latency = Delay::ZERO;
            let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
            let spec =
                FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B64), CubeId(1));
            let mut sim = FabricSim::new(cfg, vec![spec; 2]).with_domains(domains);
            let report = sim.run_gups(Delay::from_us(2), Delay::from_us(6));
            assert_eq!(sim.sched_stats(), SchedStats::default());
            (format!("{report:?}"), sim.engine_stats())
        };
        let one = run(1);
        assert!(one.1.dispatched > 0);
        assert_eq!(one, run(2));
    }

    #[test]
    fn shard_hubs_merge_to_the_serial_hub() {
        use hmc_telemetry::{Hub, HubConfig};

        let run = |domains: usize| {
            let hub = Hub::shared(HubConfig::default());
            let probe = Probe::attached(&hub);
            let cfg = FabricConfig::chain(13, 4);
            let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
            let specs: Vec<FabricPortSpec> = (0..4)
                .map(|c| {
                    FabricPortSpec::gups(
                        filter,
                        hmc_host::GupsOp::Read(PayloadSize::B64),
                        CubeId(c),
                    )
                })
                .collect();
            let mut sim = FabricSim::with_telemetry(cfg, specs, probe).with_domains(domains);
            sim.run_gups(Delay::from_us(2), Delay::from_us(6));
            let h = hub.borrow();
            (
                h.aggregate_sketch().count(),
                h.completion_bytes().total(),
                h.completion_count().counts().to_vec(),
                h.cube_sketches().keys().copied().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(1), run(4), "shard merge must reproduce the one-hub run");
    }

    fn faulty_gups_report(
        plan: Option<FaultPlan>,
        domains: usize,
        hub: Option<&hmc_telemetry::SharedHub>,
    ) -> (RunReport, EngineStats) {
        let cfg = FabricConfig::ac510(Topology::Ring, 4, 21);
        let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
        let specs: Vec<FabricPortSpec> = (0..4)
            .map(|c| {
                FabricPortSpec::gups(filter, hmc_host::GupsOp::Read(PayloadSize::B128), CubeId(c))
            })
            .collect();
        let probe = hub.map_or_else(Probe::off, Probe::attached);
        let mut sim = FabricSim::with_telemetry(cfg, specs, probe).with_domains(domains);
        if let Some(plan) = plan {
            sim = sim.with_faults(plan).expect("valid fault plan");
        }
        let report = sim.run_gups(Delay::from_us(2), Delay::from_us(8));
        (report, sim.engine_stats())
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let (clean, _) = faulty_gups_report(None, 1, None);
        let (armed, _) = faulty_gups_report(Some(FaultPlan::new(99)), 1, None);
        assert_eq!(
            format!("{clean:?}"),
            format!("{armed:?}"),
            "a no-op plan must leave the run byte-identical"
        );
        assert_eq!(clean.link_fault_totals(), LinkFaultTotals::default());
    }

    #[test]
    fn faulty_runs_complete_and_count_retries() {
        let plan =
            FaultPlan::new(7).with_all_links(hmc_faults::LinkFaultSpec::ber(1e-5).with_burst(2));
        let (report, _) = faulty_gups_report(Some(plan), 1, None);
        let totals = report.link_fault_totals();
        assert!(totals.crc_errors > 0, "a 1e-5 BER must corrupt something");
        assert_eq!(totals.retries, totals.crc_errors + totals.down_drops);
        assert!(totals.retransmitted_flits >= totals.retries);
        // Graceful: every issued request still completes.
        for p in &report.ports {
            assert_eq!(p.completed, p.issued, "port {} lost requests", p.port.0);
        }
    }

    #[test]
    fn faulty_runs_are_domain_invariant() {
        let plan = || {
            FaultPlan::new(7)
                .with_all_links(hmc_faults::LinkFaultSpec::ber(2e-5))
                .degrade_after(40)
        };
        let serial = format!("{:?}", faulty_gups_report(Some(plan()), 1, None).0);
        for domains in [2, 4] {
            let par = format!("{:?}", faulty_gups_report(Some(plan()), domains, None).0);
            assert_eq!(serial, par, "--domains {domains} skewed a faulty run");
        }
    }

    #[test]
    fn attaching_a_hub_changes_nothing_simulated() {
        let plan = || FaultPlan::new(7).with_all_links(hmc_faults::LinkFaultSpec::ber(1e-5));
        for domains in [1, 4] {
            let (detached, detached_stats) = faulty_gups_report(Some(plan()), domains, None);
            assert!(
                detached.link_fault_totals().retries > 0,
                "the retry path must run"
            );
            let hub = Hub::shared(HubConfig::default());
            let (attached, attached_stats) = faulty_gups_report(Some(plan()), domains, Some(&hub));
            assert!(
                hub.borrow().aggregate_sketch().count() > 0,
                "the hub saw the run"
            );
            assert_eq!(
                format!("{detached:?}"),
                format!("{attached:?}"),
                "a hub moved the report at --domains {domains}"
            );
            assert_eq!(detached_stats, attached_stats, "--domains {domains}");
        }
    }

    #[test]
    fn ring_reroutes_around_a_dead_edge_and_completes() {
        let cfg = FabricConfig::ac510(Topology::Ring, 4, 33);
        let trace = random_reads_in_banks(&cfg.cube.map, VaultId(1), 4, PayloadSize::B32, 40, 3);
        let sim = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(1))]);
        let mut sim = sim
            .with_faults(FaultPlan::new(0).with_dead_edge(0, 1))
            .expect("ring survives one dead edge");
        let report = sim.run_streams();
        assert_eq!(report.ports[0].completed, 40);
        // The direct 0-1 hop is dead: traffic reaches cube 1 the long way
        // (0 → 3 → 2 → 1), so cubes 3 and 2 forward it.
        for c in [3usize, 2] {
            let t = report.cubes[c].transit.as_ref().unwrap();
            assert!(t.forwarded > 0, "cube {c} should carry rerouted traffic");
        }
    }

    #[test]
    fn chain_dead_edge_is_a_loud_build_error() {
        let cfg = FabricConfig::chain(1, 3);
        let trace = one_read_trace(&cfg, 1);
        let err = FabricSim::new(cfg, vec![FabricPortSpec::stream(trace, CubeId(0))])
            .with_faults(FaultPlan::new(0).with_dead_edge(1, 2))
            .err()
            .expect("a severed chain must not build");
        assert!(err.contains("unreachable"), "unhelpful error: {err}");
    }

    /// Pins the event schedule itself, not only its results: a 1-cube
    /// system and a 4-cube chain, each with nine 128 B GUPS ports over 16
    /// vaults for 5 + 20 µs, must dispatch exactly these events, timer
    /// fires and cancellations — the chain on one, two and four engine
    /// domains, whose window schedule (rounds, windows, events inside
    /// windows) is pinned too. A change that adds, drops or merges events,
    /// or moves the lookahead windows, has to re-pin these counts on
    /// purpose.
    #[test]
    fn event_schedule_is_pinned() {
        let run = |cubes: u8, domains: usize| {
            let cfg = FabricConfig::chain(2018, cubes);
            let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
            let op = hmc_host::GupsOp::Read(PayloadSize::B128);
            let specs = (0..9u8)
                .map(|p| FabricPortSpec::gups(filter, op, CubeId(p % cubes)))
                .collect();
            let mut sim = FabricSim::new(cfg, specs).with_domains(domains);
            let report = sim.run_gups(Delay::from_us(5), Delay::from_us(20));
            let (s, w) = (sim.engine_stats(), sim.sched_stats());
            (
                (
                    s.dispatched,
                    s.wake_fires,
                    s.wake_cancels,
                    report.total_accesses(),
                ),
                (w.rounds, w.windows, w.window_events),
            )
        };
        // (dispatched, wake_fires, wake_cancels, total_accesses)
        let chain = (85_352, 21_739, 4_120, 2_847);
        assert_eq!(run(1, 1), ((32_867, 15_194, 2_158, 2_852), (0, 0, 0)));
        assert_eq!(run(4, 1), (chain, (0, 0, 0)));
        // (rounds, windows, window_events)
        for domains in [2, 4] {
            assert_eq!(
                run(4, domains),
                (chain, (15, 480, 85_352)),
                "{domains} domains"
            );
        }
    }
}
