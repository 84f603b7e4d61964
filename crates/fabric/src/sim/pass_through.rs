//! A cube's pass-through stage: the crossbar and serializers that
//! forward transit traffic between device, fabric and host links.

use hmc_des::{ComponentId, Ctx, Delay, Time};
use hmc_link::{Deliveries, LinkConfig, LinkTx, LinkWidth};
use hmc_noc::{Departures, SwitchCore, SwitchEntry};
use hmc_packet::LinkId;
use hmc_telemetry::{Probe, Stage};

use crate::config::CubeId;
use crate::report::TransitStats;
use crate::route::RouteTable;

use super::cube::CROSSBAR_TIMER;
use super::msg::{EdgeCtl, Msg, TransitBody, TransitMsg};

/// Port layout of one cube's pass-through crossbar:
/// `[device links, fabric links (by ascending neighbor id), host links]`,
/// host links existing only on cube 0.
#[derive(Debug, Clone)]
pub(super) struct AdapterLayout {
    pub(super) dev_links: usize,
    pub(super) neighbors: Vec<CubeId>,
    pub(super) host_links: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PortClass {
    /// Local device link `l`.
    Dev(usize),
    /// Fabric link slot `i` (toward `neighbors[i]`).
    Fabric(usize),
    /// Host link `l` (cube 0 only).
    Host(usize),
}

impl AdapterLayout {
    pub(super) fn count(&self) -> usize {
        self.dev_links + self.neighbors.len() + self.host_links
    }

    fn dev_port(&self, link: LinkId) -> usize {
        link.index()
    }

    pub(super) fn fabric_port(&self, slot: usize) -> usize {
        self.dev_links + slot
    }

    fn host_port(&self, link: LinkId) -> usize {
        self.dev_links + self.neighbors.len() + link.index()
    }

    pub(super) fn classify(&self, port: usize) -> PortClass {
        if port < self.dev_links {
            PortClass::Dev(port)
        } else if port < self.dev_links + self.neighbors.len() {
            PortClass::Fabric(port - self.dev_links)
        } else {
            PortClass::Host(port - self.dev_links - self.neighbors.len())
        }
    }

    /// The fabric port whose link leads to `cube`.
    pub(super) fn port_toward(&self, cube: CubeId) -> usize {
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
///
/// [`CubeComp`]: super::cube::CubeComp
pub(super) struct PassThrough {
    pub(super) cube: CubeId,
    pub(super) layout: AdapterLayout,
    pub(super) routes: RouteTable,
    pub(super) sw: SwitchCore<TransitMsg>,
    /// Egress serializer behind each fabric/host port (`None` on device
    /// ports, whose receiver is the device's own link input buffer).
    pub(super) tx: Vec<Option<LinkTx<TransitMsg>>>,
    /// Fabric edge wiring per port (`None` on non-fabric ports).
    pub(super) edges: Vec<Option<EdgeCtl>>,
    /// The fabric edge lookahead: token returns to a neighbor ride the
    /// reverse SerDes and arrive this much later.
    pub(super) lookahead: Delay,
    /// The crossbar needs service: a fresh enqueue, a credit return that
    /// un-starved an output, or the crossbar timer fired.
    pub(super) sw_dirty: bool,
    /// Per-port bitmask of egress serializers needing service: a fresh
    /// egress enqueue or a token return that un-starved the head. Clean
    /// serializers are provably idle — `LinkTx` commits everything its
    /// tokens allow in one call and has no time-driven wakeups — so the
    /// pump skips them entirely. One u64 bounds a crossbar to 64 ports
    /// ([`FabricConfig::validate`] enforces it — only star hubs past ~60
    /// cubes can exceed the ceiling).
    ///
    /// [`FabricConfig::validate`]: crate::FabricConfig::validate
    pub(super) tx_dirty: u64,
    /// Reused departure scratch for crossbar service.
    pub(super) dep_scratch: Departures<TransitMsg>,
    /// Reused delivery scratch for egress serializer service.
    pub(super) del_scratch: Deliveries<TransitMsg>,
    /// Telemetry probe (detached by default).
    pub(super) probe: Probe,
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
    /// unblocks nothing — time-driven progress is covered by the crossbar
    /// timer — so it skips the pump entirely.
    pub(super) fn accept(&mut self, msg: Msg) -> bool {
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
            Msg::AdapterResetWindow => false,
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
    /// un-starved an output or its timer fired; each serializer when
    /// something entered it or a token return un-starved its head.
    /// Handoffs to the local device and to the egress serializers are
    /// messages to the cube's own component; `host` receives what leaves
    /// cube 0's host ports.
    pub(super) fn pump(&mut self, now: Time, host: Option<ComponentId>, ctx: &mut Ctx<'_, Msg>) {
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
        ctx.set_wake(CROSSBAR_TIMER, self.sw.next_wake(now));
    }

    pub(super) fn transit_stats(&self) -> TransitStats {
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
pub(super) fn internal_handoff_link(input_buffer_flits: u32) -> LinkConfig {
    LinkConfig {
        width: LinkWidth::Full,
        lane_gbps: 10.0,
        serdes_latency: Delay::ZERO,
        protocol_overhead: 0.0,
        input_buffer_flits,
        min_packet_time: Delay::ZERO,
    }
}
