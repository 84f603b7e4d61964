//! Engine messages, cross-domain envelopes and the keyed ordering
//! that makes them schedule-independent.

use std::sync::mpsc::Sender;

use hmc_des::{ComponentId, Ctx, Delay, Time, KEYED_EVENT_BIT};
use hmc_packet::{LinkId, RequestPacket, ResponsePacket};

use crate::config::CubeId;

/// A packet in flight on the fabric, stamped with its source route anchors:
/// the destination cube (requests) and the host link affinity that carries
/// it back out (responses exit the fabric on the host link the request
/// entered on).
#[derive(Debug, Clone, Copy)]
pub(super) struct TransitMsg {
    /// Destination cube of a request; responses always head for cube 0.
    pub(super) dest: CubeId,
    /// The host link the transaction entered on; doubles as the device
    /// link used at the destination cube.
    pub(super) host_link: LinkId,
    pub(super) body: TransitBody,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum TransitBody {
    Req(RequestPacket),
    Resp(ResponsePacket),
}

impl TransitMsg {
    pub(super) fn flits(&self) -> u32 {
        match &self.body {
            TransitBody::Req(pkt) => pkt.flits(),
            TransitBody::Resp(pkt) => pkt.flits(),
        }
    }

    /// The `(port, tag)` transaction identity telemetry traces by.
    pub(super) fn identity(&self) -> (u16, u16) {
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
pub(super) enum Msg {
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
    /// End of GUPS warmup at a fabric cube. It does nothing: the host
    /// records all telemetry, and its `HostResetStats` has already reset
    /// the hub at the same instant (both are pushed before the run starts
    /// and ties dispatch FIFO). It stays scheduled only because its
    /// engine events are counted in `EngineStats::dispatched`, which
    /// perfbench's pinned digests fold in; dropping it moves those pins.
    AdapterResetWindow,
}

/// A cross-domain message as it crosses an edge: the receiving cube, the
/// absolute delivery time, the canonical ordering key and the payload.
/// Injected into the receiving domain's engine when that domain next
/// drains its inbox.
pub(super) struct Envelope {
    pub(super) cube: usize,
    pub(super) at: Time,
    pub(super) key: u64,
    pub(super) msg: Msg,
}

/// Where a fabric edge's messages go: straight into the shared engine
/// (serial, or a neighbor in the same domain) or into the inbox of the
/// domain that owns `cube`.
pub(super) enum EdgeWire {
    Local(ComponentId),
    Remote {
        inbox: Sender<Envelope>,
        cube: usize,
    },
}

impl EdgeWire {
    pub(super) fn send(&self, ctx: &mut Ctx<'_, Msg>, at: Time, key: u64, msg: Msg) {
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
pub(super) fn keyed(chan: u64, seq: &mut u64) -> u64 {
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
pub(super) struct EdgeCtl {
    pub(super) wire: EdgeWire,
    pub(super) peer_port: usize,
    pub(super) arrive_chan: u64,
    pub(super) tokens_chan: u64,
    pub(super) arrive_seq: u64,
    pub(super) tokens_seq: u64,
}

impl EdgeCtl {
    pub(super) fn next_arrive_key(&mut self) -> u64 {
        keyed(self.arrive_chan, &mut self.arrive_seq)
    }

    pub(super) fn next_tokens_key(&mut self) -> u64 {
        keyed(self.tokens_chan, &mut self.tokens_seq)
    }
}

/// What [`FabricSim::execute`] is asked to run.
///
/// [`FabricSim::execute`]: super::FabricSim::execute
#[derive(Debug, Clone, Copy)]
pub(super) enum RunKind {
    Gups { warmup: Delay, measure: Delay },
    Streams,
}
