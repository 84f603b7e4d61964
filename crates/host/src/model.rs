//! The host controller: per-port FIFOs, arbitration, link scheduling and
//! response drain — the FPGA half of Figure 5.

use hmc_des::{Clocked, InlineVec, Time};
use hmc_link::{Deliveries, LinkTx};
use hmc_noc::{BoundedQueue, RoundRobinArbiter};
use hmc_packet::{LinkId, PortId, RequestPacket, ResponsePacket};
use hmc_telemetry::{LinkDir, Probe, Stage};

use crate::config::HostConfig;
use crate::port::Port;

/// The reusable event buffer the host's advance methods fill and return a
/// view of. Sixteen inline slots cover every common FPGA cycle; bursts
/// beyond that spill once into retained heap capacity, so the per-cycle
/// relay path allocates nothing in steady state.
pub type HostEvents = InlineVec<HostEvent, 16>;

/// Timed effects of advancing the host model. The surrounding simulation
/// relays each to its destination at the recorded time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEvent {
    /// A request packet finishes arriving at the cube on `link` at `at`.
    RequestArrival {
        /// Link it travelled on.
        link: LinkId,
        /// The packet.
        pkt: RequestPacket,
        /// Arrival time at the cube (serialization + SerDes + controller
        /// pipeline).
        at: Time,
    },
    /// A response finishes draining across its port's AXI interface at
    /// `at`; deliver it to the port then.
    ResponseDrained {
        /// Destination port.
        port: PortId,
        /// The packet.
        pkt: ResponsePacket,
        /// Drain-completion time.
        at: Time,
    },
    /// The host RX buffer for `link` frees `flits` flits at `at`; return
    /// them to the cube's upstream serializer then.
    ResponseTokens {
        /// The link whose buffer drained.
        link: LinkId,
        /// Flits freed.
        flits: u32,
        /// When the space frees.
        at: Time,
    },
}

/// The modelled FPGA: ports, per-port request FIFOs, a round-robin
/// arbiter onto the external links, and per-port response serializers.
///
/// Pure state machine: the caller invokes [`HostModel::tick`] once per
/// FPGA cycle while traffic is active and forwards the returned events.
pub struct HostModel {
    cfg: HostConfig,
    ports: Vec<Port>,
    fifos: Vec<BoundedQueue<RequestPacket>>,
    arb: RoundRobinArbiter,
    /// Per-link controller pipeline: packets picked by the arbiter spend
    /// `ctrl_latency_req` here before reaching the serializer. Charging
    /// the pipeline *before* the wire matters: link tokens are a
    /// wire-level protocol, so the token loop must not include the
    /// controller pipeline.
    staged: Vec<std::collections::VecDeque<(Time, RequestPacket)>>,
    /// Earliest time each link's pipeline may admit its next packet (the
    /// pipeline advances one packet per FPGA cycle).
    stage_admit_at: Vec<Time>,
    link_tx: Vec<LinkTx<RequestPacket>>,
    rx_busy: Vec<Time>,
    /// Cached [`Port::wake_hint`] per port, refreshed at every port
    /// mutation (issue attempt, response delivery, activation flip). Lets
    /// [`HostModel::next_wake`] — queried after every message — skip
    /// re-deriving each port's tag/state condition.
    port_hints: Vec<Option<Time>>,
    /// Reused event buffer (returned as a view by `tick`/`pump_links`/
    /// `on_response_arrival`/`on_request_tokens`).
    events: HostEvents,
    /// Reused delivery scratch for link serializer service.
    delivery_scratch: Deliveries<RequestPacket>,
    probe: Probe,
}

impl HostModel {
    /// Builds a host over the given ports.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `ports` is empty.
    pub fn new(cfg: HostConfig, ports: Vec<Port>) -> HostModel {
        cfg.validate().expect("valid host config");
        assert!(!ports.is_empty(), "host needs at least one port");
        let fifos = ports
            .iter()
            .map(|_| BoundedQueue::new(cfg.port_fifo_packets))
            .collect::<Vec<_>>();
        let link_tx = (0..cfg.link_count)
            .map(|_| LinkTx::new(&cfg.link))
            .collect::<Vec<_>>();
        let staged = (0..cfg.link_count)
            .map(|_| std::collections::VecDeque::new())
            .collect();
        let stage_admit_at = vec![Time::ZERO; usize::from(cfg.link_count)];
        let arb = RoundRobinArbiter::new(ports.len());
        let rx_busy = vec![Time::ZERO; ports.len()];
        let port_hints = ports.iter().map(Port::wake_hint).collect();
        HostModel {
            cfg,
            ports,
            fifos,
            arb,
            staged,
            stage_admit_at,
            link_tx,
            rx_busy,
            port_hints,
            events: HostEvents::new(),
            delivery_scratch: Deliveries::new(),
            probe: Probe::off(),
        }
    }

    /// Attaches a telemetry probe to the host and everything it owns:
    /// the ports (issue tracing, completion sketches) and the request
    /// link serializers (link-flit events, stamped cube 0 — the cube the
    /// host's links physically attach to). Detached by default.
    pub fn attach_probe(&mut self, probe: &Probe) {
        for p in &mut self.ports {
            p.set_probe(probe.clone());
        }
        for (l, tx) in self.link_tx.iter_mut().enumerate() {
            tx.set_probe(probe.clone(), 0, l as u8, LinkDir::Request);
        }
        self.probe = probe.clone();
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// One FPGA cycle: every port may issue one request into its FIFO,
    /// the arbiter moves FIFO heads onto the least-loaded links, and the
    /// links serialize what tokens allow.
    ///
    /// Returns a view of the model's reused event buffer, valid until the
    /// next advance call — the relay path allocates nothing per cycle.
    pub fn tick(&mut self, now: Time) -> &HostEvents {
        for i in 0..self.ports.len() {
            if !self.fifos[i].is_full() {
                if let Some(pkt) = self.ports[i].try_issue(now) {
                    self.fifos[i].push(pkt).expect("checked not full");
                }
                // Issue attempts advance the source (and may consume the
                // last tag), so the cached hint is refreshed here — full
                // FIFOs skip the attempt and leave the hint untouched.
                self.port_hints[i] = self.ports[i].wake_hint();
            }
        }
        self.pump_links(now)
    }

    /// Moves FIFO heads through the controller pipeline to the links and
    /// serializes; called on ticks and on token returns. Returns a view
    /// of the reused event buffer (see [`HostModel::tick`]).
    pub fn pump_links(&mut self, now: Time) -> &HostEvents {
        self.events.clear();
        // Packets whose pipeline latency elapsed reach their serializer —
        // if its FIFO has room; a full serializer stalls the pipeline
        // (backpressure toward the ports).
        for (l, staged) in self.staged.iter_mut().enumerate() {
            while let Some(&(ready, pkt)) = staged.front() {
                if ready > now
                    || self.link_tx[l].backlog_flits(now) + pkt.flits() > self.cfg.link_fifo_flits
                {
                    break;
                }
                staged.pop_front();
                self.link_tx[l].enqueue(pkt, pkt.flits());
            }
        }
        // Arbitrate FIFO heads onto links until nothing moves. Each
        // link's pipeline admits one packet per FPGA cycle, and admission
        // also requires serializer room (wire backlog below the link FIFO
        // budget; pipeline occupancy is latency, not buffering).
        loop {
            let candidate = self
                .link_tx
                .iter()
                .enumerate()
                .filter(|&(l, _)| self.stage_admit_at[l] <= now)
                .map(|(l, tx)| {
                    (
                        l,
                        self.cfg
                            .link_fifo_flits
                            .saturating_sub(tx.backlog_flits(now)),
                    )
                })
                .max_by_key(|&(l, room)| (room, std::cmp::Reverse(l)));
            let Some((link, room)) = candidate else { break };
            let fifos = &self.fifos;
            let granted = self
                .arb
                .grant(|p| fifos[p].peek().is_some_and(|pkt| pkt.flits() <= room));
            let Some(p) = granted else { break };
            let pkt = self.fifos[p].pop().expect("granted head exists");
            self.stage_admit_at[link] = now + self.cfg.fpga_period;
            self.probe
                .trace_mark(u16::from(pkt.port.0), pkt.tag.0, Stage::HostLink, now);
            self.staged[link].push_back((now + self.cfg.ctrl_latency_req, pkt));
        }
        // Serialize onto the wire.
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        for l in 0..self.link_tx.len() {
            self.link_tx[l].service_into(now, &mut deliveries);
            for d in deliveries.drain() {
                self.events.push(HostEvent::RequestArrival {
                    link: LinkId(l as u8),
                    pkt: d.payload,
                    at: d.at,
                });
            }
        }
        self.delivery_scratch = deliveries;
        &self.events
    }

    /// A response packet finished arriving on `link`: route it to its
    /// port's RX serializer. Returns a view of the reused event buffer
    /// (see [`HostModel::tick`]).
    pub fn on_response_arrival(
        &mut self,
        now: Time,
        link: LinkId,
        pkt: ResponsePacket,
    ) -> &HostEvents {
        let port = pkt.port;
        let slot = port.index();
        assert!(slot < self.ports.len(), "response for unknown {port}");
        let flits = pkt.flits();
        let drain_flits = flits + self.ports[slot].rx_extra_flits();
        let start = (now + self.cfg.ctrl_latency_resp).max(self.rx_busy[slot]);
        let done = start + self.cfg.port_rx_flit_time * drain_flits;
        self.rx_busy[slot] = done;
        self.events.clear();
        self.events.push(HostEvent::ResponseDrained {
            port,
            pkt,
            at: done,
        });
        // Tokens return as soon as the packet leaves the link RX ring for
        // the controller's (pipelined) response path; holding them through
        // the pipeline would throttle the link far below its measured
        // throughput.
        self.events.push(HostEvent::ResponseTokens {
            link,
            flits,
            at: now,
        });
        &self.events
    }

    /// Delivers a drained response to its port (call at the
    /// [`HostEvent::ResponseDrained`] timestamp).
    pub fn deliver_response(&mut self, now: Time, pkt: &ResponsePacket) {
        let slot = pkt.port.index();
        self.ports[slot].on_response(now, pkt);
        self.port_hints[slot] = self.ports[slot].wake_hint();
    }

    /// Returns request tokens to `link`'s transmitter (the cube drained
    /// its input buffer) and pumps the links. Returns a view of the
    /// reused event buffer (see [`HostModel::tick`]).
    pub fn on_request_tokens(&mut self, now: Time, link: LinkId, flits: u32) -> &HostEvents {
        self.link_tx[link.index()].return_tokens(flits);
        self.pump_links(now)
    }

    /// The earliest instant at which `link`'s serializer could accept a
    /// packet of `flits` flits *without any token return*: the wire drains
    /// one flit per effective flit time, so the admission backlog bound is
    /// met once enough wire time has passed. `None` while the unserialized
    /// queue alone already exceeds the budget — only a token return
    /// (a message that re-pumps the links) can free that.
    fn wire_room_at(&self, link: usize, flits: u32, now: Time) -> Option<Time> {
        let tx = &self.link_tx[link];
        let queued = tx.queue_flits();
        if queued + flits > self.cfg.link_fifo_flits {
            return None;
        }
        // backlog(t) = queued + ceil(wire_ps(t) / flit_ps) must not exceed
        // the budget: wire time still outstanding at t may cover at most
        // `allowed` flits.
        let allowed = u64::from(self.cfg.link_fifo_flits - queued - flits);
        let flit_ps = tx.effective_flit_time().as_ps().max(1);
        let at = Time::from_ps(tx.busy_until().as_ps().saturating_sub(allowed * flit_ps));
        Some(at.max(now))
    }

    /// The next instant at which ticking the host could make progress, or
    /// `None` while the host is idle (every port blocked on tags or done,
    /// all pipes drained or token-starved) — the host-side half of the
    /// clocked-component protocol that lets the simulation skip idle FPGA
    /// cycles entirely.
    ///
    /// Ticks live on the FPGA clock grid (multiples of `fpga_period` from
    /// [`Time::ZERO`]); the reported instant is the first grid point not
    /// before `now` at which something can actually move:
    ///
    /// - a port whose source could issue ([`Port::next_wake`]) needs the
    ///   first grid point at or after that instant — provided its FIFO has
    ///   room (a full FIFO drains by admission, covered below);
    /// - a FIFO head needs the earliest grid point at which *some* link
    ///   can admit it: past that link's one-admission-per-cycle gate and
    ///   with serializer room, where room is derived from the wire-drain
    ///   schedule ([`HostModel::wire_room_at`]) instead of retrying every
    ///   cycle;
    /// - a staged packet needs the first grid point at or after both its
    ///   pipeline-exit time and its serializer's wire-drain room;
    /// - packets whose serializer queue alone exceeds the room budget, and
    ///   packets queued in a link serializer, need no wake at all: they
    ///   are, by construction, token-starved, and the token return message
    ///   itself pumps the links ([`HostModel::on_request_tokens`]).
    ///
    /// Progress driven by inbound traffic (responses arriving, tags
    /// freeing on delivery, completions unblocking closed-loop sources) is
    /// message-driven and deliberately *not* reported here; the
    /// surrounding component re-queries after every such message.
    pub fn next_wake(&self, now: Time) -> Option<Time> {
        let period = self.cfg.fpga_period.as_ps();
        let grid_ceil = |t: Time| Time::from_ps(t.as_ps().div_ceil(period) * period);
        let mut wake: Option<Time> = None;
        let mut propose = |t: Time| {
            wake = Some(wake.map_or(t, |w| w.min(t)));
        };
        for (i, (hint, fifo)) in self.port_hints.iter().zip(&self.fifos).enumerate() {
            debug_assert_eq!(*hint, self.ports[i].wake_hint(), "stale port wake hint");
            if fifo.is_full() {
                continue;
            }
            if let Some(t) = hint {
                propose(grid_ceil((*t).max(now)));
            }
        }
        for fifo in &self.fifos {
            let Some(pkt) = fifo.peek() else { continue };
            // Earliest admission over all links: the per-cycle admission
            // gate and the wire-drain room bound both satisfied.
            let at = (0..self.link_tx.len())
                .filter_map(|l| {
                    self.wire_room_at(l, pkt.flits(), now)
                        .map(|room| room.max(self.stage_admit_at[l]))
                })
                .min();
            if let Some(t) = at {
                propose(grid_ceil(t.max(now)));
            }
        }
        for (l, staged) in self.staged.iter().enumerate() {
            if let Some(&(ready, pkt)) = staged.front() {
                if let Some(room) = self.wire_room_at(l, pkt.flits(), now) {
                    propose(grid_ceil(room.max(ready).max(now)));
                }
            }
        }
        wake
    }

    /// `true` when every port is done and all plumbing is empty.
    pub fn all_done(&self) -> bool {
        self.ports.iter().all(|p| p.is_done())
            && self.fifos.iter().all(|f| f.is_empty())
            && self.staged.iter().all(|s| s.is_empty())
            && self.link_tx.iter().all(|tx| tx.queue_len() == 0)
    }

    /// Activates or deactivates every GUPS port.
    pub fn set_all_active(&mut self, active: bool) {
        for (p, hint) in self.ports.iter_mut().zip(&mut self.port_hints) {
            p.set_active(active);
            *hint = p.wake_hint();
        }
    }

    /// Clears every port's monitors (end of warmup).
    pub fn reset_stats(&mut self) {
        for p in &mut self.ports {
            p.reset_stats();
        }
    }

    /// Freezes every port's monitors (end of the measurement window).
    pub fn freeze_stats(&mut self) {
        for p in &mut self.ports {
            p.freeze_stats();
        }
    }

    /// The ports, in id order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// One port by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Total outstanding requests across ports.
    pub fn outstanding(&self) -> u32 {
        self.ports.iter().map(|p| u32::from(p.outstanding())).sum()
    }
}

impl Clocked for HostModel {
    fn next_wake(&self, now: Time) -> Option<Time> {
        HostModel::next_wake(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_mapping::{AccessPattern, AddressMap};
    use hmc_packet::PayloadSize;
    use hmc_workloads::{GupsOp, GupsSource};

    fn host_with_gups_ports(n: usize, tags: u16) -> HostModel {
        let map = AddressMap::hmc_gen2_default();
        let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
        let ports = (0..n)
            .map(|i| {
                Port::new(
                    PortId(i as u8),
                    Box::new(GupsSource::new(
                        filter,
                        GupsOp::Read(PayloadSize::B32),
                        i as u64,
                    )),
                    tags,
                )
            })
            .collect();
        HostModel::new(HostConfig::ac510_default(), ports)
    }

    /// Ticks the host `cycles` times from t=0, returning every event.
    /// Requests appear only after the controller pipeline latency
    /// (~45 FPGA cycles), so tests drive well past it.
    fn drive(h: &mut HostModel, cycles: u64) -> Vec<HostEvent> {
        let period = h.config().fpga_period;
        let mut events = Vec::new();
        for c in 0..cycles {
            events.extend(h.tick(Time::ZERO + period * c).iter().copied());
        }
        events
    }

    fn arrivals(events: &[HostEvent]) -> Vec<RequestPacket> {
        events
            .iter()
            .filter_map(|e| match e {
                HostEvent::RequestArrival { pkt, .. } => Some(*pkt),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn pipeline_delays_first_arrivals() {
        let mut h = host_with_gups_ports(3, 64);
        h.set_all_active(true);
        // Nothing can reach the wire before the controller pipeline
        // latency elapses.
        let early = drive(&mut h, 40);
        assert!(
            arrivals(&early).is_empty(),
            "arrival before the pipeline drained"
        );
        let later = drive(&mut h, 60);
        assert!(!arrivals(&later).is_empty(), "pipeline never drained");
    }

    #[test]
    fn admission_is_one_packet_per_link_per_cycle() {
        let mut h = host_with_gups_ports(9, 64);
        h.set_all_active(true);
        let cycles = 200u64;
        let events = drive(&mut h, cycles);
        let n = arrivals(&events).len() as u64;
        assert!(n > 0);
        assert!(
            n <= cycles * 2,
            "more than one admission per link per cycle"
        );
    }

    #[test]
    fn requests_balance_across_links() {
        let mut h = host_with_gups_ports(8, 64);
        h.set_all_active(true);
        let mut per_link = [0u32; 2];
        for e in drive(&mut h, 120) {
            if let HostEvent::RequestArrival { link, .. } = e {
                per_link[link.index()] += 1;
            }
        }
        assert!(
            per_link[0] > 0 && per_link[1] > 0,
            "both links used: {per_link:?}"
        );
    }

    #[test]
    fn response_drain_serializes_per_port() {
        let mut h = host_with_gups_ports(1, 64);
        h.set_all_active(true);
        let issued = arrivals(&drive(&mut h, 80));
        assert!(!issued.is_empty());
        let resp = ResponsePacket::for_request(&issued[0]);
        let now = Time::from_us(5);
        let events: Vec<HostEvent> = h
            .on_response_arrival(now, LinkId(0), resp)
            .iter()
            .copied()
            .collect();
        let drain_at = events
            .iter()
            .find_map(|e| match e {
                HostEvent::ResponseDrained { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        // 32 B read response = 3 flits at one flit per FPGA cycle, after
        // the controller pipeline (GUPS ports pay no extra address flit).
        let cfg = HostConfig::ac510_default();
        let expected = now + cfg.ctrl_latency_resp + cfg.port_rx_flit_time * 3u32;
        assert_eq!(drain_at, expected);
        // Tokens return at arrival (the RX ring hands off to the pipelined
        // response path immediately).
        assert!(events
            .iter()
            .any(|e| matches!(e, HostEvent::ResponseTokens { flits: 3, at, .. } if *at == now)));
    }

    #[test]
    fn tag_exhaustion_stops_issue_until_delivery() {
        let mut h = host_with_gups_ports(1, 2);
        h.set_all_active(true);
        let first = arrivals(&drive(&mut h, 120));
        assert_eq!(first.len(), 2, "two tags bound outstanding requests");
        // Deliver one response; the port can issue again.
        let resp = ResponsePacket::for_request(&first[0]);
        h.deliver_response(Time::from_us(5), &resp);
        let period = h.config().fpga_period;
        let mut more = Vec::new();
        for c in 0..120u64 {
            more.extend(h.tick(Time::from_us(5) + period * c).iter().copied());
        }
        assert_eq!(
            arrivals(&more).len(),
            1,
            "freed tag allows exactly one more"
        );
    }

    #[test]
    fn next_wake_snaps_to_the_fpga_grid() {
        let mut h = host_with_gups_ports(1, 4);
        let period = h.config().fpga_period;
        assert_eq!(h.next_wake(Time::ZERO), None, "inactive host sleeps");
        h.set_all_active(true);
        assert_eq!(
            h.next_wake(Time::ZERO),
            Some(Time::ZERO),
            "an on-grid instant with work is itself the wake"
        );
        assert_eq!(
            h.next_wake(Time::from_ps(1)),
            Some(Time::ZERO + period),
            "off-grid queries snap forward to the next FPGA cycle"
        );
    }

    #[test]
    fn staged_pipeline_wake_skips_the_idle_cycles() {
        let mut h = host_with_gups_ports(1, 1);
        h.set_all_active(true);
        let events: Vec<HostEvent> = h.tick(Time::ZERO).iter().copied().collect();
        assert!(arrivals(&events).is_empty(), "pipeline holds the request");
        // One tag, now in flight: the only pending work is the staged
        // packet's pipeline exit, ~45 cycles out. The host must not ask
        // to be woken before it.
        let wake = h.next_wake(Time::ZERO).expect("staged packet needs a wake");
        let period = h.config().fpga_period;
        let ctrl = h.config().ctrl_latency_req;
        assert_eq!(wake.as_ps() % period.as_ps(), 0, "wakes live on the grid");
        assert!(
            wake >= Time::ZERO + ctrl,
            "no wake before the pipeline exit"
        );
        assert!(
            wake > Time::ZERO + period,
            "idle pipeline cycles are skipped"
        );
    }

    #[test]
    fn tag_starved_host_sleeps_until_delivery() {
        let mut h = host_with_gups_ports(1, 1);
        h.set_all_active(true);
        let issued = arrivals(&drive(&mut h, 120));
        assert_eq!(issued.len(), 1, "one tag bounds one in-flight request");
        let now = Time::from_us(5);
        assert_eq!(
            h.next_wake(now),
            None,
            "tag-starved host with drained pipes reports no wake at all"
        );
        h.deliver_response(now, &ResponsePacket::for_request(&issued[0]));
        assert!(
            h.next_wake(now).is_some(),
            "a freed tag makes the next cycle interesting again"
        );
    }

    #[test]
    fn next_wake_reflects_activation() {
        let mut h = host_with_gups_ports(1, 4);
        assert_eq!(h.next_wake(Time::ZERO), None, "inactive GUPS port is idle");
        h.set_all_active(true);
        assert!(h.next_wake(Time::ZERO).is_some());
        h.set_all_active(false);
        assert_eq!(h.next_wake(Time::ZERO), None);
        assert!(h.all_done(), "inactive drained host is done");
    }

    #[test]
    fn saturated_serializer_sleeps_until_the_wire_drains() {
        // Fill one link's serializer far past the admission budget, then
        // ask for the next wake: the host must not retry every cycle —
        // the wake is derived from the wire-drain schedule (or absent
        // entirely while the unserialized queue alone exceeds the room
        // budget, which only a token return can fix).
        let mut h = host_with_gups_ports(9, 64);
        h.set_all_active(true);
        let period = h.config().fpga_period;
        let mut now = Time::ZERO;
        // Drive until every port is tag-starved and the pipes are full.
        for _ in 0..400u64 {
            h.tick(now);
            now += period;
        }
        let wake = h.next_wake(now);
        if let Some(t) = wake {
            assert!(
                t > now + period,
                "a saturated host must sleep past the next cycle, got {t} at {now}"
            );
        }
        // Token returns still reach a sleeping host through
        // `on_request_tokens`, so `None` is equally acceptable here.
    }

    #[test]
    fn stats_controls_propagate() {
        let mut h = host_with_gups_ports(2, 4);
        h.set_all_active(true);
        let reqs = arrivals(&drive(&mut h, 80));
        assert!(reqs.len() >= 2);
        h.deliver_response(Time::from_us(1), &ResponsePacket::for_request(&reqs[0]));
        assert_eq!(h.port(reqs[0].port).latency().count(), 1);
        h.reset_stats();
        assert_eq!(h.port(reqs[0].port).latency().count(), 0);
        h.freeze_stats();
        h.deliver_response(Time::from_us(2), &ResponsePacket::for_request(&reqs[1]));
        assert_eq!(h.port(reqs[1].port).latency().count(), 0);
    }
}
