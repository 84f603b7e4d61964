//! Traffic ports: pull-based traffic sources behind tag pools and the
//! monitoring logic of Figure 5.

use core::fmt;

use hmc_des::Time;
use hmc_mapping::CubeTargeting;
use hmc_packet::{CubeId, PortId, RequestPacket, ResponsePacket, Tag};
use hmc_stats::{BandwidthMeter, LatencySketch};
use hmc_telemetry::Probe;
use hmc_workloads::{Completion, Feedback, SourceStep, TraceOp, TrafficSource};

/// A pool of transaction tags bounding a port's outstanding requests.
///
/// "Each port must track outstanding requests, so each port can handle a
/// limited number of outstanding requests at a time" (Section IV-A) — the
/// mechanism that caps small-request bandwidth in Figure 6 and sets the
/// saturation knee of Figure 8.
#[derive(Debug, Clone)]
pub struct TagPool {
    free: Vec<u16>,
    issue_time: Vec<Option<Time>>,
}

impl TagPool {
    /// Creates a pool of `capacity` tags.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: u16) -> TagPool {
        assert!(capacity > 0, "tag pool needs at least one tag");
        TagPool {
            free: (0..capacity).rev().collect(),
            issue_time: vec![None; usize::from(capacity)],
        }
    }

    /// Total tags.
    pub(crate) fn capacity(&self) -> u16 {
        self.issue_time.len() as u16
    }

    /// Tags currently outstanding.
    pub(crate) fn in_flight(&self) -> u16 {
        self.capacity() - self.free.len() as u16
    }

    /// `true` if a tag is available.
    pub(crate) fn has_free(&self) -> bool {
        !self.free.is_empty()
    }

    /// Allocates a tag, recording the issue time.
    pub(crate) fn allocate(&mut self, now: Time) -> Option<Tag> {
        let tag = self.free.pop()?;
        self.issue_time[usize::from(tag)] = Some(now);
        Some(Tag(tag))
    }

    /// Releases `tag`, returning the time it was issued.
    ///
    /// # Panics
    ///
    /// Panics if the tag was not outstanding (a duplicate or spurious
    /// response — always a protocol bug).
    pub(crate) fn release(&mut self, tag: Tag) -> Time {
        let slot = usize::from(tag.0);
        let issued = self.issue_time[slot]
            .take()
            .unwrap_or_else(|| panic!("release of idle {tag}"));
        self.free.push(tag.0);
        issued
    }
}

/// The port's cached view of its source's last non-`Op` answer, so the
/// side-effect-free queries ([`Port::wake_hint`], [`Port::is_done`]) never
/// have to poll the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceState {
    /// The source must be polled at the next opportunity.
    Poll,
    /// The source asked to wait until this instant.
    Waiting(Time),
    /// The source is waiting for a completion.
    Blocked,
    /// The source is exhausted.
    Done,
}

/// One FPGA port: a pull-based [`TrafficSource`], a tag pool, and the
/// monitoring logic that records counts and latency aggregates.
///
/// The port polls its source only when it could actually issue (free tag;
/// active, for [duration-gated](TrafficSource::duration_gated) sources)
/// and relays each completed transaction back through the source's
/// [`Feedback`] exactly once — the closed loop that lets sources derive
/// their next request from a prior response.
pub struct Port {
    id: PortId,
    source: Box<dyn TrafficSource>,
    state: SourceState,
    /// Completions not yet presented to the source.
    fresh: Vec<Completion>,
    gated: bool,
    rx_extra: u32,
    label: &'static str,
    tags: TagPool,
    /// How this port derives the CUB field for each request: a static
    /// cube (the pre-fabric behavior) or a checked split of the
    /// workload's global address.
    targeting: CubeTargeting,
    /// Issued op, its source-local issue index, and the cube the request
    /// was stamped for, by tag (to account response bytes, build
    /// completions and attribute completions per cube).
    op_by_tag: Vec<Option<(TraceOp, u64, CubeId)>>,
    active: bool,
    issued: u64,
    completed: u64,
    recording: bool,
    latency: LatencySketch,
    bytes: BandwidthMeter,
    reads_recorded: u64,
    writes_recorded: u64,
    /// Completions recorded in the measurement window, per destination
    /// cube — the per-cube attribution of a split (addressed) stream.
    /// Grown lazily to the highest completed cube, so ports of small
    /// fabrics stay small even though CUB addresses 64 cubes.
    completed_by_cube: Vec<u64>,
    probe: Probe,
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Port")
            .field("id", &self.id)
            .field("source", &self.label)
            .field("state", &self.state)
            .field("issued", &self.issued)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl Port {
    /// Creates a port over a traffic source. Duration-gated sources (GUPS)
    /// start inactive (activate with [`Port::set_active`]); all other
    /// sources run to exhaustion regardless of activation.
    ///
    /// # Panics
    ///
    /// Panics if `tags` is zero.
    pub fn new(id: PortId, source: Box<dyn TrafficSource>, tags: u16) -> Port {
        let capacity = usize::from(tags);
        let gated = source.duration_gated();
        let rx_extra = source.rx_extra_flits();
        let label = source.label();
        Port {
            id,
            source,
            state: SourceState::Poll,
            fresh: Vec::new(),
            gated,
            rx_extra,
            label,
            tags: TagPool::new(tags),
            targeting: CubeTargeting::default(),
            op_by_tag: vec![None; capacity],
            active: false,
            issued: 0,
            completed: 0,
            recording: true,
            latency: LatencySketch::new(),
            bytes: BandwidthMeter::new(),
            reads_recorded: 0,
            writes_recorded: 0,
            completed_by_cube: Vec::new(),
            probe: Probe::off(),
        }
    }

    /// Sets how the port derives each request's CUB field (default:
    /// every request targets [`CubeId::HOST`] — the single-cube system).
    pub fn with_targeting(mut self, targeting: CubeTargeting) -> Port {
        self.targeting = targeting;
        self
    }

    /// Attaches a telemetry probe (default [`Probe::off`]): issues feed
    /// the sampled packet tracer, completions feed the epoch timelines
    /// and the per-cube latency sketches.
    pub(crate) fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The port's cube-targeting policy.
    pub fn targeting(&self) -> CubeTargeting {
        self.targeting
    }

    /// This port's id.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// The source's reporting label.
    pub fn source_label(&self) -> &'static str {
        self.label
    }

    /// Activates or deactivates a duration-gated (GUPS) port. Ports over
    /// run-to-exhaustion sources ignore this.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// The earliest instant at which polling this port could issue a
    /// request, or `None` while only an external event (a response freeing
    /// a tag, a completion unblocking the source, activation) can help.
    /// `Time::ZERO` stands for "pollable right now": deliberately
    /// conservative, since the poll may still answer `Blocked`/`Done`,
    /// costing one no-op tick, never a missed issue.
    ///
    /// The hint is time-independent. It changes only when the port
    /// mutates (an issue, a response, activation), never with the mere
    /// passage of time — so the host model caches it per port and
    /// refreshes it at those mutation points instead of re-deriving every
    /// port's state on every wake query.
    pub(crate) fn wake_hint(&self) -> Option<Time> {
        if !self.tags.has_free() {
            return None;
        }
        if self.gated && !self.active {
            return None;
        }
        match self.state {
            SourceState::Poll => Some(Time::ZERO),
            SourceState::Waiting(t) => Some(t),
            SourceState::Blocked | SourceState::Done => None,
        }
    }

    /// Builds the port's next request if the source has one and a tag is
    /// free. Completions received since the last poll are handed to the
    /// source first. The request's CUB field is stamped here: fixed
    /// targeting uses the configured cube, addressed targeting derives it
    /// from the op's global address through the fabric map's checked
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if the source violates its protocol: waits into the past,
    /// blocks with nothing outstanding (which could never unblock), or —
    /// under addressed targeting — emits a global address that does not
    /// map into the fabric (the loud replacement for the old silent
    /// 34-bit wrap that aliased such requests into cube 0).
    pub fn try_issue(&mut self, now: Time) -> Option<RequestPacket> {
        if !self.tags.has_free() || (self.gated && !self.active) {
            return None;
        }
        match self.state {
            SourceState::Done | SourceState::Blocked => return None,
            SourceState::Waiting(t) if now < t => return None,
            _ => {}
        }
        let feedback = Feedback {
            completions: &self.fresh,
            outstanding: self.tags.in_flight(),
        };
        let step = self.source.next(now, &feedback);
        self.fresh.clear();
        let op = match step {
            SourceStep::Op(op) => {
                self.state = SourceState::Poll;
                op
            }
            SourceStep::WaitUntil(t) => {
                assert!(t > now, "source must wait into the future");
                self.state = SourceState::Waiting(t);
                return None;
            }
            SourceStep::Blocked => {
                assert!(
                    self.tags.in_flight() > 0,
                    "source blocked with nothing outstanding: it can never unblock"
                );
                self.state = SourceState::Blocked;
                return None;
            }
            SourceStep::Done => {
                self.state = SourceState::Done;
                return None;
            }
        };
        let (cube, addr) = self
            .targeting
            .resolve(op.addr)
            .unwrap_or_else(|e| panic!("{} emitted an unmappable address: {e}", self.id));
        let tag = self.tags.allocate(now).expect("free tag checked above");
        self.op_by_tag[usize::from(tag.0)] = Some((op, self.issued, cube));
        self.issued += 1;
        self.probe
            .trace_issue(u16::from(self.id.0), tag.0, cube.0, now);
        Some(RequestPacket {
            port: self.id,
            tag,
            cube,
            addr,
            kind: op.kind,
        })
    }

    /// Completes the transaction `pkt` answers: frees its tag, records
    /// latency and round-trip bytes, and queues the completion for the
    /// source's next poll.
    ///
    /// # Panics
    ///
    /// Panics if the response's tag is not outstanding.
    pub fn on_response(&mut self, now: Time, pkt: &ResponsePacket) {
        let issued_at = self.tags.release(pkt.tag);
        let (op, index, cube) = self.op_by_tag[usize::from(pkt.tag.0)]
            .take()
            .expect("tag carries its request op");
        self.completed += 1;
        self.probe
            .trace_complete(u16::from(self.id.0), pkt.tag.0, now);
        if self.recording {
            let latency_ps = (now - issued_at).as_ps();
            self.latency.record_ps(latency_ps);
            self.bytes.add_bytes(op.kind.round_trip_bytes());
            if op.kind.is_read() {
                self.reads_recorded += 1;
            } else {
                self.writes_recorded += 1;
            }
            if self.completed_by_cube.len() <= cube.index() {
                self.completed_by_cube.resize(cube.index() + 1, 0);
            }
            self.completed_by_cube[cube.index()] += 1;
            self.probe
                .completion(latency_ps, op.kind.round_trip_bytes(), now);
        }
        self.fresh.push(Completion {
            index,
            op,
            issued_at,
            completed_at: now,
        });
        // A completion may unblock a closed-loop source (or re-schedule a
        // waiting one): force a fresh poll at the next opportunity. A
        // finished source stays finished.
        if matches!(self.state, SourceState::Blocked | SourceState::Waiting(_)) {
            self.state = SourceState::Poll;
        }
    }

    /// `true` once the source is exhausted and every response is home.
    /// Duration-gated ports are done when deactivated and drained.
    pub(crate) fn is_done(&self) -> bool {
        let drained = self.tags.in_flight() == 0;
        if self.gated {
            !self.active && drained
        } else {
            self.state == SourceState::Done && drained
        }
    }

    /// Extra flits this port's RX path moves per response (the source's
    /// [`TrafficSource::rx_extra_flits`]): stream-style firmware ships
    /// each response's address back to the host alongside the data
    /// (Figure 5b's "Rd. Addr. FIFO"), costing one flit; GUPS ports only
    /// update local counters.
    pub(crate) fn rx_extra_flits(&self) -> u32 {
        self.rx_extra
    }

    /// Total requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total responses received.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The monitoring-logic latency aggregate, with quantile buckets.
    pub fn latency(&self) -> &LatencySketch {
        &self.latency
    }

    /// The monitoring-logic byte counter (paper bandwidth formula units).
    pub fn bytes(&self) -> &BandwidthMeter {
        &self.bytes
    }

    /// Read transactions recorded in the measurement window.
    pub fn reads_recorded(&self) -> u64 {
        self.reads_recorded
    }

    /// Write/atomic transactions recorded in the measurement window.
    pub fn writes_recorded(&self) -> u64 {
        self.writes_recorded
    }

    /// Completions recorded in the measurement window, by destination
    /// cube (indexed by [`CubeId::index`]). The slice only reaches the
    /// highest cube this port completed against — entries past its end
    /// are zero. For a fixed-targeting port only one slot is ever
    /// nonzero; for an addressed port this is the per-cube attribution
    /// of the split stream.
    pub fn completed_by_cube(&self) -> &[u64] {
        &self.completed_by_cube
    }

    /// Clears the monitors (end of warmup).
    pub(crate) fn reset_stats(&mut self) {
        self.latency.reset();
        self.bytes.reset();
        self.reads_recorded = 0;
        self.writes_recorded = 0;
        self.completed_by_cube.clear();
    }

    /// Stops recording (end of the measurement window); responses still
    /// drain and free tags but no longer affect the monitors.
    pub(crate) fn freeze_stats(&mut self) {
        self.recording = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_mapping::{AccessPattern, AddressMap, VaultId};
    use hmc_packet::{Address, PayloadSize, RequestKind};
    use hmc_workloads::{
        random_reads_in_vaults, GupsOp, GupsSource, PointerChase, Trace, TraceReplay,
    };

    fn gups_port(tags: u16) -> Port {
        let map = AddressMap::hmc_gen2_default();
        let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
        Port::new(
            PortId(0),
            Box::new(GupsSource::new(filter, GupsOp::Read(PayloadSize::B32), 7)),
            tags,
        )
    }

    #[test]
    fn tag_pool_bounds_outstanding() {
        let mut p = gups_port(2);
        p.set_active(true);
        let a = p.try_issue(Time::ZERO).unwrap();
        let b = p.try_issue(Time::ZERO).unwrap();
        assert_ne!(a.tag, b.tag);
        assert!(p.try_issue(Time::ZERO).is_none(), "tags exhausted");
        assert_eq!(p.tags.in_flight(), 2);
        p.on_response(Time::from_ns(100), &ResponsePacket::for_request(&a));
        assert!(p.try_issue(Time::ZERO).is_some());
    }

    #[test]
    fn latency_and_bytes_recorded() {
        let mut p = gups_port(4);
        p.set_active(true);
        let req = p.try_issue(Time::from_ns(10)).unwrap();
        p.on_response(Time::from_ns(710), &ResponsePacket::for_request(&req));
        assert_eq!(p.latency().count(), 1);
        assert_eq!(p.latency().mean_ns(), 700.0);
        // 32 B read: 16 + 48 = 64 B round trip.
        assert_eq!(p.bytes().bytes(), 64);
    }

    #[test]
    fn inactive_gups_port_stays_silent() {
        let mut p = gups_port(4);
        assert!(p.try_issue(Time::ZERO).is_none());
        assert_eq!(p.wake_hint(), None, "inactive port sleeps");
        p.set_active(true);
        assert!(p.try_issue(Time::ZERO).is_some());
        p.set_active(false);
        assert!(p.try_issue(Time::ZERO).is_none());
        assert!(!p.is_done(), "still draining one response");
    }

    #[test]
    fn stream_port_replays_trace_in_order() {
        let trace = Trace::from_ops(vec![
            TraceOp::read(Address::new(0), PayloadSize::B64),
            TraceOp::read(Address::new(128), PayloadSize::B64),
        ]);
        let mut p = Port::new(PortId(3), Box::new(TraceReplay::new(trace)), 8);
        let a = p.try_issue(Time::ZERO).unwrap();
        let b = p.try_issue(Time::ZERO).unwrap();
        assert_eq!(a.addr.raw(), 0);
        assert_eq!(b.addr.raw(), 128);
        assert!(p.try_issue(Time::ZERO).is_none(), "trace exhausted");
        assert!(!p.is_done());
        p.on_response(Time::from_ns(1), &ResponsePacket::for_request(&a));
        p.on_response(Time::from_ns(2), &ResponsePacket::for_request(&b));
        assert!(p.is_done());
        assert_eq!(p.source_label(), "stream");
    }

    #[test]
    fn freeze_stops_recording_but_not_draining() {
        let mut p = gups_port(4);
        p.set_active(true);
        let req = p.try_issue(Time::ZERO).unwrap();
        p.freeze_stats();
        p.on_response(Time::from_ns(500), &ResponsePacket::for_request(&req));
        assert_eq!(p.latency().count(), 0);
        assert_eq!(p.completed(), 1);
        assert_eq!(p.tags.in_flight(), 0);
    }

    #[test]
    fn gups_addresses_respect_filter_and_alignment() {
        let map = AddressMap::hmc_gen2_default();
        let filter = AccessPattern::Vaults { count: 2 }.filter(&map);
        let mut p = Port::new(
            PortId(1),
            Box::new(GupsSource::new(filter, GupsOp::Read(PayloadSize::B64), 3)),
            64,
        );
        p.set_active(true);
        for _ in 0..64 {
            let req = p.try_issue(Time::ZERO).unwrap();
            assert_eq!(req.addr.raw() % 64, 0, "aligned");
            assert!(map.decode(req.addr).vault.0 < 2, "filtered");
        }
    }

    #[test]
    fn mix_generates_both_kinds() {
        let map = AddressMap::hmc_gen2_default();
        let filter = AccessPattern::Vaults { count: 16 }.filter(&map);
        let mut p = Port::new(
            PortId(0),
            Box::new(GupsSource::new(
                filter,
                GupsOp::Mix {
                    size: PayloadSize::B64,
                    write_percent: 50,
                },
                11,
            )),
            200,
        );
        p.set_active(true);
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..200 {
            match p.try_issue(Time::ZERO).unwrap().kind {
                RequestKind::Read { .. } => reads += 1,
                RequestKind::Write { .. } => writes += 1,
            }
        }
        assert!(
            reads > 50 && writes > 50,
            "mix is roughly balanced: {reads}/{writes}"
        );
    }

    #[test]
    fn closed_loop_chase_blocks_until_its_completion_returns() {
        let map = AddressMap::hmc_gen2_default();
        let vaults: Vec<VaultId> = (0..16).map(VaultId).collect();
        let chase = PointerChase::new(&map, &vaults, PayloadSize::B64, 1, 3, 5);
        let mut p = Port::new(PortId(0), Box::new(chase), 16);
        let first = p.try_issue(Time::ZERO).unwrap();
        assert!(
            p.try_issue(Time::ZERO).is_none(),
            "a 1-walker chase is strictly serial"
        );
        assert_eq!(p.wake_hint(), None, "blocked source sleeps");
        p.on_response(Time::from_ns(700), &ResponsePacket::for_request(&first));
        assert_eq!(
            p.wake_hint(),
            Some(Time::ZERO),
            "a completion re-arms the poll"
        );
        let second = p.try_issue(Time::from_ns(700)).unwrap();
        assert_ne!(second.addr, first.addr, "the chain moved");
        assert_eq!(p.rx_extra_flits(), 1, "closed loops ship addresses back");
    }

    #[test]
    fn bounded_uniform_source_finishes_without_activation() {
        let map = AddressMap::hmc_gen2_default();
        let trace = random_reads_in_vaults(&map, &[VaultId(0)], PayloadSize::B32, 2, 1);
        let mut p = Port::new(PortId(0), Box::new(TraceReplay::new(trace)), 8);
        let a = p.try_issue(Time::ZERO).unwrap();
        let b = p.try_issue(Time::ZERO).unwrap();
        assert!(p.try_issue(Time::ZERO).is_none());
        assert!(!p.is_done());
        p.on_response(Time::from_ns(1), &ResponsePacket::for_request(&a));
        p.on_response(Time::from_ns(2), &ResponsePacket::for_request(&b));
        // One more poll discovers exhaustion.
        assert!(p.try_issue(Time::from_ns(3)).is_none());
        assert!(p.is_done());
    }

    #[test]
    fn addressed_port_derives_cub_from_the_address() {
        use hmc_mapping::{CubePolicy, FabricAddressMap};
        use hmc_packet::GlobalAddress;

        let map = AddressMap::hmc_gen2_default();
        let fabric = FabricAddressMap::new(CubePolicy::Blocked, 4, &map);
        let trace = Trace::from_ops(vec![
            TraceOp::read(GlobalAddress::new(2u64 << 34 | 0x100), PayloadSize::B64),
            TraceOp::read(GlobalAddress::new(0x200), PayloadSize::B64),
            TraceOp::read(GlobalAddress::new(3u64 << 34 | 0x300), PayloadSize::B64),
        ]);
        let mut p = Port::new(PortId(0), Box::new(TraceReplay::new(trace)), 8)
            .with_targeting(CubeTargeting::Addressed(fabric));
        let a = p.try_issue(Time::ZERO).unwrap();
        let b = p.try_issue(Time::ZERO).unwrap();
        let c = p.try_issue(Time::ZERO).unwrap();
        assert_eq!((a.cube, a.addr.raw()), (CubeId(2), 0x100));
        assert_eq!((b.cube, b.addr.raw()), (CubeId(0), 0x200));
        assert_eq!((c.cube, c.addr.raw()), (CubeId(3), 0x300));
        // Completions attribute per cube.
        p.on_response(Time::from_ns(10), &ResponsePacket::for_request(&a));
        p.on_response(Time::from_ns(20), &ResponsePacket::for_request(&c));
        assert_eq!(p.completed_by_cube()[2], 1);
        assert_eq!(p.completed_by_cube()[3], 1);
        assert_eq!(p.completed_by_cube()[0], 0);
    }

    #[test]
    fn fixed_port_keeps_header_mask_semantics() {
        use hmc_packet::GlobalAddress;

        // The degenerate map: a fixed-targeting port masks to the 34-bit
        // header field exactly as the pre-fabric pipeline did.
        let trace = Trace::from_ops(vec![TraceOp::read(
            GlobalAddress::new(1u64 << 34 | 0x80),
            PayloadSize::B16,
        )]);
        let mut p = Port::new(PortId(0), Box::new(TraceReplay::new(trace)), 2)
            .with_targeting(CubeTargeting::Fixed(CubeId(1)));
        let req = p.try_issue(Time::ZERO).unwrap();
        assert_eq!(req.cube, CubeId(1));
        assert_eq!(req.addr.raw(), 0x80, "bit 34 dropped, header semantics");
    }

    #[test]
    #[should_panic(expected = "unmappable address")]
    fn addressed_port_rejects_out_of_fabric_addresses_loudly() {
        use hmc_mapping::{CubePolicy, FabricAddressMap};
        use hmc_packet::GlobalAddress;

        // The aliasing trap, end to end: on a 5-cube fabric an address in
        // the missing cube 6 must fail the issue path loudly instead of
        // wrapping into cube 0.
        let map = AddressMap::hmc_gen2_default();
        let fabric = FabricAddressMap::new(CubePolicy::Blocked, 5, &map);
        let trace = Trace::from_ops(vec![TraceOp::read(
            GlobalAddress::new(6u64 << 34 | 0x80),
            PayloadSize::B64,
        )]);
        let mut p = Port::new(PortId(0), Box::new(TraceReplay::new(trace)), 2)
            .with_targeting(CubeTargeting::Addressed(fabric));
        let _ = p.try_issue(Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "release of idle")]
    fn duplicate_response_panics() {
        let mut p = gups_port(2);
        p.set_active(true);
        let req = p.try_issue(Time::ZERO).unwrap();
        let resp = ResponsePacket::for_request(&req);
        p.on_response(Time::ZERO, &resp);
        p.on_response(Time::ZERO, &resp);
    }
}
