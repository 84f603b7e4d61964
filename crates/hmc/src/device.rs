//! The assembled cube: quadrant switches, vault controllers and upstream
//! links behind a single sans-event facade.

use hmc_des::wheel::{Entry, EventQueue};
use hmc_des::{InlineVec, Time};
use hmc_link::{Deliveries, LinkTx};
use hmc_mapping::VaultId;
use hmc_noc::{Departures, SwitchConfig, SwitchCore, SwitchEntry};
use hmc_packet::{LinkId, RequestPacket, ResponsePacket};
use hmc_telemetry::{Probe, Stage};

use crate::config::DeviceConfig;
use crate::transaction::{DeviceOutput, DeviceRequest, DeviceResponse};
use crate::vault::VaultCtrl;

/// Port index of the external link on every quadrant switch.
const LINK_PORT: usize = 0;

/// The reusable output buffer [`HmcDevice::advance`] fills and returns a
/// view of; sixteen inline slots cover the common burst and spilled
/// capacity is retained across calls, so steady-state advances allocate
/// nothing.
pub type DeviceOutputs = InlineVec<DeviceOutput, 16>;

/// Port numbering and routing for quadrant switches. Layout per switch:
/// `[link, xq × (quadrants−1), vault × vaults_per_quadrant]`.
#[derive(Debug, Clone)]
struct PortMap {
    quadrants: usize,
    vaults_per_quad: usize,
    /// Link id → the quadrant it attaches to.
    link_quad: Vec<usize>,
}

impl PortMap {
    fn count(&self) -> usize {
        1 + (self.quadrants - 1) + self.vaults_per_quad
    }

    /// Output/input port on switch `from` facing switch `to`.
    fn xq_port(&self, from: usize, to: usize) -> usize {
        debug_assert_ne!(from, to);
        1 + if to < from { to } else { to - 1 }
    }

    /// The peer quadrant behind xq port `port` of switch `q`.
    fn xq_peer(&self, q: usize, port: usize) -> usize {
        let idx = port - 1;
        if idx < q {
            idx
        } else {
            idx + 1
        }
    }

    /// Port for local vault slot `slot` (0-based within the quadrant).
    fn vault_port(&self, slot: usize) -> usize {
        self.quadrants + slot
    }

    /// If `port` is a vault port, its local slot.
    fn vault_slot(&self, port: usize) -> Option<usize> {
        (port >= self.quadrants).then(|| port - self.quadrants)
    }

    /// `true` if `port` is a cross-quadrant port.
    fn is_xq(&self, port: usize) -> bool {
        (1..self.quadrants).contains(&port)
    }

    /// The quadrant `link` attaches to.
    fn quad_of_link(&self, link: LinkId) -> usize {
        self.link_quad[link.index()]
    }

    /// Output port on switch `q` toward a request's vault.
    fn route_request(&self, q: usize, req: &DeviceRequest) -> usize {
        let dest_quad = usize::from(req.vault.0) / self.vaults_per_quad;
        if dest_quad == q {
            self.vault_port(usize::from(req.vault.0) % self.vaults_per_quad)
        } else {
            self.xq_port(q, dest_quad)
        }
    }

    /// Output port on switch `q` toward a response's link.
    fn route_response(&self, q: usize, resp: &DeviceResponse) -> usize {
        let dest_quad = self.quad_of_link(resp.link);
        if dest_quad == q {
            LINK_PORT
        } else {
            self.xq_port(q, dest_quad)
        }
    }
}

/// Vaults whose pipelines need a pump, each listed at most once.
struct DirtyVaults {
    list: Vec<usize>,
    flag: Vec<bool>,
}

impl DirtyVaults {
    fn mark(&mut self, vault: usize) {
        if !self.flag[vault] {
            self.flag[vault] = true;
            self.list.push(vault);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let v = self.list.pop()?;
        self.flag[v] = false;
        Some(v)
    }
}

/// The device's calendar of timed internal events.
struct Calendar {
    queue: EventQueue<InternalEvent>,
    seq: u64,
    /// Earliest pending instant, cached because
    /// [`EventQueue::peek_time`] needs `&mut` (it may advance the wheel)
    /// while [`HmcDevice::next_wake`] is a `&self` query. `schedule`
    /// lowers it; `pop_due` re-seeds it once nothing more is due.
    next: Option<Time>,
}

impl Calendar {
    fn schedule(&mut self, at: Time, ev: InternalEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            time: at,
            seq,
            item: ev,
        });
        self.next = Some(self.next.map_or(at, |w| w.min(at)));
    }

    /// Removes the earliest event due at or before `now`. When none is
    /// due, the pops so far consumed what `next` pointed at, so it is
    /// re-seeded from the queue head.
    fn pop_due(&mut self, now: Time) -> Option<Entry<InternalEvent>> {
        let head = self.queue.peek_time();
        if head.is_some_and(|t| t <= now) {
            return self.queue.pop();
        }
        self.next = head;
        None
    }
}

/// Timed internal events.
#[derive(Debug, Clone)]
enum InternalEvent {
    /// A request reaches a vault controller's ingress buffer.
    VaultArrival(DeviceRequest),
    /// A request crosses from quadrant `from` to quadrant `to`.
    XqRequest {
        from: usize,
        to: usize,
        req: DeviceRequest,
    },
    /// A response crosses from quadrant `from` to quadrant `to`.
    XqResponse {
        from: usize,
        to: usize,
        resp: DeviceResponse,
    },
    /// A response reaches the upstream link serializer.
    LinkPush(DeviceResponse),
    /// Bank `bank` of vault `vault` finishes its in-service request.
    BankComplete { vault: usize, bank: usize },
}

/// Aggregate device counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Requests accepted from the links.
    pub requests_received: u64,
    /// Responses handed to the upstream serializers.
    pub responses_sent: u64,
    /// Requests serviced per vault.
    pub per_vault_serviced: Vec<u64>,
    /// Peak simultaneous resident requests per vault.
    pub per_vault_peak_outstanding: Vec<usize>,
    /// Total switch arbitration conflicts (request + response planes).
    pub switch_conflicts: u64,
}

/// The full Hybrid Memory Cube device model.
///
/// One instance owns the request- and response-plane quadrant switches,
/// the 16 vault controllers and the upstream link serializers, and advances
/// them all on an internal event calendar. The surrounding simulation
/// drives it through three calls:
///
/// 1. [`HmcDevice::on_request`] when a request packet finishes arriving on
///    a link (the host's transmitter guarantees buffer space via tokens);
/// 2. [`HmcDevice::advance`] to process internal work up to `now`,
///    collecting [`DeviceOutput`]s (responses and token returns);
/// 3. [`HmcDevice::next_wake`] to learn when internal state next changes
///    on its own, as of that `advance`.
///
/// # Examples
///
/// ```
/// use hmc_des::Time;
/// use hmc_device::{DeviceConfig, DeviceOutput, HmcDevice};
/// use hmc_packet::{Address, CubeId, LinkId, PayloadSize, PortId, RequestKind, RequestPacket, Tag};
///
/// let mut hmc = HmcDevice::new(DeviceConfig::ac510_hmc());
/// let pkt = RequestPacket {
///     port: PortId(0),
///     tag: Tag(0),
///     cube: CubeId::HOST,
///     addr: Address::new(0),
///     kind: RequestKind::Read { size: PayloadSize::B64 },
/// };
/// hmc.on_request(Time::ZERO, LinkId(0), pkt);
/// // Drive the device to quiescence.
/// let mut now = Time::ZERO;
/// let mut response = None;
/// loop {
///     for out in hmc.advance(now) {
///         if let DeviceOutput::Response { pkt, .. } = out {
///             response = Some(*pkt);
///         }
///     }
///     match hmc.next_wake() {
///         Some(t) => now = t,
///         None => break,
///     }
/// }
/// assert_eq!(response.unwrap().tag, Tag(0));
/// ```
pub struct HmcDevice {
    cfg: DeviceConfig,
    ports: PortMap,
    req_sw: Vec<SwitchCore<DeviceRequest>>,
    resp_sw: Vec<SwitchCore<DeviceResponse>>,
    vaults: Vec<VaultCtrl>,
    link_tx: Vec<LinkTx<ResponsePacket>>,
    /// Quadrant index → link id, for quadrants with a link.
    link_of_quad: Vec<Option<LinkId>>,
    calendar: Calendar,
    dirty_vaults: DirtyVaults,
    /// Bitmask of request-plane switches mutated (enqueue, starved-credit
    /// return, expired busy interval) since their last service. The
    /// fixpoint services only dirty switches: servicing a clean one is a
    /// no-op by construction, and on loaded runs ~96% of the old
    /// unconditional service calls were exactly such no-ops.
    req_dirty: u32,
    /// Response-plane counterpart of `req_dirty`.
    resp_dirty: u32,
    /// Bitmask of upstream serializers that may send: set when a response
    /// is enqueued and when a token return relieves a starved head. A
    /// clean serializer is empty or token-starved, so servicing it would
    /// commit nothing.
    link_dirty: u32,
    /// Each quadrant's `[request, response]` switch busy-interval expiry
    /// (`SwitchCore::next_wake(Time::ZERO)`) as of the end of the last
    /// `advance`. Between advances only `on_request` mutates a switch, and
    /// it marks that switch dirty.
    sw_exp: Vec<[Option<Time>; 2]>,
    /// The earliest entry of `sw_exp`.
    sw_next: Option<Time>,
    /// Reused output buffer (returned as a view by `advance`).
    outputs: DeviceOutputs,
    /// Reused departure scratch for request-plane switch service.
    req_dep_scratch: Departures<DeviceRequest>,
    /// Reused departure scratch for response-plane switch service.
    resp_dep_scratch: Departures<DeviceResponse>,
    /// Reused delivery scratch for upstream serializer service.
    delivery_scratch: Deliveries<ResponsePacket>,
    /// Reused `(bank, completion)` scratch for vault bank starts. A plain
    /// `Vec`, not an `InlineVec`: its one-time growth must not count
    /// toward `EngineStats::scratch_spills`.
    started_scratch: Vec<(usize, Time)>,
    requests_received: u64,
    responses_sent: u64,
    /// Telemetry probe (detached by default — every emit is one branch).
    probe: Probe,
}

impl HmcDevice {
    /// Builds an idle device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: DeviceConfig) -> HmcDevice {
        cfg.validate().expect("valid device config");
        let g = *cfg.map.geometry();
        let quadrants = usize::from(g.quadrants);
        let ports = PortMap {
            quadrants,
            vaults_per_quad: usize::from(g.vaults_per_quadrant()),
            link_quad: cfg.link_quadrants.iter().map(|q| q.index()).collect(),
        };
        let sw_cfg = SwitchConfig {
            inputs: ports.count(),
            outputs: ports.count(),
            input_capacity_flits: cfg.switch.input_capacity_flits,
            hop_latency: cfg.switch.hop_latency,
            flit_time: cfg.switch.flit_time,
        };
        let mut link_of_quad = vec![None; quadrants];
        for (i, q) in cfg.link_quadrants.iter().enumerate() {
            link_of_quad[q.index()] = Some(LinkId(i as u8));
        }
        let mut req_sw = Vec::with_capacity(quadrants);
        let mut resp_sw = Vec::with_capacity(quadrants);
        for _q in 0..quadrants {
            // Request plane: vault outputs feed vault ingress buffers; xq
            // outputs feed peer switch xq inputs; the link port is never
            // an output. Input capacities: deep link RX buffer (the token
            // pool), shallow xq buffers, link-depth vault inputs on the
            // response plane.
            let mut req_credits = vec![0u32; ports.count()];
            let mut resp_credits = vec![0u32; ports.count()];
            let mut input_caps = vec![cfg.switch.input_capacity_flits; ports.count()];
            for p in 0..ports.count() {
                if ports.is_xq(p) {
                    req_credits[p] = cfg.switch.xq_capacity_flits;
                    resp_credits[p] = cfg.switch.xq_capacity_flits;
                    input_caps[p] = cfg.switch.xq_capacity_flits;
                } else if ports.vault_slot(p).is_some() {
                    req_credits[p] = cfg.vault.ingress_capacity_flits;
                } else {
                    // Response plane: the link port feeds the upstream
                    // serializer's egress buffer.
                    resp_credits[p] = cfg.switch.link_egress_flits;
                }
            }
            req_sw.push(SwitchCore::with_input_capacities(
                sw_cfg,
                &input_caps,
                &req_credits,
            ));
            resp_sw.push(SwitchCore::with_input_capacities(
                sw_cfg,
                &input_caps,
                &resp_credits,
            ));
        }
        let vaults = (0..g.vaults)
            .map(|_| VaultCtrl::new(usize::from(g.banks_per_vault), cfg.timing, &cfg.vault))
            .collect();
        let link_tx = (0..cfg.link_count())
            .map(|_| LinkTx::new(&cfg.link))
            .collect::<Vec<_>>();
        let vault_count = usize::from(g.vaults);
        assert!(quadrants <= 32, "dirty bitmasks cover up to 32 quadrants");
        assert!(link_tx.len() <= 32, "dirty bitmasks cover up to 32 links");
        HmcDevice {
            cfg,
            ports,
            req_sw,
            resp_sw,
            vaults,
            link_tx,
            link_of_quad,
            calendar: Calendar {
                queue: EventQueue::new(),
                seq: 0,
                next: None,
            },
            dirty_vaults: DirtyVaults {
                list: Vec::with_capacity(vault_count),
                flag: vec![false; vault_count],
            },
            req_dirty: 0,
            resp_dirty: 0,
            link_dirty: 0,
            sw_exp: vec![[None; 2]; quadrants],
            sw_next: None,
            outputs: DeviceOutputs::new(),
            req_dep_scratch: Departures::new(),
            resp_dep_scratch: Departures::new(),
            delivery_scratch: Deliveries::new(),
            started_scratch: Vec::new(),
            requests_received: 0,
            responses_sent: 0,
            probe: Probe::off(),
        }
    }

    /// Attaches a telemetry probe, which marks the device's lifecycle
    /// stages of traced packets.
    pub fn attach_probe(&mut self, probe: &Probe) {
        self.probe = probe.clone();
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Size of the request input buffer behind each link, in flits: the
    /// token pool the host's request transmitter must be configured with.
    pub fn request_tokens_per_link(&self) -> u32 {
        self.cfg.switch.input_capacity_flits
    }

    /// Accepts a request that finished arriving on `link` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the link input buffer lacks space — with correct token
    /// flow control on the host side this cannot happen.
    pub fn on_request(&mut self, now: Time, link: LinkId, pkt: RequestPacket) {
        let loc = self.cfg.map.decode(pkt.addr);
        let req = DeviceRequest {
            pkt,
            link,
            vault: loc.vault,
            bank: loc.bank,
            bursts: pkt.kind.access_size().dram_bursts(),
        };
        let q = self.ports.quad_of_link(link);
        let entry = SwitchEntry {
            output: self.ports.route_request(q, &req),
            flits: pkt.flits(),
            payload: req,
        };
        self.req_sw[q]
            .try_enqueue(LINK_PORT, entry)
            .unwrap_or_else(|_| panic!("link input buffer overflow: token protocol violated"));
        self.req_dirty |= 1 << q;
        self.requests_received += 1;
        self.probe
            .trace_mark(u16::from(pkt.port.0), pkt.tag.0, Stage::DeviceIngress, now);
    }

    /// Returns host-RX-buffer tokens to the upstream serializer of `link`
    /// (the host drained `flits` flits of responses).
    pub fn return_response_tokens(&mut self, link: LinkId, flits: u32) {
        if self.link_tx[link.index()].return_tokens(flits) {
            self.link_dirty |= 1 << link.index();
        }
    }

    /// Processes all internal events up to and including `now` and runs the
    /// pipelines to a fixpoint. Returns a view of the externally visible
    /// outputs, valid until the next call (the buffer is reused —
    /// steady-state advances allocate nothing).
    ///
    /// The fixpoint is *dirty-gated*: a switch is serviced only when it
    /// was mutated since its last service (new entry, a credit return its
    /// starvation flag asked for, or an expired output busy interval).
    /// Servicing a clean switch is a no-op — the arbiter does not rotate
    /// and no counter moves on a grantless pass — so the gate is
    /// observably pure and removes the ~96% of service calls that used to
    /// scan loaded runs without forwarding anything. Upstream serializers
    /// are gated the same way: one is serviced only after a response was
    /// enqueued on it or a token return relieved its starved head, since
    /// a clean one is empty or token-starved. The fixpoint ends as soon as
    /// no vault, switch or serializer is dirty.
    ///
    /// Each switch's busy-interval expiry is computed once, at the end of
    /// the call, and stored: the next call reads the stored expiries to
    /// find the switches that became ready on their own, and
    /// [`HmcDevice::next_wake`] reads their minimum.
    pub fn advance(&mut self, now: Time) -> &DeviceOutputs {
        self.outputs.clear();
        // Phase 0: switches whose busy-interval deadlines expired by `now`
        // can progress on their own — mark them dirty. (Credit- and
        // enqueue-driven progress marks dirty at the mutation site.)
        #[cfg(debug_assertions)]
        for (q, exp) in self.sw_exp.iter().enumerate() {
            if self.req_dirty & (1 << q) == 0 {
                debug_assert_eq!(
                    exp[0],
                    self.req_sw[q].next_wake(Time::ZERO),
                    "stale switch expiry"
                );
            }
            if self.resp_dirty & (1 << q) == 0 {
                debug_assert_eq!(
                    exp[1],
                    self.resp_sw[q].next_wake(Time::ZERO),
                    "stale switch expiry"
                );
            }
        }
        if self.sw_next.is_some_and(|t| t <= now) {
            for (q, [req, resp]) in self.sw_exp.iter().enumerate() {
                if req.is_some_and(|t| t <= now) {
                    self.req_dirty |= 1 << q;
                }
                if resp.is_some_and(|t| t <= now) {
                    self.resp_dirty |= 1 << q;
                }
            }
        }
        // Phase 1: deliver due calendar events.
        while let Some(entry) = self.calendar.pop_due(now) {
            let at = entry.time;
            match entry.item {
                InternalEvent::VaultArrival(req) => {
                    let v = req.vault.index();
                    self.probe.trace_mark(
                        u16::from(req.pkt.port.0),
                        req.pkt.tag.0,
                        Stage::VaultService,
                        at,
                    );
                    self.vaults[v].push_ingress(req);
                    self.dirty_vaults.mark(v);
                }
                InternalEvent::XqRequest { from, to, req } => {
                    let entry = SwitchEntry {
                        output: self.ports.route_request(to, &req),
                        flits: req.pkt.flits(),
                        payload: req,
                    };
                    // Space is reserved by the sender's output credits.
                    let input = self.ports.xq_port(to, from);
                    self.req_sw[to]
                        .try_enqueue(input, entry)
                        .unwrap_or_else(|_| panic!("xq request overflow: credits violated"));
                    self.req_dirty |= 1 << to;
                }
                InternalEvent::XqResponse { from, to, resp } => {
                    let entry = SwitchEntry {
                        output: self.ports.route_response(to, &resp),
                        flits: resp.pkt.flits(),
                        payload: resp,
                    };
                    let input = self.ports.xq_port(to, from);
                    self.resp_sw[to]
                        .try_enqueue(input, entry)
                        .unwrap_or_else(|_| panic!("xq response overflow: credits violated"));
                    self.resp_dirty |= 1 << to;
                }
                InternalEvent::LinkPush(resp) => {
                    let l = resp.link.index();
                    let flits = resp.pkt.flits();
                    self.link_tx[l].enqueue(resp.pkt, flits);
                    self.link_dirty |= 1 << l;
                    // The egress buffer slot frees as the packet enters the
                    // serializer queue.
                    let q = self.ports.quad_of_link(resp.link);
                    if self.resp_sw[q].return_credits(LINK_PORT, flits) {
                        self.resp_dirty |= 1 << q;
                    }
                    self.responses_sent += 1;
                }
                InternalEvent::BankComplete { vault, bank } => {
                    self.vaults[vault].complete(bank);
                    self.dirty_vaults.mark(vault);
                }
            }
        }
        // Phase 2: fixpoint over dirty vaults, switches and serializers.
        while !self.dirty_vaults.list.is_empty()
            || self.req_dirty | self.resp_dirty | self.link_dirty != 0
        {
            // Vault pipelines.
            while let Some(v) = self.dirty_vaults.pop() {
                self.pump_vault(v, now);
            }
            // Request-plane switches.
            for q in 0..self.req_sw.len() {
                if self.req_dirty & (1 << q) == 0 {
                    continue;
                }
                self.req_dirty &= !(1 << q);
                self.req_sw[q].service_into(now, &mut self.req_dep_scratch);
                for d in self.req_dep_scratch.drain() {
                    if d.input == LINK_PORT {
                        let link = self.link_of_quad[q].expect("link-attached quadrant");
                        self.outputs.push(DeviceOutput::RequestTokens {
                            link,
                            flits: d.flits,
                        });
                    } else if self.ports.is_xq(d.input) {
                        let sender = self.ports.xq_peer(q, d.input);
                        let port = self.ports.xq_port(sender, q);
                        if self.req_sw[sender].return_credits(port, d.flits) {
                            self.req_dirty |= 1 << sender;
                        }
                    }
                    if self.ports.is_xq(d.output) {
                        let to = self.ports.xq_peer(q, d.output);
                        self.calendar.schedule(
                            d.at,
                            InternalEvent::XqRequest {
                                from: q,
                                to,
                                req: d.payload,
                            },
                        );
                    } else {
                        debug_assert!(self.ports.vault_slot(d.output).is_some());
                        self.calendar.schedule(
                            d.at + self.cfg.vault.ctrl_latency,
                            InternalEvent::VaultArrival(d.payload),
                        );
                    }
                }
            }
            // Response-plane switches.
            for q in 0..self.resp_sw.len() {
                if self.resp_dirty & (1 << q) == 0 {
                    continue;
                }
                self.resp_dirty &= !(1 << q);
                self.resp_sw[q].service_into(now, &mut self.resp_dep_scratch);
                for d in self.resp_dep_scratch.drain() {
                    if let Some(slot) = self.ports.vault_slot(d.input) {
                        // Input buffer space freed: the vault may push its
                        // next blocked response.
                        self.dirty_vaults
                            .mark(q * self.ports.vaults_per_quad + slot);
                    } else if self.ports.is_xq(d.input) {
                        let sender = self.ports.xq_peer(q, d.input);
                        let port = self.ports.xq_port(sender, q);
                        if self.resp_sw[sender].return_credits(port, d.flits) {
                            self.resp_dirty |= 1 << sender;
                        }
                    }
                    if d.output == LINK_PORT {
                        self.calendar
                            .schedule(d.at, InternalEvent::LinkPush(d.payload));
                    } else {
                        debug_assert!(self.ports.is_xq(d.output));
                        let to = self.ports.xq_peer(q, d.output);
                        self.calendar.schedule(
                            d.at,
                            InternalEvent::XqResponse {
                                from: q,
                                to,
                                resp: d.payload,
                            },
                        );
                    }
                }
            }
            // Upstream serializers.
            let mut links = self.link_dirty;
            self.link_dirty = 0;
            while links != 0 {
                let l = links.trailing_zeros() as usize;
                links &= links - 1;
                self.link_tx[l].service_into(now, &mut self.delivery_scratch);
                for delivery in self.delivery_scratch.drain() {
                    self.probe.trace_mark(
                        u16::from(delivery.payload.port.0),
                        delivery.payload.tag.0,
                        Stage::ResponseLink,
                        delivery.at,
                    );
                    self.outputs.push(DeviceOutput::Response {
                        link: LinkId(l as u8),
                        pkt: delivery.payload,
                        at: delivery.at,
                    });
                }
            }
        }
        debug_assert!(
            self.link_tx
                .iter()
                .all(|tx| tx.head_flits().is_none_or(|f| f > tx.tokens_available())),
            "clean serializer could send"
        );
        for (exp, (req, resp)) in self
            .sw_exp
            .iter_mut()
            .zip(self.req_sw.iter().zip(&self.resp_sw))
        {
            *exp = [req.next_wake(Time::ZERO), resp.next_wake(Time::ZERO)];
        }
        self.sw_next = self.sw_exp.iter().flatten().flatten().copied().min();
        &self.outputs
    }

    /// The earliest instant at which internal state changes without new
    /// input, or `None` if the device is quiescent. The calendar is
    /// absolute, so unlike the [`hmc_des::wake`] protocol's cores this
    /// query takes no `now`.
    ///
    /// The answer reflects the device as of the last
    /// [`HmcDevice::advance`], which stores the switches' busy-interval
    /// expiries: call it after `advance`, as the three-call order in the
    /// type docs does.
    pub fn next_wake(&self) -> Option<Time> {
        match (self.calendar.next, self.sw_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Requests currently resident in the vault controllers (ingress
    /// buffers, bank queues, banks and blocked responses) — the dominant
    /// component of the occupancy the paper estimates via Little's law in
    /// Figure 14.
    pub fn outstanding(&self) -> usize {
        self.vaults.iter().map(|v| v.outstanding()).sum()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            requests_received: self.requests_received,
            responses_sent: self.responses_sent,
            per_vault_serviced: self.vaults.iter().map(|v| v.stats().serviced).collect(),
            per_vault_peak_outstanding: self
                .vaults
                .iter()
                .map(|v| v.stats().peak_outstanding)
                .collect(),
            switch_conflicts: self
                .req_sw
                .iter()
                .map(|sw| sw.arbitration_conflicts())
                .chain(self.resp_sw.iter().map(|sw| sw.arbitration_conflicts()))
                .sum(),
        }
    }

    /// Immutable view of a vault controller (for experiment statistics).
    pub fn vault(&self, v: VaultId) -> &VaultCtrl {
        &self.vaults[v.index()]
    }

    // -- internals ---------------------------------------------------------

    /// Runs one vault's pipeline stages.
    fn pump_vault(&mut self, v: usize, now: Time) {
        let q = v / self.ports.vaults_per_quad;
        let slot = v % self.ports.vaults_per_quad;
        // Ingress → bank queues (freeing NoC credits).
        let freed = self.vaults[v].pump_ingress();
        if freed > 0 && self.req_sw[q].return_credits(self.ports.vault_port(slot), freed) {
            self.req_dirty |= 1 << q;
        }
        // Completed responses → response switch.
        while let Some((bank, req)) = self.vaults[v].ready_response() {
            let resp = DeviceResponse {
                pkt: ResponsePacket::for_request(&req.pkt),
                link: req.link,
            };
            let (t_port, t_tag) = (u16::from(req.pkt.port.0), req.pkt.tag.0);
            let flits = resp.pkt.flits();
            let entry = SwitchEntry {
                output: self.ports.route_response(q, &resp),
                flits,
                payload: resp,
            };
            let input = self.ports.vault_port(slot);
            match self.resp_sw[q].try_enqueue(input, entry) {
                Ok(()) => {
                    let _ = self.vaults[v].take_completed(bank);
                    self.resp_dirty |= 1 << q;
                    self.probe
                        .trace_mark(t_port, t_tag, Stage::ResponseReady, now);
                }
                Err(_) => break,
            }
        }
        // Idle banks with queued work → DRAM.
        let ctrl_out = self.cfg.vault.ctrl_latency;
        self.vaults[v].start_services(now, &mut self.started_scratch);
        for (bank, completion) in self.started_scratch.drain(..) {
            self.calendar.schedule(
                completion + ctrl_out,
                InternalEvent::BankComplete { vault: v, bank },
            );
        }
    }
}
