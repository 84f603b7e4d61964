//! The assembled cube: quadrant switches, vault controllers and upstream
//! links behind a single sans-event facade.

use hmc_des::wheel::{Entry, EventQueue};
use hmc_des::{Clocked, InlineVec, Time};
use hmc_link::{Deliveries, LinkTx};
use hmc_mapping::VaultId;
use hmc_noc::{Departures, SwitchConfig, SwitchCore, SwitchEntry};
use hmc_packet::{LinkId, RequestPacket, ResponsePacket};
use hmc_telemetry::{LinkDir, Probe, Stage};

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

/// Port-numbering helper for quadrant switches. Layout per switch:
/// `[link, xq × (quadrants−1), vault × vaults_per_quadrant]`.
#[derive(Debug, Clone, Copy)]
struct PortMap {
    quadrants: usize,
    vaults_per_quad: usize,
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
///    on its own.
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
    calendar: EventQueue<InternalEvent>,
    cal_seq: u64,
    /// Earliest pending calendar instant, cached because
    /// [`EventQueue::peek_time`] needs `&mut` (it may compact wheel
    /// slots) while [`HmcDevice::next_wake`] is a `&self` query.
    /// `schedule` lowers it; the `advance` pop loop recomputes it.
    cal_next: Option<Time>,
    dirty_vaults: Vec<usize>,
    dirty_flag: Vec<bool>,
    /// Bitmask of request-plane switches mutated (enqueue, starved-credit
    /// return, expired busy interval) since their last service. The
    /// fixpoint services only dirty switches: servicing a clean one is a
    /// no-op by construction, and on loaded runs ~96% of the old
    /// unconditional service calls were exactly such no-ops.
    req_dirty: u32,
    /// Response-plane counterpart of `req_dirty`.
    resp_dirty: u32,
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
    /// Cube id this device reports as in telemetry events.
    probe_cube: u8,
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
        HmcDevice {
            cfg,
            ports,
            req_sw,
            resp_sw,
            vaults,
            link_tx,
            link_of_quad,
            calendar: EventQueue::new(),
            cal_seq: 0,
            cal_next: None,
            dirty_vaults: Vec::with_capacity(vault_count),
            dirty_flag: vec![false; vault_count],
            req_dirty: 0,
            resp_dirty: 0,
            outputs: DeviceOutputs::new(),
            req_dep_scratch: Departures::new(),
            resp_dep_scratch: Departures::new(),
            delivery_scratch: Deliveries::new(),
            started_scratch: Vec::new(),
            requests_received: 0,
            responses_sent: 0,
            probe: Probe::off(),
            probe_cube: 0,
        }
    }

    /// Attaches a telemetry probe; events from this device report as cube
    /// `cube`. Also wires the upstream serializers so response-direction
    /// link flits are attributed to this cube.
    pub fn attach_probe(&mut self, probe: &Probe, cube: u8) {
        for (l, tx) in self.link_tx.iter_mut().enumerate() {
            tx.set_probe(probe.clone(), cube, l as u8, LinkDir::Response);
        }
        self.probe = probe.clone();
        self.probe_cube = cube;
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
        let q = self.quad_of_link(link);
        let entry = SwitchEntry {
            output: self.route_request(q, &req),
            flits: pkt.flits(),
            payload: req,
        };
        self.req_sw[q]
            .try_enqueue(LINK_PORT, entry)
            .unwrap_or_else(|_| panic!("link input buffer overflow: token protocol violated"));
        self.req_dirty |= 1 << q;
        self.requests_received += 1;
        self.probe
            .request_enqueue(self.probe_cube, loc.vault.0, now);
        self.probe
            .trace_mark(u16::from(pkt.port.0), pkt.tag.0, Stage::DeviceIngress, now);
    }

    /// Returns host-RX-buffer tokens to the upstream serializer of `link`
    /// (the host drained `flits` flits of responses).
    pub fn return_response_tokens(&mut self, link: LinkId, flits: u32) {
        self.link_tx[link.index()].return_tokens(flits);
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
    /// scan loaded runs without forwarding anything.
    pub fn advance(&mut self, now: Time) -> &DeviceOutputs {
        self.outputs.clear();
        let mut req_deps = std::mem::take(&mut self.req_dep_scratch);
        let mut resp_deps = std::mem::take(&mut self.resp_dep_scratch);
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        // Phase 0: switches whose busy-interval deadlines expired by `now`
        // can progress on their own — mark them dirty. (Credit- and
        // enqueue-driven progress marks dirty at the mutation site.)
        for q in 0..self.req_sw.len() {
            if SwitchCore::next_wake(&self.req_sw[q], Time::ZERO).is_some_and(|t| t <= now) {
                self.req_dirty |= 1 << q;
            }
            if SwitchCore::next_wake(&self.resp_sw[q], Time::ZERO).is_some_and(|t| t <= now) {
                self.resp_dirty |= 1 << q;
            }
        }
        // Phase 1: deliver due calendar events.
        while self.calendar.peek_time().is_some_and(|t| t <= now) {
            let entry = self.calendar.pop().expect("peeked entry exists");
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
                    self.mark_dirty(v);
                }
                InternalEvent::XqRequest { from, to, req } => {
                    let entry = SwitchEntry {
                        output: self.route_request(to, &req),
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
                        output: self.route_response(to, &resp),
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
                    // The egress buffer slot frees as the packet enters the
                    // serializer queue.
                    let q = self.quad_of_link(resp.link);
                    if self.resp_sw[q].return_credits(LINK_PORT, flits) {
                        self.resp_dirty |= 1 << q;
                    }
                    self.responses_sent += 1;
                }
                InternalEvent::BankComplete { vault, bank } => {
                    self.vaults[vault].complete(bank);
                    self.mark_dirty(vault);
                }
            }
        }
        // The pop loop consumed the entries the cache pointed at;
        // re-seed it from the queue head. Later phases only lower it
        // (through `schedule`), so this is the one recompute needed.
        self.cal_next = self.calendar.peek_time();
        // Phase 2: fixpoint over dirty vaults, dirty switches and links.
        loop {
            let mut progress = false;
            // Vault pipelines.
            while let Some(v) = self.dirty_vaults.pop() {
                self.dirty_flag[v] = false;
                progress |= self.pump_vault(v, now);
            }
            // Request-plane switches.
            for q in 0..self.req_sw.len() {
                if self.req_dirty & (1 << q) == 0 {
                    continue;
                }
                self.req_dirty &= !(1 << q);
                self.req_sw[q].service_into(now, &mut req_deps);
                for d in req_deps.drain() {
                    progress = true;
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
                        self.schedule(
                            d.at,
                            InternalEvent::XqRequest {
                                from: q,
                                to,
                                req: d.payload,
                            },
                        );
                    } else {
                        debug_assert!(self.ports.vault_slot(d.output).is_some());
                        self.schedule(
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
                self.resp_sw[q].service_into(now, &mut resp_deps);
                for d in resp_deps.drain() {
                    progress = true;
                    if let Some(slot) = self.ports.vault_slot(d.input) {
                        // Input buffer space freed: the vault may push its
                        // next blocked response.
                        let v = q * self.ports.vaults_per_quad + slot;
                        self.mark_dirty(v);
                    } else if self.ports.is_xq(d.input) {
                        let sender = self.ports.xq_peer(q, d.input);
                        let port = self.ports.xq_port(sender, q);
                        if self.resp_sw[sender].return_credits(port, d.flits) {
                            self.resp_dirty |= 1 << sender;
                        }
                    }
                    if d.output == LINK_PORT {
                        self.schedule(d.at, InternalEvent::LinkPush(d.payload));
                    } else {
                        debug_assert!(self.ports.is_xq(d.output));
                        let to = self.ports.xq_peer(q, d.output);
                        self.schedule(
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
            for l in 0..self.link_tx.len() {
                self.link_tx[l].service_into(now, &mut deliveries);
                for delivery in deliveries.drain() {
                    progress = true;
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
            if !progress {
                break;
            }
        }
        self.req_dep_scratch = req_deps;
        self.resp_dep_scratch = resp_deps;
        self.delivery_scratch = deliveries;
        &self.outputs
    }

    /// The earliest instant at which internal state changes without new
    /// input, or `None` if the device is quiescent. Also available
    /// through the [`hmc_des::Clocked`] protocol.
    pub fn next_wake(&self) -> Option<Time> {
        let mut wake = self.cal_next;
        let consider = |wake: &mut Option<Time>, t: Option<Time>| {
            if let Some(t) = t {
                *wake = Some(wake.map_or(t, |w| w.min(t)));
            }
        };
        // Switch wakes depend on "now"; using Time::ZERO yields every
        // pending busy-interval expiry, which is what we need here.
        for sw in &self.req_sw {
            consider(&mut wake, sw.next_wake(Time::ZERO));
        }
        for sw in &self.resp_sw {
            consider(&mut wake, sw.next_wake(Time::ZERO));
        }
        wake
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

    /// Upstream (response-direction) link transmitter statistics.
    pub fn link_stats(&self, link: LinkId) -> hmc_link::LinkStats {
        self.link_tx[link.index()].stats()
    }

    /// Peak-occupancy census across every internal buffer, as
    /// `(stage label, peak flits-or-requests)` pairs — a debugging aid for
    /// locating where traffic queues.
    pub fn peak_census(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (q, sw) in self.req_sw.iter().enumerate() {
            for p in 0..self.ports.count() {
                let peak = sw.peak_input_flits(p);
                if peak > 0 {
                    out.push((format!("req_sw{q}.in{p}"), u64::from(peak)));
                }
            }
        }
        for (q, sw) in self.resp_sw.iter().enumerate() {
            for p in 0..self.ports.count() {
                let peak = sw.peak_input_flits(p);
                if peak > 0 {
                    out.push((format!("resp_sw{q}.in{p}"), u64::from(peak)));
                }
            }
        }
        for (v, vault) in self.vaults.iter().enumerate() {
            let peak = vault.stats().peak_outstanding;
            if peak > 0 {
                out.push((format!("vault{v}"), peak as u64));
            }
        }
        for (l, tx) in self.link_tx.iter().enumerate() {
            let peak = tx.stats().peak_queue_flits;
            if peak > 0 {
                out.push((format!("link_tx{l}.queue"), u64::from(peak)));
            }
        }
        out
    }

    /// Tokens currently available on an upstream transmitter (host RX
    /// buffer space as seen by the cube).
    pub fn response_tokens_available(&self, link: LinkId) -> u32 {
        self.link_tx[link.index()].tokens_available()
    }

    // -- internals ---------------------------------------------------------

    fn schedule(&mut self, at: Time, ev: InternalEvent) {
        let seq = self.cal_seq;
        self.cal_seq += 1;
        self.calendar.push(Entry {
            time: at,
            seq,
            item: ev,
        });
        self.cal_next = Some(self.cal_next.map_or(at, |w| w.min(at)));
    }

    fn mark_dirty(&mut self, vault: usize) {
        if !self.dirty_flag[vault] {
            self.dirty_flag[vault] = true;
            self.dirty_vaults.push(vault);
        }
    }

    /// Runs one vault's pipeline stages; returns whether anything moved.
    fn pump_vault(&mut self, v: usize, now: Time) -> bool {
        let mut progress = false;
        let q = v / self.ports.vaults_per_quad;
        let slot = v % self.ports.vaults_per_quad;
        // Ingress → bank queues (freeing NoC credits).
        let freed = self.vaults[v].pump_ingress();
        if freed > 0 {
            if self.req_sw[q].return_credits(self.ports.vault_port(slot), freed) {
                self.req_dirty |= 1 << q;
            }
            progress = true;
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
                output: self.route_response(q, &resp),
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
                    progress = true;
                }
                Err(_) => break,
            }
        }
        // Idle banks with queued work → DRAM.
        let ctrl_out = self.cfg.vault.ctrl_latency;
        let mut started = std::mem::take(&mut self.started_scratch);
        self.vaults[v].start_services(now, &mut started);
        for (bank, completion) in started.drain(..) {
            self.probe.vault_service(self.probe_cube, v as u8, now);
            self.schedule(
                completion + ctrl_out,
                InternalEvent::BankComplete { vault: v, bank },
            );
            progress = true;
        }
        self.started_scratch = started;
        progress
    }

    fn quad_of_link(&self, link: LinkId) -> usize {
        self.cfg.link_quadrants[link.index()].index()
    }

    fn route_request(&self, q: usize, req: &DeviceRequest) -> usize {
        let dest_quad = usize::from(req.vault.0) / self.ports.vaults_per_quad;
        if dest_quad == q {
            self.ports
                .vault_port(usize::from(req.vault.0) % self.ports.vaults_per_quad)
        } else {
            self.ports.xq_port(q, dest_quad)
        }
    }

    fn route_response(&self, q: usize, resp: &DeviceResponse) -> usize {
        let dest_quad = self.quad_of_link(resp.link);
        if dest_quad == q {
            LINK_PORT
        } else {
            self.ports.xq_port(q, dest_quad)
        }
    }
}

impl Clocked for HmcDevice {
    /// The device's internal calendar is absolute, so the report is
    /// independent of `now`.
    fn next_wake(&self, _now: Time) -> Option<Time> {
        HmcDevice::next_wake(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The calendar the wheel replaced: a binary heap popping in
    /// `(time, seq)` order. Kept here as the oracle for the equivalence
    /// property below.
    #[derive(Default)]
    struct HeapCalendar {
        heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    }

    impl HeapCalendar {
        fn push(&mut self, at: Time, seq: u64, tag: u32) {
            self.heap.push(Reverse((at, seq, tag)));
        }

        fn pop(&mut self) -> Option<(Time, u64, u32)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Property: under random interleavings of schedules and drains at
    /// calendar-realistic timescales (sub-ns service steps through
    /// multi-µs bank timings, with deliberate time ties), the wheel pops
    /// the exact `(time, seq)` sequence the old binary heap did. This is
    /// the invariant that keeps the device byte-identical across the
    /// swap.
    #[test]
    fn wheel_calendar_pops_exactly_like_the_heap_it_replaced() {
        let mut rng = 0x1d_2e_3f_4a_5b_6c_7d_8eu64;
        for trial in 0..50u64 {
            let mut wheel: EventQueue<u32> = EventQueue::new();
            let mut heap = HeapCalendar::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..400 {
                match xorshift(&mut rng) % 4 {
                    // Schedule a burst; spans (mod choices) cover the
                    // active slot, the near wheel and the far heap.
                    0 | 1 => {
                        let burst = 1 + xorshift(&mut rng) % 4;
                        for _ in 0..burst {
                            let span = match xorshift(&mut rng) % 4 {
                                0 => xorshift(&mut rng) % 800,
                                1 => xorshift(&mut rng) % 60_000,
                                2 => xorshift(&mut rng) % 1_500_000,
                                _ => (xorshift(&mut rng) % 10) * 55_000,
                            };
                            let at = Time::from_ps(now + span);
                            let tag = (trial as u32) << 16 | seq as u32;
                            wheel.push(Entry {
                                time: at,
                                seq,
                                item: tag,
                            });
                            heap.push(at, seq, tag);
                            seq += 1;
                        }
                    }
                    // Drain a few events, advancing `now` to the pop time
                    // so later schedules never land in the past.
                    _ => {
                        for _ in 0..(1 + xorshift(&mut rng) % 3) {
                            let got = wheel.pop().map(|e| (e.time, e.seq, e.item));
                            let want = heap.pop();
                            assert_eq!(got, want, "trial {trial}: pop diverged");
                            if let Some((t, _, _)) = got {
                                now = now.max(t.as_ps());
                            }
                        }
                    }
                }
            }
            // Full drain must agree too.
            loop {
                let got = wheel.pop().map(|e| (e.time, e.seq, e.item));
                let want = heap.pop();
                assert_eq!(got, want, "trial {trial}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
