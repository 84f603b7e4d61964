//! Building engine domains from a fabric's build plan.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use hmc_des::{ComponentId, Delay, Engine, Time};
use hmc_device::{DeviceConfig, HmcDevice};
use hmc_faults::{FaultPlan, LinkKey};
use hmc_host::{HostConfig, HostModel, Port};
use hmc_link::{Deliveries, LinkConfig, LinkTx, RetryTuning};
use hmc_noc::{Departures, SwitchConfig, SwitchCore};
use hmc_packet::PortId;
use hmc_telemetry::Probe;

use crate::config::{CubeId, FabricConfig};
use crate::route::RouteTable;

use super::cube::CubeComp;
use super::host::HostComp;
use super::msg::{EdgeCtl, EdgeWire, Envelope, Msg, RunKind, TransitMsg};
use super::pass_through::{AdapterLayout, PassThrough, PortClass};
use super::FabricPortSpec;

/// Everything needed to build any engine domain of a fabric, computed
/// once up front. `Send + Sync` so worker threads can build their own
/// engines from a shared reference — engines themselves hold `Rc`-based
/// telemetry and are constructed inside the thread that runs them.
pub(super) struct BuildPlan {
    pub(super) cfg: FabricConfig,
    pub(super) dev_cfg: DeviceConfig,
    pub(super) host_cfg: HostConfig,
    pub(super) specs: Vec<FabricPortSpec>,
    pub(super) routes: RouteTable,
    pub(super) layouts: Vec<AdapterLayout>,
    /// Prefix sums of per-cube neighbor counts: the global index of cube
    /// `c`'s directed edge `slot` is `edge_base[c] + slot`, from which
    /// both of the edge's keyed channel ids derive.
    pub(super) edge_base: Vec<usize>,
    /// The device's per-link request token pool (input credit of device
    /// crossbar ports).
    pub(super) req_tokens: u32,
    pub(super) n: usize,
    /// Deterministic link-fault injection, if any ([`FabricSim::with_faults`]).
    /// `None` keeps every link on the zero-cost fault-free path.
    ///
    /// [`FabricSim::with_faults`]: super::FabricSim::with_faults
    pub(super) faults: Option<Arc<FaultPlan>>,
}

/// One engine domain, built and run on a single thread: its engine and
/// the components it owns.
pub(super) struct DomainParts {
    pub(super) engine: Engine<Msg>,
    pub(super) host: Option<ComponentId>,
    /// One component per owned cube, in `cubes` order.
    pub(super) comps: Vec<ComponentId>,
    /// The cubes this domain owns, ascending.
    pub(super) cubes: Vec<usize>,
}

/// Arms one link transmitter with the build plan's fault injection, if
/// the plan singles this link out. No plan, or a plan without a spec for
/// this key, leaves the transmitter on its zero-cost fault-free path.
pub(super) fn arm_faults(
    plan: &BuildPlan,
    link: &mut LinkTx<TransitMsg>,
    key: LinkKey,
    cfg: &LinkConfig,
) {
    let Some(fp) = &plan.faults else { return };
    let Some(inj) = fp.injector(key) else { return };
    link.set_faults(inj, RetryTuning::derive(cfg).with_degrade_after(fp.degrade));
    link.set_trace_identity(|m: &TransitMsg| m.identity());
}

/// Builds cube `c`'s pass-through stage, its fabric edges not yet wired.
pub(super) fn pass_through(plan: &BuildPlan, probe: &Probe, c: usize) -> PassThrough {
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
pub(super) fn build_domain(
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
/// warmup reset and stop exist only in domain 0; every fabric cube also
/// gets an inert [`Msg::AdapterResetWindow`] at warmup.
pub(super) fn schedule_initial(parts: &mut DomainParts, kind: RunKind, n: usize) {
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
