//! Layer replays: each drives one workspace crate's public API on its own,
//! with the workload's own mix (sizes, read/write ratio, bank set, seed),
//! and reports host nanoseconds per call.
//!
//! A replay runs a fixed number of calls, so its work is the same on every
//! run; the figure is the median of [`REPS`] timed passes, each on fresh
//! state. Set-up (building inputs and structures) is outside the timing.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hmc_sim::des::wheel::{Entry, EventQueue};
use hmc_sim::device::{DeviceOutput, HmcDevice};
use hmc_sim::dram::VaultMemory;
use hmc_sim::host::Port;
use hmc_sim::link::{Deliveries, LinkTx};
use hmc_sim::noc::{Departures, SwitchConfig, SwitchCore, SwitchEntry};
use hmc_sim::packet::{LinkId, RequestPacket, ResponsePacket, Tag};
use hmc_sim::prelude::*;
use hmc_sim::telemetry::SharedHub;
use hmc_sim::workloads::{Completion, Feedback, GlobalGupsSource, SourceStep, TraceOp};

use crate::check;
use crate::util::{median, Rng};
use crate::workloads::{Outcome, Workload};

/// Timed passes per replay.
const REPS: usize = 5;
/// Calls per pass for the cheap per-call replays.
const CALLS: u64 = 400_000;
/// Requests per pass for the device replay (each one a full cube trip).
const DEVICE_CALLS: u64 = 30_000;
/// Ops drawn from the workload's sources as replay input.
const INPUT_OPS: usize = 1 << 15;

/// The workload's mix, drawn once and shared by the replays.
pub struct Mix {
    w: Workload,
    cfg: FabricConfig,
    seed: u64,
    /// Cube-local requests of the workload's memory-side traffic.
    local: Vec<(Address, RequestKind)>,
    /// `(request, response)` flits of the same requests.
    flits: Vec<(u32, u32)>,
    /// Round-trip latency range and mean of the finished run, ps.
    latency_ps: (u64, u64, u64),
    /// Simulated time per completed access in the run, ps.
    gap_ps: u64,
}

/// Pulls ops from a closed-loop source, completing the oldest outstanding
/// op whenever the source blocks or `cap` ops are in flight — the feedback
/// a port would hand back, with zero memory latency.
struct Feed {
    pending: VecDeque<(u64, TraceOp)>,
    done: Vec<Completion>,
    next_index: u64,
    cap: usize,
}

impl Feed {
    fn new(cap: usize) -> Feed {
        Feed {
            pending: VecDeque::with_capacity(cap),
            done: Vec::with_capacity(1),
            next_index: 0,
            cap,
        }
    }

    fn pull(&mut self, src: &mut dyn TrafficSource, now: Time) -> Option<TraceOp> {
        let fb = Feedback {
            completions: &self.done,
            outstanding: self.pending.len() as u16,
        };
        let step = src.next(now, &fb);
        self.done.clear();
        let op = match step {
            SourceStep::Op(op) => {
                self.pending.push_back((self.next_index, op));
                self.next_index += 1;
                Some(op)
            }
            SourceStep::WaitUntil(_) | SourceStep::Blocked | SourceStep::Done => None,
        };
        if op.is_none() || self.pending.len() >= self.cap {
            if let Some((index, op)) = self.pending.pop_front() {
                self.done.push(Completion {
                    index,
                    op,
                    issued_at: now,
                    completed_at: now,
                });
            }
        }
        op
    }
}

impl Mix {
    /// Draws the mix of `w` at `seed`, sized by the finished run `o`.
    pub fn new(w: Workload, seed: u64, o: &Outcome) -> Mix {
        let cfg = w.config(seed);
        let targeting = w.gups_targeting(&cfg);
        let mut src = w.gups_source(&cfg, seed);
        let mut feed = Feed::new(usize::from(GUPS_TAGS));
        let mut local = Vec::with_capacity(INPUT_OPS);
        let mut now = Time::ZERO;
        while local.len() < INPUT_OPS {
            if let Some(op) = feed.pull(&mut *src, now) {
                let (_, addr) = targeting
                    .resolve(op.addr)
                    .expect("workload addresses map into the fabric");
                local.push((addr, op.kind));
            }
            now += cfg.host.fpga_period;
        }
        let flits = local
            .iter()
            .map(|(_, k)| (k.request_flits(), k.response_flits()))
            .collect();
        let lat = o.report.aggregate_latency();
        Mix {
            w,
            seed,
            local,
            flits,
            latency_ps: (
                lat.min_ps().unwrap_or(1_000),
                lat.max_ps().unwrap_or(1_000),
                (lat.mean_ns() * 1e3) as u64,
            ),
            gap_ps: (o.report.sim_end.as_ps() / check::accesses(o).max(1)).max(1),
            cfg,
        }
    }
}

/// Median ns per call over [`REPS`] passes; `pass` returns the calls it
/// made and the time they took.
fn per_call(mut pass: impl FnMut() -> (u64, Duration)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (calls, t) = pass();
            t.as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// `hmc-des`: `EventQueue::push` + `pop` in the hold model, with the run's
/// in-flight count as queue depth and delays up to its mean latency.
pub fn wheel_ns_per_op(m: &Mix) -> f64 {
    let depth = m.w.in_flight().max(16) as u64;
    let span = m.latency_ps.2.max(10_000);
    per_call(|| {
        let mut rng = Rng::new(m.seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        for seq in 0..depth {
            q.push(Entry {
                time: Time::from_ps(rng.below(span)),
                seq,
                item: seq,
            });
        }
        let start = Instant::now();
        for seq in depth..depth + CALLS {
            let e = q.pop().expect("the hold model keeps the queue full");
            black_box(e.item);
            q.push(Entry {
                time: e.time + Delay::from_ps(1 + rng.below(span)),
                seq,
                item: seq,
            });
        }
        (CALLS, start.elapsed())
    })
}

/// `hmc-workloads`: `TrafficSource::next` on the workload's own port
/// source (GUPS generator, global GUPS or the pointer chase).
pub fn next_ns(m: &Mix) -> f64 {
    let period = m.cfg.host.fpga_period;
    per_call(|| {
        let mut src = m.w.primary_source(&m.cfg, m.seed);
        let mut feed = Feed::new(usize::from(m.w.primary_tags()));
        let mut now = Time::ZERO;
        let start = Instant::now();
        for _ in 0..CALLS {
            black_box(feed.pull(&mut *src, now));
            now += period;
        }
        (CALLS, start.elapsed())
    })
}

/// `hmc-mapping`: `FabricAddressMap::split` over global GUPS addresses,
/// on the workload's interleaved map.
pub fn split_ns(m: &Mix) -> f64 {
    let fmap = m.w.fabric_map(&m.cfg);
    let mut src = GlobalGupsSource::new(m.w.gups_op(), 1u64 << Address::BITS, &fmap, m.seed);
    let addrs: Vec<GlobalAddress> = (0..INPUT_OPS)
        .map(|_| match src.next(Time::ZERO, &Feedback::EMPTY) {
            SourceStep::Op(op) => op.addr,
            other => panic!("global GUPS always issues, got {other:?}"),
        })
        .collect();
    per_call(|| {
        let start = Instant::now();
        for a in addrs.iter().cycle().take(CALLS as usize) {
            black_box(fmap.split(black_box(*a)).expect("GUPS window splits"));
        }
        (CALLS, start.elapsed())
    })
}

/// `hmc-host`: `Port::try_issue` + `on_response` pairs on the workload's
/// own port, answering the oldest request when tags run out.
pub fn port_ns_per_issue(m: &Mix) -> f64 {
    let tags = m.w.primary_tags();
    let period = m.cfg.host.fpga_period;
    per_call(|| {
        let mut port = Port::new(PortId(0), m.w.primary_source(&m.cfg, m.seed), tags)
            .with_targeting(m.w.primary_targeting(&m.cfg));
        port.set_active(true);
        let mut in_flight: VecDeque<RequestPacket> = VecDeque::with_capacity(usize::from(tags));
        let mut now = Time::ZERO;
        let mut pairs = 0;
        let start = Instant::now();
        while pairs < CALLS {
            let issued = port.try_issue(now);
            if let Some(pkt) = issued {
                in_flight.push_back(pkt);
            }
            if issued.is_none() || in_flight.len() == usize::from(tags) {
                match in_flight.pop_front() {
                    Some(pkt) => {
                        port.on_response(now, &ResponsePacket::for_request(&pkt));
                        pairs += 1;
                    }
                    None => break,
                }
            }
            now += period;
        }
        (pairs, start.elapsed())
    })
}

/// Request-direction token pool of the first hop.
fn request_tokens(cfg: &FabricConfig) -> u32 {
    if cfg.cube_count == 1 {
        cfg.cube.switch.input_capacity_flits
    } else {
        cfg.hop.input_capacity_flits
    }
}

/// `hmc-link`: `LinkTx::enqueue` / `service_into` / `return_tokens` on a
/// request and a response serializer fed the workload's flit mix; the
/// receiver returns tokens as soon as packets land.
pub fn link_ns_per_packet(m: &Mix) -> f64 {
    let mut req_cfg = m.cfg.host.link;
    req_cfg.input_buffer_flits = request_tokens(&m.cfg);
    let resp_cfg = m.cfg.cube.link;
    per_call(|| {
        let mut req: LinkTx<u32> = LinkTx::new(&req_cfg);
        let mut resp: LinkTx<u32> = LinkTx::new(&resp_cfg);
        let mut out: Deliveries<u32> = Deliveries::new();
        let mut now = Time::ZERO;
        let mut packets = 0u64;
        let mut i = 0usize;
        let start = Instant::now();
        while packets < CALLS {
            for _ in 0..8 {
                let (rq, rs) = m.flits[i % m.flits.len()];
                req.enqueue(i as u32, rq);
                resp.enqueue(i as u32, rs);
                i += 1;
            }
            for tx in [&mut req, &mut resp] {
                loop {
                    out.clear();
                    tx.service_into(now, &mut out);
                    if out.is_empty() {
                        break;
                    }
                    for d in out.iter() {
                        packets += 1;
                        tx.return_tokens(d.flits);
                    }
                }
            }
            now = req.busy_until().max(resp.busy_until());
        }
        (packets, start.elapsed())
    })
}

/// `hmc-noc`: `SwitchCore::try_enqueue` / `service_into` /
/// `return_credits` on the workload's crossbar shape (a cube's quadrant
/// switch, or cube 0's pass-through crossbar on a fabric), random
/// outputs, the workload's flit mix; downstream drains instantly.
pub fn noc_ns_per_grant(m: &Mix) -> f64 {
    let cfg = &m.cfg;
    let scfg = if cfg.cube_count == 1 {
        let g = cfg.cube.map.geometry();
        let ports = 1 + usize::from(g.quadrants - 1) + usize::from(g.vaults_per_quadrant());
        SwitchConfig {
            inputs: ports,
            outputs: ports,
            input_capacity_flits: cfg.cube.switch.input_capacity_flits,
            hop_latency: cfg.cube.switch.hop_latency,
            flit_time: cfg.cube.switch.flit_time,
        }
    } else {
        let ports = cfg.cube.link_count()
            + cfg.topology.neighbors(cfg.cube_count, CubeId::HOST).len()
            + usize::from(cfg.host.link_count);
        SwitchConfig {
            inputs: ports,
            outputs: ports,
            input_capacity_flits: cfg.hop.input_capacity_flits,
            hop_latency: cfg.hop.passthrough_latency,
            flit_time: cfg.hop.flit_time,
        }
    };
    let ports = scfg.inputs;
    let credits = vec![scfg.input_capacity_flits; ports];
    per_call(|| {
        let mut sw: SwitchCore<u32> = SwitchCore::new(scfg, &credits);
        let mut deps: Departures<u32> = Departures::new();
        let mut rng = Rng::new(m.seed);
        let mut now = Time::ZERO;
        let mut grants = 0u64;
        let mut i = 0usize;
        let start = Instant::now();
        while grants < CALLS {
            for input in 0..ports {
                let (rq, rs) = m.flits[i % m.flits.len()];
                let flits = if i.is_multiple_of(2) { rq } else { rs };
                i += 1;
                if sw.can_accept(input, flits) {
                    let entry = SwitchEntry {
                        output: rng.below(ports as u64) as usize,
                        flits,
                        payload: i as u32,
                    };
                    sw.try_enqueue(input, entry).expect("room checked");
                }
            }
            deps.clear();
            sw.service_into(now, &mut deps);
            for d in deps.iter() {
                grants += 1;
                sw.return_credits(d.output, d.flits);
            }
            now = match sw.next_wake(now) {
                Some(t) if t > now => t,
                _ => now + scfg.flit_time,
            };
        }
        (grants, start.elapsed())
    })
}

/// `hmc-device`: `HmcDevice::on_request` / `advance` /
/// `return_response_tokens` under the workload's address filter and op
/// mix, with request tokens honoured and the host draining responses
/// instantly. Up to nine requests enter per FPGA cycle, capped at the
/// run's in-flight count.
pub fn device_ns_per_request(m: &Mix) -> f64 {
    let cfg = &m.cfg;
    let links = cfg.cube.link_count();
    let period = cfg.host.fpga_period;
    per_call(|| {
        let mut dev = HmcDevice::new(cfg.cube.clone());
        let mut tokens = vec![dev.request_tokens_per_link(); links];
        let mut outs: Vec<DeviceOutput> = Vec::with_capacity(64);
        let mut now = Time::ZERO;
        let (mut i, mut outstanding, mut done) = (0usize, 0usize, 0u64);
        let start = Instant::now();
        while done < DEVICE_CALLS {
            for _ in 0..9 {
                let (addr, kind) = m.local[i % m.local.len()];
                let link = i % links;
                let flits = kind.request_flits();
                if outstanding >= m.w.in_flight() || tokens[link] < flits {
                    break;
                }
                tokens[link] -= flits;
                let pkt = RequestPacket {
                    port: PortId(0),
                    tag: Tag(i as u16),
                    cube: CubeId::HOST,
                    addr,
                    kind,
                };
                dev.on_request(now, LinkId(link as u8), pkt);
                i += 1;
                outstanding += 1;
            }
            outs.clear();
            outs.extend(dev.advance(now).iter().copied());
            for o in &outs {
                match *o {
                    DeviceOutput::RequestTokens { link, flits } => tokens[link.index()] += flits,
                    DeviceOutput::Response { link, pkt, .. } => {
                        dev.return_response_tokens(link, pkt.flits());
                        outstanding -= 1;
                        done += 1;
                    }
                }
            }
            let cycle = now + period;
            now = match dev.next_wake() {
                Some(t) if t > now && t < cycle => t,
                _ => cycle,
            };
        }
        (done, start.elapsed())
    })
}

/// `hmc-dram`: `VaultMemory::read` / `write` on the workload's vaults,
/// banks, sizes and read/write mix, arriving at the run's simulated
/// access rate.
pub fn dram_ns_per_access(m: &Mix) -> f64 {
    let map = m.cfg.cube.map;
    let g = *map.geometry();
    let accesses: Vec<(usize, usize, bool, u32)> = m
        .local
        .iter()
        .map(|&(addr, kind)| {
            let loc = map.decode(addr);
            (
                loc.vault.index(),
                loc.bank.index(),
                kind.is_read(),
                kind.access_size().dram_bursts(),
            )
        })
        .collect();
    let gap = Delay::from_ps(m.gap_ps);
    per_call(|| {
        let mut vaults: Vec<VaultMemory> = (0..g.vaults)
            .map(|_| VaultMemory::new(usize::from(g.banks_per_vault), m.cfg.cube.timing))
            .collect();
        let mut now = Time::ZERO;
        let start = Instant::now();
        for &(v, b, read, bursts) in accesses.iter().cycle().take(CALLS as usize) {
            let t = if read {
                vaults[v].read(now, b, bursts)
            } else {
                vaults[v].write(now, b, bursts)
            };
            black_box(t);
            now += gap;
        }
        (CALLS, start.elapsed())
    })
}

/// `hmc-stats`: `LatencySketch::record_ps` over latencies drawn from the
/// run's observed range.
pub fn sketch_ns_per_record(m: &Mix) -> f64 {
    let (lo, hi, _) = m.latency_ps;
    let mut rng = Rng::new(m.seed);
    let samples: Vec<u64> = (0..INPUT_OPS)
        .map(|_| lo + rng.below(hi.saturating_sub(lo) + 1))
        .collect();
    per_call(|| {
        let mut sketch = LatencySketch::new();
        let start = Instant::now();
        for &ps in samples.iter().cycle().take(CALLS as usize) {
            sketch.record_ps(black_box(ps));
        }
        black_box(sketch.count());
        (CALLS, start.elapsed())
    })
}

/// `hmc-telemetry`: one `Hub::aggregate_tail_ps` on a finished run's hub,
/// in milliseconds.
pub fn tail_ms(hub: &SharedHub) -> f64 {
    const CALLS_PER_PASS: u64 = 200;
    per_call(|| {
        let h = hub.borrow();
        let start = Instant::now();
        for _ in 0..CALLS_PER_PASS {
            black_box(h.aggregate_tail_ps());
        }
        (CALLS_PER_PASS, start.elapsed())
    }) / 1e6
}
