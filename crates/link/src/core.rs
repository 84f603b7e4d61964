//! One direction of a serialized link, with token flow control.

use std::collections::VecDeque;

use hmc_des::{Clocked, Delay, InlineVec, Time};
use hmc_faults::LinkFaults;
use hmc_noc::Credits;
use hmc_telemetry::{LinkDir, Probe, Stage};

use crate::config::LinkConfig;
use crate::retry::{FaultLane, RetryTuning};

/// The delivery scratch buffer [`LinkTx::service_into`] fills: four inline
/// slots cover the common drain; longer bursts spill once into the
/// caller's reused buffer.
pub type Deliveries<P> = InlineVec<LinkDelivery<P>, 4>;

/// Payload identity extractor registered with
/// [`LinkTx::set_trace_identity`]: maps a payload to the `(port, tag)`
/// pair stamped on `Retry` lifecycle-trace marks.
pub type TraceIdFn<P> = fn(&P) -> (u16, u16);

/// A packet delivered at the far end of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery<P> {
    /// When the packet has fully arrived at the receiver (serialization
    /// plus SerDes latency).
    pub at: Time,
    /// Packet length in flits.
    pub flits: u32,
    /// The carried payload.
    pub payload: P,
}

/// Counters describing one link direction.
///
/// The retry counters (`crc_errors`, `down_drops`, `retries`,
/// `retransmitted_flits`, `degraded`) stay exactly zero/false unless
/// fault injection is wired in ([`LinkTx::set_faults`]), so fault-free
/// runs report byte-identical stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Packets fully serialized onto the wire (delivered transmissions;
    /// failed attempts count under `retries` instead).
    pub packets_sent: u64,
    /// Flits fully serialized onto the wire (delivered transmissions).
    pub flits_sent: u64,
    /// Service attempts that found a head-of-queue packet but no tokens —
    /// a direct measure of receiver-buffer backpressure.
    pub token_stalls: u64,
    /// Peak occupancy of the sender-side queue, in flits.
    pub peak_queue_flits: u32,
    /// Transmissions the receiver rejected on CRC (injected bit errors).
    pub crc_errors: u64,
    /// Transmissions cut by a link-down window.
    pub down_drops: u64,
    /// Retransmissions from the retry buffer — one per failed attempt,
    /// so always `crc_errors + down_drops`.
    pub retries: u64,
    /// Flits of failed attempts that had to be re-serialized: exact
    /// accounting of every dropped flit.
    pub retransmitted_flits: u64,
    /// Lanes are running at half width (permanent lane failure, or the
    /// degrade threshold was crossed).
    pub degraded: bool,
}

/// The transmit side of one link direction.
///
/// Packets wait in a sender queue, spend receiver tokens (one per flit) and
/// serialize at the effective flit rate; delivery lands after the SerDes
/// latency. Sans-event like [`hmc_noc::SwitchCore`]: call
/// [`LinkTx::service`] on changes, sleep until [`LinkTx::next_wake`].
///
/// # Examples
///
/// ```
/// use hmc_des::Time;
/// use hmc_link::{LinkConfig, LinkTx};
///
/// let cfg = LinkConfig::ac510_default();
/// let mut tx: LinkTx<&str> = LinkTx::new(&cfg);
/// tx.enqueue("read request", 1);
/// let out = tx.service(Time::ZERO);
/// assert_eq!(out.len(), 1);
/// // One-flit packets occupy the per-packet processing floor (10.667 ns),
/// // then fly for 55 ns of SerDes latency.
/// assert_eq!(out[0].at.as_ps(), 10_667 + 55_000);
/// ```
#[derive(Debug, Clone)]
pub struct LinkTx<P> {
    cfg: LinkConfig,
    serdes_latency: Delay,
    /// [`LinkConfig::effective_flit_time`], derived once: it is a float
    /// divide and round that the backlog and wire-room queries would
    /// otherwise repeat on every call.
    flit_time: Delay,
    queue: VecDeque<(u32, P)>,
    queue_flits: u32,
    busy_until: Time,
    tokens: Credits,
    stats: LinkStats,
    probe: Probe,
    /// `(cube, link, direction)` identity stamped on emitted telemetry.
    site: (u8, u8, LinkDir),
    /// Fault-injection + retry-protocol state; `None` (the default) is
    /// the fault-free fast path, bit-identical to a build without the
    /// faults subsystem.
    faults: Option<Box<FaultLane>>,
    /// Extracts the `(port, tag)` identity telemetry traces by, for the
    /// `Retry` lifecycle stage. `None` skips the stage marks.
    trace_id: Option<TraceIdFn<P>>,
}

impl<P> LinkTx<P> {
    /// Creates an idle transmitter for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &LinkConfig) -> LinkTx<P> {
        cfg.validate().expect("valid link config");
        LinkTx {
            cfg: *cfg,
            serdes_latency: cfg.serdes_latency,
            flit_time: cfg.effective_flit_time(),
            queue: VecDeque::new(),
            queue_flits: 0,
            busy_until: Time::ZERO,
            tokens: Credits::new(cfg.input_buffer_flits),
            stats: LinkStats::default(),
            probe: Probe::off(),
            site: (0, 0, LinkDir::Request),
            faults: None,
            trace_id: None,
        }
    }

    /// Arms fault injection and the retry protocol on this direction:
    /// `inj` decides which transmissions fail, `tuning` prices the
    /// retry-buffer retention, ack and turnaround. A permanent lane
    /// failure in the injector starts the link at half width.
    pub fn set_faults(&mut self, inj: LinkFaults, tuning: RetryTuning) {
        let lane = FaultLane::new(inj, tuning);
        self.stats.degraded = lane.degraded;
        self.faults = Some(Box::new(lane));
    }

    /// Registers the payload identity extractor used to stamp `Retry`
    /// lifecycle-trace marks on retransmitted packets.
    pub fn set_trace_identity(&mut self, f: TraceIdFn<P>) {
        self.trace_id = Some(f);
    }

    /// Packets currently retained in the retry buffer (transmitted but
    /// not yet acked by the return retry pointer). Zero without faults.
    pub fn retained_packets(&self) -> usize {
        self.faults.as_ref().map_or(0, |l| l.retained.len())
    }

    /// Attaches a telemetry probe; committed packets emit one
    /// link-flit event stamped `(cube, link, dir)` at their wire-commit
    /// time. Detached by default ([`Probe::off`]), which keeps
    /// [`LinkTx::service_into`] on its allocation-free fast path.
    pub fn set_probe(&mut self, probe: Probe, cube: u8, link: u8, dir: LinkDir) {
        self.probe = probe;
        self.site = (cube, link, dir);
    }

    /// Appends a packet of `flits` flits to the sender queue.
    ///
    /// The sender queue is unbounded here; the caller (host controller or
    /// device egress) applies its own admission policy before enqueueing.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn enqueue(&mut self, payload: P, flits: u32) {
        assert!(flits > 0, "packets have at least one flit");
        self.queue_flits += flits;
        self.stats.peak_queue_flits = self.stats.peak_queue_flits.max(self.queue_flits);
        self.queue.push_back((flits, payload));
    }

    /// Occupancy of the sender queue in flits.
    #[inline]
    pub fn queue_flits(&self) -> u32 {
        self.queue_flits
    }

    /// Total backlog at `now`, in flits: unserialized queue plus the
    /// serialization still outstanding on the wire. This is the load
    /// signal a controller uses to balance traffic across links — the
    /// plain queue empties the instant packets are committed to the wire
    /// schedule, so it under-reports load.
    pub fn backlog_flits(&self, now: Time) -> u32 {
        let wire_ps = self.busy_until.saturating_since(now).as_ps();
        let flit_ps = self.flit_time.as_ps().max(1);
        self.queue_flits + u32::try_from(wire_ps.div_ceil(flit_ps)).unwrap_or(u32::MAX)
    }

    /// Time to serialize one flit including protocol overhead — the
    /// configuration's [`LinkConfig::effective_flit_time`], derived once
    /// at construction.
    #[inline]
    pub fn effective_flit_time(&self) -> Delay {
        self.flit_time
    }

    /// Number of queued packets.
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Tokens currently available (receiver buffer space).
    #[inline]
    pub fn tokens_available(&self) -> u32 {
        self.tokens.available()
    }

    /// Returns tokens to the pool: the receiver drained `flits` flits from
    /// its input buffer. On silicon this rides back in the token-return
    /// fields of reverse-direction packets; the simulator delivers it as a
    /// zero-cost message.
    ///
    /// Returns `true` if a queued head was starving on tokens — the
    /// caller should run [`LinkTx::service`]; on `false` nothing was
    /// blocked and no service pass is needed. (After any service call, a
    /// non-empty queue implies a token-starved head, so this notification
    /// is the *only* wake-up a sleeping transmitter needs.)
    pub fn return_tokens(&mut self, flits: u32) -> bool {
        self.tokens.put(flits)
    }

    /// Serializes as many queued packets as tokens and wire availability
    /// allow at `now`. Returns deliveries stamped with their arrival time
    /// at the far end.
    ///
    /// Convenience form of [`LinkTx::service_into`]; hot paths pass a
    /// reused scratch buffer instead so steady-state service allocates
    /// nothing.
    pub fn service(&mut self, now: Time) -> Deliveries<P> {
        let mut out = Deliveries::new();
        self.service_into(now, &mut out);
        out
    }

    /// Serializes as many queued packets as tokens and wire availability
    /// allow at `now`, appending each delivery (stamped with its arrival
    /// time at the far end) to `out` in wire order.
    ///
    /// With faults armed ([`LinkTx::set_faults`]) each packet may take
    /// several transmission attempts: failed attempts occupy real wire
    /// time plus the retry turnaround, the bounded retry buffer stalls
    /// the wire when full of unacked packets, and down windows park the
    /// wire entirely. Failures only push the schedule *later* than the
    /// fault-free schedule, and tokens are spent once per packet no
    /// matter how many attempts it takes — so the delivered stream is
    /// exactly the fault-free stream, merely delayed.
    pub fn service_into(&mut self, now: Time, out: &mut Deliveries<P>) {
        // The wire is busy until `busy_until`; serialization is strictly
        // serial, so later packets start where earlier ones ended.
        let mut cursor = self.busy_until.max(now);
        while let Some(&(flits, _)) = self.queue.front() {
            if !self.tokens.try_take(flits) {
                self.stats.token_stalls += 1;
                break;
            }
            let (flits, payload) = self.queue.pop_front().expect("front exists");
            self.queue_flits -= flits;
            let end = match self.faults.as_deref_mut() {
                None => cursor + self.cfg.packet_time_from(self.flit_time, flits),
                Some(lane) => {
                    let identity = self.trace_id.map(|f| f(&payload));
                    cursor = lane.admit(cursor, flits);
                    let (cube, link, dir) = self.site;
                    let end = loop {
                        // The wire transmits nothing inside a down window.
                        cursor = lane.inj.wire_up_at(cursor);
                        let end = cursor + lane.attempt_time(&self.cfg, flits);
                        if let Some(resume) = lane.inj.down_cut(cursor, end) {
                            // The window's opening edge cut the packet:
                            // it is lost and retransmitted after the
                            // outage.
                            self.stats.down_drops += 1;
                            self.stats.retries += 1;
                            self.stats.retransmitted_flits += u64::from(flits);
                            self.probe.link_retry(cube, link, dir, flits, resume);
                            cursor = resume;
                            continue;
                        }
                        if lane.inj.corrupt_packet(flits) {
                            // CRC failure at the receiver: ErrorAbort +
                            // StartRetry (IRTRY) exchange, then
                            // retransmission from the retry buffer.
                            self.stats.crc_errors += 1;
                            self.stats.retries += 1;
                            self.stats.retransmitted_flits += u64::from(flits);
                            self.probe.link_retry(cube, link, dir, flits, end);
                            if let Some((port, tag)) = identity {
                                self.probe.trace_mark(port, tag, Stage::Retry, end);
                            }
                            if let Some(threshold) = lane.tuning.degrade_after {
                                if !lane.degraded && self.stats.crc_errors >= threshold {
                                    // Error rate over threshold: drop to
                                    // half width for the rest of the run.
                                    lane.degraded = true;
                                    self.stats.degraded = true;
                                }
                            }
                            cursor = end + lane.tuning.turnaround;
                            continue;
                        }
                        break end;
                    };
                    lane.retain(end, flits);
                    end
                }
            };
            cursor = end;
            self.stats.packets_sent += 1;
            self.stats.flits_sent += u64::from(flits);
            let (cube, link, dir) = self.site;
            self.probe.link_flits(cube, link, dir, flits, end);
            out.push(LinkDelivery {
                at: end + self.serdes_latency,
                flits,
                payload,
            });
        }
        self.busy_until = cursor;
    }

    /// The earliest future time service could progress on its own. Because
    /// [`LinkTx::service`] serializes everything sendable immediately
    /// (charging wire time forward), there is no self-wake; token-blocked
    /// heads wait for the [`LinkTx::return_tokens`] notification. Exposed
    /// for [`Clocked`] protocol symmetry.
    pub fn next_wake(&self, _now: Time) -> Option<Time> {
        None
    }

    /// When the wire finishes its current serialization backlog.
    #[inline]
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Counters for this direction.
    #[inline]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

impl<P> Clocked for LinkTx<P> {
    fn next_wake(&self, now: Time) -> Option<Time> {
        LinkTx::next_wake(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LinkConfig {
        LinkConfig::ac510_default()
    }

    #[test]
    fn serialization_is_serial_and_cumulative() {
        let mut tx: LinkTx<u32> = LinkTx::new(&cfg());
        tx.enqueue(0, 9);
        tx.enqueue(1, 9);
        let out = tx.service(Time::ZERO);
        assert_eq!(out.len(), 2);
        let per_pkt = cfg().effective_flit_time() * 9u32;
        assert_eq!(out[0].at, Time::ZERO + per_pkt + cfg().serdes_latency);
        assert_eq!(
            out[1].at,
            Time::ZERO + per_pkt + per_pkt + cfg().serdes_latency
        );
    }

    #[test]
    fn effective_bandwidth_matches_config() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // A deep token pool so the wire, not flow control, is measured.
        let mut deep = cfg();
        deep.input_buffer_flits = 1024;
        let mut tx: LinkTx<u32> = LinkTx::new(&deep);
        let packets = 1_000u32;
        for i in 0..packets {
            tx.enqueue(i, 9);
        }
        // An ideal receiver: drains each delivery the moment it lands and
        // returns its tokens, re-servicing the link at that instant.
        let mut pending: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        for d in tx.service(Time::ZERO) {
            pending.push(Reverse((d.at, d.flits)));
        }
        let mut last = Time::ZERO;
        while let Some(Reverse((at, flits))) = pending.pop() {
            last = at;
            tx.return_tokens(flits);
            for d in tx.service(at) {
                pending.push(Reverse((d.at, d.flits)));
            }
        }
        assert_eq!(tx.queue_len(), 0);
        let bytes = f64::from(packets) * 9.0 * 16.0;
        let elapsed_ps = (last - Time::ZERO).as_ps() as f64 - cfg().serdes_latency.as_ps() as f64;
        let gbs = bytes * 1e3 / elapsed_ps;
        let expected = cfg().effective_gb_per_s_per_direction();
        assert!(
            (gbs - expected).abs() < 0.2,
            "measured {gbs}, expected {expected}"
        );
    }

    #[test]
    fn tokens_block_and_release() {
        let mut link_cfg = cfg();
        link_cfg.input_buffer_flits = 10;
        let mut tx: LinkTx<u32> = LinkTx::new(&link_cfg);
        tx.enqueue(0, 9);
        tx.enqueue(1, 9);
        let out = tx.service(Time::ZERO);
        assert_eq!(out.len(), 1, "second packet token-starved");
        assert_eq!(tx.tokens_available(), 1);
        assert_eq!(tx.stats().token_stalls, 1);
        assert!(tx.return_tokens(9), "starved head notifies on return");
        let out = tx.service(Time::from_ns(100));
        assert_eq!(out.len(), 1);
        assert_eq!(tx.stats().packets_sent, 2);
    }

    #[test]
    fn busy_wire_pushes_later_sends_out() {
        let mut tx: LinkTx<u32> = LinkTx::new(&cfg());
        tx.enqueue(0, 9);
        tx.service(Time::ZERO);
        let t1 = tx.busy_until();
        // Enqueue a second packet before the wire is free.
        tx.enqueue(1, 1);
        let out = tx.service(Time::ZERO);
        assert_eq!(out[0].at, t1 + cfg().packet_time(1) + cfg().serdes_latency);
    }

    #[test]
    fn stats_track_peaks() {
        let mut tx: LinkTx<u32> = LinkTx::new(&cfg());
        tx.enqueue(0, 9);
        tx.enqueue(1, 2);
        assert_eq!(tx.queue_flits(), 11);
        tx.service(Time::ZERO);
        assert_eq!(tx.stats().peak_queue_flits, 11);
        assert_eq!(tx.stats().flits_sent, 11);
        assert_eq!(tx.queue_flits(), 0);
    }

    #[test]
    fn cached_flit_time_keeps_config_timing() {
        use crate::config::LinkWidth;
        let full = LinkConfig {
            width: LinkWidth::Full,
            ..cfg()
        };
        let half_slow = LinkConfig {
            lane_gbps: 12.5,
            ..cfg()
        };
        let full_slow = LinkConfig {
            lane_gbps: 10.0,
            ..full
        };
        for link_cfg in [cfg(), full, half_slow, full_slow] {
            let mut tx: LinkTx<u32> = LinkTx::new(&link_cfg);
            assert_eq!(tx.effective_flit_time(), link_cfg.effective_flit_time());
            for flits in 1..=9 {
                // Each packet starts on an idle wire, so its delivery is
                // exactly the configuration's packet time plus SerDes.
                let start = tx.busy_until();
                tx.enqueue(flits, flits);
                let out = tx.service(start);
                assert_eq!(
                    out[0].at,
                    start + link_cfg.packet_time(flits) + link_cfg.serdes_latency,
                    "{flits}-flit packet at {} Gbps, {:?}",
                    link_cfg.lane_gbps,
                    link_cfg.width
                );
                tx.return_tokens(flits);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packet_rejected() {
        let mut tx: LinkTx<u32> = LinkTx::new(&cfg());
        tx.enqueue(0, 0);
    }

    mod faults {
        use super::*;
        use hmc_faults::{LinkFaultSpec, LinkKey};

        fn deep_cfg() -> LinkConfig {
            LinkConfig {
                input_buffer_flits: 4096,
                ..cfg()
            }
        }

        /// A transmitter armed with `spec` and a deep token pool.
        fn armed(spec: LinkFaultSpec, degrade: Option<u64>) -> LinkTx<u32> {
            let link_cfg = deep_cfg();
            let mut tx: LinkTx<u32> = LinkTx::new(&link_cfg);
            let inj = LinkFaults::new(11, LinkKey::edge(0, 1), spec);
            tx.set_faults(
                inj,
                RetryTuning::derive(&link_cfg).with_degrade_after(degrade),
            );
            tx
        }

        #[test]
        fn noop_injector_leaves_schedule_and_stats_identical() {
            let mut clean: LinkTx<u32> = LinkTx::new(&deep_cfg());
            let mut faulty = armed(LinkFaultSpec::ber(0.0), None);
            for i in 0..50 {
                clean.enqueue(i, 1 + (i % 9));
                faulty.enqueue(i, 1 + (i % 9));
            }
            let a = clean.service(Time::ZERO);
            let b = faulty.service(Time::ZERO);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x, y, "a never-firing injector must be time-invisible");
            }
            let s = faulty.stats();
            assert_eq!((s.crc_errors, s.retries, s.retransmitted_flits), (0, 0, 0));
            assert_eq!(clean.stats(), faulty.stats());
        }

        #[test]
        fn retries_delay_but_never_drop_duplicate_or_reorder() {
            let mut clean: LinkTx<u32> = LinkTx::new(&deep_cfg());
            let mut faulty = armed(LinkFaultSpec::ber(0.2).with_burst(3), None);
            for i in 0..200 {
                clean.enqueue(i, 1 + (i % 9));
                faulty.enqueue(i, 1 + (i % 9));
            }
            let a = clean.service(Time::ZERO);
            let b = faulty.service(Time::ZERO);
            let ids = |d: &Deliveries<u32>| d.iter().map(|x| x.payload).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b), "delivered stream equals the oracle's");
            let s = faulty.stats();
            assert!(s.crc_errors > 0, "BER 0.2 over ~1000 flits must fire");
            assert_eq!(s.retries, s.crc_errors + s.down_drops);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(y.at >= x.at, "failures only push deliveries later");
            }
            assert_eq!(s.packets_sent, 200, "every packet still delivered once");
        }

        #[test]
        fn each_failed_attempt_costs_wire_time_and_turnaround() {
            // Corrupt exactly the first attempt: with BER ~1 every flit
            // draw fires, so use a one-shot spec via burst accounting
            // instead — a 0-ber injector can't fire, so drive the cost
            // check arithmetically with a high-rate injector.
            let link_cfg = deep_cfg();
            let mut faulty = armed(LinkFaultSpec::ber(0.4), None);
            faulty.enqueue(7, 9);
            let out = faulty.service(Time::ZERO);
            assert_eq!(out.len(), 1);
            let s = faulty.stats();
            let tuning = RetryTuning::derive(&link_cfg);
            let per_attempt = link_cfg.packet_time(9);
            let expected_end = Time::ZERO
                + per_attempt * u32::try_from(s.retries + 1).unwrap()
                + tuning.turnaround * u32::try_from(s.retries).unwrap();
            assert_eq!(
                out[0].at,
                expected_end + link_cfg.serdes_latency,
                "attempts = retries + 1, each failure adds one turnaround"
            );
        }

        #[test]
        fn down_window_parks_the_wire_and_cuts_midflight_packets() {
            let link_cfg = deep_cfg();
            let pkt = link_cfg.packet_time(9);
            // Window opens mid-first-packet and lasts 1 us.
            let open = Time::ZERO + Delay::from_ps(pkt.as_ps() / 2);
            let close = open + Delay::from_us(1);
            let spec = LinkFaultSpec::default().with_down(open, close);
            let mut faulty = armed(spec, None);
            faulty.enqueue(1, 9);
            let out = faulty.service(Time::ZERO);
            assert_eq!(out.len(), 1);
            let s = faulty.stats();
            assert_eq!(s.down_drops, 1, "opening edge cut the transmission");
            assert_eq!(s.retransmitted_flits, 9);
            assert_eq!(out[0].at, close + pkt + link_cfg.serdes_latency);
        }

        #[test]
        fn degrade_threshold_halves_width_permanently() {
            let link_cfg = deep_cfg();
            let mut faulty = armed(LinkFaultSpec::ber(0.05), Some(1));
            for i in 0..300 {
                faulty.enqueue(i, 9);
            }
            let out = faulty.service(Time::ZERO);
            let s = faulty.stats();
            assert!(s.degraded, "threshold 1 must trip under BER 0.05");
            assert_eq!(out.len(), 300);
            // After degradation a first-try success follows its
            // predecessor by exactly the doubled serialization time, and
            // no delivery can follow faster; retried packets add retry
            // time on top. The minimum gap over the tail is therefore
            // the degraded wire time.
            let times: Vec<Time> = out.iter().map(|d| d.at).collect();
            let min_gap = times[200..]
                .windows(2)
                .map(|w| w[1] - w[0])
                .min()
                .expect("tail has pairs");
            assert_eq!(min_gap, link_cfg.packet_time(9) * 2u32);
        }

        #[test]
        fn permanent_lane_failure_starts_at_half_width() {
            let link_cfg = deep_cfg();
            let mut faulty = armed(LinkFaultSpec::default().with_half_width(), None);
            faulty.enqueue(0, 9);
            let out = faulty.service(Time::ZERO);
            assert!(faulty.stats().degraded);
            assert_eq!(
                out[0].at,
                Time::ZERO + link_cfg.packet_time(9) * 2u32 + link_cfg.serdes_latency
            );
        }

        #[test]
        fn full_retry_buffer_stalls_the_wire_for_the_ack() {
            // A retry buffer of exactly one max packet: the second
            // packet must wait for the first packet's ack.
            let link_cfg = deep_cfg();
            let mut tx: LinkTx<u32> = LinkTx::new(&link_cfg);
            let inj = LinkFaults::new(3, LinkKey::edge(0, 1), LinkFaultSpec::ber(0.0));
            let mut tuning = RetryTuning::derive(&link_cfg);
            tuning.buffer_flits = 9;
            tx.set_faults(inj, tuning);
            tx.enqueue(0, 9);
            tx.enqueue(1, 9);
            let out = tx.service(Time::ZERO);
            assert_eq!(out.len(), 2);
            assert_eq!(tx.retained_packets(), 1, "first slot freed by its ack");
            let pkt = link_cfg.packet_time(9);
            let first_end = Time::ZERO + pkt;
            assert_eq!(out[0].at, first_end + link_cfg.serdes_latency);
            assert_eq!(
                out[1].at,
                first_end + tuning.ack_delay + pkt + link_cfg.serdes_latency,
                "second transmission starts at the first packet's ack"
            );
        }
    }
}
