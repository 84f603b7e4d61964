//! An input-queued crossbar switch at packet granularity.

use std::collections::VecDeque;

use hmc_des::{Delay, InlineVec, Time};

use crate::arbiter::RoundRobinArbiter;
use crate::credit::Credits;

/// The departure scratch buffer [`SwitchCore::service_into`] fills: eight
/// inline slots cover the common burst; larger bursts spill to the heap
/// once and the caller's reused buffer keeps that capacity.
pub type Departures<P> = InlineVec<Departure<P>, 8>;

/// Static configuration of a [`SwitchCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Capacity of each input FIFO, in flits.
    pub input_capacity_flits: u32,
    /// Pipeline latency from grant to first flit out.
    pub hop_latency: Delay,
    /// Serialization time per flit on each output port.
    pub flit_time: Delay,
}

impl SwitchConfig {
    /// Most inputs, and most outputs, one switch may have: arbitration
    /// keeps each output's contending inputs, and the set of outputs with
    /// any contender, as one `u64` bitmask.
    pub const MAX_PORTS: usize = 64;

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.inputs == 0 || self.outputs == 0 {
            return Err("switch needs at least one input and one output".to_owned());
        }
        if self.inputs > SwitchConfig::MAX_PORTS || self.outputs > SwitchConfig::MAX_PORTS {
            return Err(format!(
                "switch has {} inputs and {} outputs; its arbitration bitmasks \
                 cover at most {} of each",
                self.inputs,
                self.outputs,
                SwitchConfig::MAX_PORTS
            ));
        }
        if self.input_capacity_flits == 0 {
            return Err("input FIFOs need nonzero capacity".to_owned());
        }
        if self.flit_time.is_zero() {
            return Err("flit time must be positive".to_owned());
        }
        Ok(())
    }
}

/// A packet queued at a switch input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEntry<P> {
    /// Target output port.
    pub output: usize,
    /// Packet length in flits (determines serialization time and credits).
    pub flits: u32,
    /// Opaque payload carried through the switch.
    pub payload: P,
}

/// A packet leaving the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure<P> {
    /// The input it arrived on.
    pub input: usize,
    /// The output it left through.
    pub output: usize,
    /// Packet length in flits.
    pub flits: u32,
    /// When the last flit has left the switch (hop latency plus
    /// serialization).
    pub at: Time,
    /// The carried payload.
    pub payload: P,
}

/// Error returned when a switch input FIFO cannot accept a packet; carries
/// the entry back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchFull<P>(pub SwitchEntry<P>);

/// The indices of the set bits of `mask`, lowest first.
#[inline]
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// An input-queued crossbar modelled at packet granularity.
///
/// Each output port has a round-robin arbiter over the input FIFO *heads*
/// (head-of-line blocking is modelled, as in a real input-queued switch), a
/// busy interval covering the packet's serialization, and a credit counter
/// for the downstream buffer, so full downstream queues backpressure
/// through the switch — the queuing chain the paper identifies as the
/// HMC's dominant latency contributor under load (Sections IV-A/IV-B).
///
/// The switch indexes its heads by target output as bitmasks, so service,
/// the starvation sweep and [`SwitchCore::next_wake`] visit only outputs
/// some head is waiting for: their cost scales with the packets queued,
/// not with the port count.
///
/// The core is sans-event: callers invoke [`SwitchCore::service`] when
/// anything changed and schedule a wake-up at [`SwitchCore::next_wake`].
///
/// # Examples
///
/// ```
/// use hmc_des::{Delay, Time};
/// use hmc_noc::{SwitchConfig, SwitchCore, SwitchEntry};
///
/// let cfg = SwitchConfig {
///     inputs: 2,
///     outputs: 2,
///     input_capacity_flits: 16,
///     hop_latency: Delay::from_ns(2),
///     flit_time: Delay::from_ps(800),
/// };
/// let mut sw: SwitchCore<&str> = SwitchCore::new(cfg, &[64, 64]);
/// sw.try_enqueue(0, SwitchEntry { output: 1, flits: 2, payload: "pkt" }).unwrap();
/// let out = sw.service(Time::ZERO);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].at.as_ps(), 2_000 + 2 * 800);
/// ```
#[derive(Debug, Clone)]
pub struct SwitchCore<P> {
    cfg: SwitchConfig,
    inputs: Vec<VecDeque<SwitchEntry<P>>>,
    input_capacities: Vec<u32>,
    input_flits: Vec<u32>,
    peak_input_flits: Vec<u32>,
    output_free: Vec<Time>,
    output_credits: Vec<Credits>,
    arbs: Vec<RoundRobinArbiter>,
    /// `head_inputs[o]` has bit `i` set while input `i`'s head packet
    /// targets output `o`. Updated whenever a head changes: an enqueue
    /// into an empty input, and every grant's pop.
    head_inputs: Vec<u64>,
    /// Bit `o` set while `head_inputs[o]` is non-empty.
    wanted_outputs: u64,
    forwarded: u64,
}

impl<P> SwitchCore<P> {
    /// Creates an idle switch. `downstream_credit_flits[o]` is the size of
    /// the buffer behind output `o`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the credit slice length
    /// does not match the output count.
    pub fn new(cfg: SwitchConfig, downstream_credit_flits: &[u32]) -> SwitchCore<P> {
        let caps = vec![cfg.input_capacity_flits; cfg.inputs];
        SwitchCore::with_input_capacities(cfg, &caps, downstream_credit_flits)
    }

    /// Creates an idle switch with a distinct buffer capacity per input
    /// port (e.g. a deep link-facing buffer and shallow cross-quadrant
    /// buffers). `cfg.input_capacity_flits` is ignored in favour of
    /// `input_capacity_flits[i]`.
    ///
    /// # Panics
    ///
    /// Panics as [`SwitchCore::new`] does, or if the capacity slice length
    /// does not match the input count or contains a zero.
    pub fn with_input_capacities(
        cfg: SwitchConfig,
        input_capacity_flits: &[u32],
        downstream_credit_flits: &[u32],
    ) -> SwitchCore<P> {
        cfg.validate().expect("valid switch config");
        assert_eq!(
            downstream_credit_flits.len(),
            cfg.outputs,
            "one credit pool per output"
        );
        assert_eq!(
            input_capacity_flits.len(),
            cfg.inputs,
            "one capacity per input"
        );
        assert!(
            input_capacity_flits.iter().all(|&c| c > 0),
            "input capacities must be positive"
        );
        SwitchCore {
            cfg,
            // Pre-sized to the worst case the capacity hint allows
            // (1-flit packets), capped so deep buffers don't over-reserve;
            // either way the queue never regrows mid-run in practice.
            inputs: input_capacity_flits
                .iter()
                .map(|&c| VecDeque::with_capacity((c as usize).min(64)))
                .collect(),
            input_capacities: input_capacity_flits.to_vec(),
            input_flits: vec![0; cfg.inputs],
            peak_input_flits: vec![0; cfg.inputs],
            output_free: vec![Time::ZERO; cfg.outputs],
            output_credits: downstream_credit_flits
                .iter()
                .map(|&c| Credits::new(c))
                .collect(),
            arbs: (0..cfg.outputs)
                .map(|_| RoundRobinArbiter::new(cfg.inputs))
                .collect(),
            head_inputs: vec![0; cfg.outputs],
            wanted_outputs: 0,
            forwarded: 0,
        }
    }

    /// `true` if input `i` has room for `flits` more flits.
    pub fn can_accept(&self, input: usize, flits: u32) -> bool {
        self.input_flits[input] + flits <= self.input_capacities[input]
    }

    /// Enqueues a packet at input `input`.
    ///
    /// # Errors
    ///
    /// Returns [`SwitchFull`] carrying the entry if the input FIFO lacks
    /// space.
    ///
    /// # Panics
    ///
    /// Panics if the entry's output port is out of range or its flit count
    /// is zero.
    pub fn try_enqueue(
        &mut self,
        input: usize,
        entry: SwitchEntry<P>,
    ) -> Result<(), SwitchFull<P>> {
        assert!(entry.output < self.cfg.outputs, "output port out of range");
        assert!(entry.flits > 0, "packets have at least one flit");
        if !self.can_accept(input, entry.flits) {
            return Err(SwitchFull(entry));
        }
        self.input_flits[input] += entry.flits;
        self.peak_input_flits[input] = self.peak_input_flits[input].max(self.input_flits[input]);
        let was_empty = self.inputs[input].is_empty();
        self.inputs[input].push_back(entry);
        if was_empty {
            self.expose_head(input);
        }
        Ok(())
    }

    /// Returns `flits` credits for output `o` (the downstream buffer
    /// drained). Returns `true` if a queued head was starving on this
    /// output's credits — the caller should run [`SwitchCore::service`];
    /// on `false` no head was credit-blocked and no service pass is
    /// needed (time-driven progress is covered by
    /// [`SwitchCore::next_wake`]).
    pub fn return_credits(&mut self, output: usize, flits: u32) -> bool {
        self.output_credits[output].put(flits)
    }

    /// Runs arbitration until no further progress is possible at `now`.
    /// Returns every departing packet with its exit timestamp.
    ///
    /// Convenience form of [`SwitchCore::service_into`]; hot paths pass a
    /// reused scratch buffer instead so steady-state service allocates
    /// nothing.
    pub fn service(&mut self, now: Time) -> Departures<P> {
        let mut departures = Departures::new();
        self.service_into(now, &mut departures);
        departures
    }

    /// Runs arbitration until no further progress is possible at `now`,
    /// appending every departing packet (with its exit timestamp) to
    /// `departures` in grant order.
    ///
    /// Each pass visits the wanted outputs in index order. The set is
    /// re-read after every grant: the grant exposes the granted input's
    /// next head, which may want an output later in the same pass.
    pub fn service_into(&mut self, now: Time, departures: &mut Departures<P>) {
        loop {
            let mut progress = false;
            let mut from = 0;
            while from < self.cfg.outputs {
                let later = self.wanted_outputs & (u64::MAX << from);
                if later == 0 {
                    break;
                }
                let o = later.trailing_zeros() as usize;
                from = o + 1;
                if self.output_free[o] > now {
                    continue;
                }
                let credits = &self.output_credits[o];
                let ready = bits(self.head_inputs[o])
                    .filter(|&i| credits.can_take(self.head(i).flits))
                    .fold(0u64, |ready, i| ready | 1 << i);
                let Some(i) = self.arbs[o].grant_mask(ready) else {
                    continue;
                };
                let entry = self.inputs[i].pop_front().expect("granted head exists");
                self.head_inputs[o] &= !(1 << i);
                if self.head_inputs[o] == 0 {
                    self.wanted_outputs &= !(1 << o);
                }
                self.expose_head(i);
                self.input_flits[i] -= entry.flits;
                assert!(
                    self.output_credits[o].try_take(entry.flits),
                    "grant implies credits"
                );
                let busy = self.cfg.flit_time * entry.flits;
                self.output_free[o] = now + busy;
                self.forwarded += 1;
                departures.push(Departure {
                    input: i,
                    output: o,
                    flits: entry.flits,
                    at: now + self.cfg.hop_latency + busy,
                    payload: entry.payload,
                });
                progress = true;
            }
            if !progress {
                break;
            }
        }
        // Record which output pools the surviving heads are starving on,
        // so the corresponding credit returns notify (and returns into
        // outputs nobody waits for don't trigger useless service passes).
        for o in bits(self.wanted_outputs) {
            let credits = &self.output_credits[o];
            if bits(self.head_inputs[o]).any(|i| !credits.can_take(self.head(i).flits)) {
                self.output_credits[o].mark_starved();
            }
        }
    }

    /// The earliest future time at which [`SwitchCore::service`] could make
    /// progress on its own (an output's busy interval expiring while a
    /// matching head waits). Credit-blocked heads are *not* reported: the
    /// credit return itself triggers the service call (see
    /// [`SwitchCore::return_credits`]).
    pub fn next_wake(&self, now: Time) -> Option<Time> {
        bits(self.wanted_outputs)
            .filter(|&o| {
                let credits = &self.output_credits[o];
                self.output_free[o] > now
                    && bits(self.head_inputs[o]).any(|i| credits.can_take(self.head(i).flits))
            })
            .map(|o| self.output_free[o])
            .min()
    }

    /// Peak occupancy of input `i`, in flits.
    pub fn peak_input_flits(&self, input: usize) -> u32 {
        self.peak_input_flits[input]
    }

    /// Total packets forwarded.
    #[inline]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Total grants where more than one input contended for the same
    /// output, summed over outputs — the switch's contention measure.
    pub fn arbitration_conflicts(&self) -> u64 {
        self.arbs.iter().map(|a| a.conflicts()).sum()
    }

    /// The head packet of `input`, which a set bit in the head masks
    /// guarantees exists.
    #[inline]
    fn head(&self, input: usize) -> &SwitchEntry<P> {
        self.inputs[input].front().expect("masked input has a head")
    }

    /// Records input `input`'s current head, if any, in the head masks.
    #[inline]
    fn expose_head(&mut self, input: usize) {
        if let Some(head) = self.inputs[input].front() {
            self.head_inputs[head.output] |= 1 << input;
            self.wanted_outputs |= 1 << head.output;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(inputs: usize, outputs: usize) -> SwitchConfig {
        SwitchConfig {
            inputs,
            outputs,
            input_capacity_flits: 32,
            hop_latency: Delay::from_ns(2),
            flit_time: Delay::from_ps(800),
        }
    }

    fn entry(output: usize, flits: u32, id: u32) -> SwitchEntry<u32> {
        SwitchEntry {
            output,
            flits,
            payload: id,
        }
    }

    #[test]
    fn single_packet_cut_through_timing() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[100]);
        sw.try_enqueue(0, entry(0, 9, 7)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 7);
        assert_eq!(out[0].at.as_ps(), 2_000 + 9 * 800);
        assert_eq!(sw.forwarded(), 1);
        assert!(
            !sw.return_credits(0, 9),
            "no head waits: the return needs no service pass"
        );
    }

    #[test]
    fn output_serializes_contending_inputs() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(2, 1), &[100]);
        sw.try_enqueue(0, entry(0, 2, 0)).unwrap();
        sw.try_enqueue(1, entry(0, 2, 1)).unwrap();
        // At t=0 only one grant can go through (output busy afterwards).
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 1);
        let wake = sw.next_wake(Time::ZERO).expect("second head waits");
        assert_eq!(wake.as_ps(), 2 * 800);
        let out2 = sw.service(wake);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].payload, 1);
        assert_eq!(sw.arbitration_conflicts(), 1);
    }

    #[test]
    fn distinct_outputs_forward_in_parallel() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(2, 2), &[100, 100]);
        sw.try_enqueue(0, entry(0, 3, 0)).unwrap();
        sw.try_enqueue(1, entry(1, 3, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 2, "no conflict, both forwarded at t=0");
        assert_eq!(out[0].at, out[1].at);
    }

    #[test]
    fn credits_backpressure_and_release() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[3]);
        sw.try_enqueue(0, entry(0, 3, 0)).unwrap();
        sw.try_enqueue(0, entry(0, 3, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 1, "second packet has no credits");
        // Even after the output frees, no credits → no wake, no progress.
        let later = Time::from_ns(100);
        assert_eq!(sw.next_wake(Time::ZERO), None);
        assert!(sw.service(later).is_empty());
        // Downstream drains → credits return → the starved head is
        // notified and the packet moves.
        assert!(sw.return_credits(0, 3), "blocked head notifies on return");
        let out = sw.service(later);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 1);
    }

    #[test]
    fn input_fifo_capacity_enforced() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[1000]);
        // Capacity is 32 flits: four 9-flit packets do not fit.
        for i in 0..3 {
            sw.try_enqueue(0, entry(0, 9, i)).unwrap();
        }
        assert!(!sw.can_accept(0, 9));
        let err = sw.try_enqueue(0, entry(0, 9, 3)).unwrap_err();
        assert_eq!(err.0.payload, 3);
        assert_eq!(sw.input_flits[0], 27);
        assert_eq!(sw.peak_input_flits(0), 27);
    }

    #[test]
    fn head_of_line_blocking_is_modelled() {
        // Input 0's head targets busy output 0; a packet for free output 1
        // sits behind it and must wait even though output 1 is idle.
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(2, 2), &[100, 100]);
        sw.try_enqueue(1, entry(0, 4, 9)).unwrap();
        assert_eq!(sw.service(Time::ZERO).len(), 1); // occupy output 0
        sw.try_enqueue(0, entry(0, 4, 0)).unwrap();
        sw.try_enqueue(0, entry(1, 1, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert!(
            out.is_empty(),
            "HOL: packet for output 1 blocked behind head"
        );
    }

    #[test]
    fn service_drains_chains_within_one_call() {
        // Two packets to two different outputs from one input: the second
        // becomes head after the first is granted, and both leave at t=0
        // service (outputs are distinct).
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 2), &[100, 100]);
        sw.try_enqueue(0, entry(0, 1, 0)).unwrap();
        sw.try_enqueue(0, entry(1, 1, 1)).unwrap();
        let out = sw.service(Time::ZERO);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "output port out of range")]
    fn enqueue_validates_output() {
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg(1, 1), &[10]);
        let _ = sw.try_enqueue(0, entry(5, 1, 0));
    }

    #[test]
    fn validate_rejects_ports_past_the_bitmask_bound() {
        assert!(cfg(64, 64).validate().is_ok());
        for (inputs, outputs) in [(65, 8), (8, 65)] {
            let err = cfg(inputs, outputs).validate().unwrap_err();
            assert!(err.contains("bitmask"), "{err}");
            assert!(!err.contains('\n'), "one-line error: {err}");
        }
    }

    /// The scan-based crossbar the bitmask arbitration replaced: every
    /// output's arbiter polls every input head, every pass. Kept as the
    /// oracle for the equivalence property below.
    struct ScanSwitch {
        cfg: SwitchConfig,
        inputs: Vec<VecDeque<SwitchEntry<u32>>>,
        input_flits: Vec<u32>,
        output_free: Vec<Time>,
        output_credits: Vec<Credits>,
        arbs: Vec<RoundRobinArbiter>,
        forwarded: u64,
    }

    impl ScanSwitch {
        fn new(cfg: SwitchConfig, credits: &[u32]) -> ScanSwitch {
            ScanSwitch {
                cfg,
                inputs: (0..cfg.inputs).map(|_| VecDeque::new()).collect(),
                input_flits: vec![0; cfg.inputs],
                output_free: vec![Time::ZERO; cfg.outputs],
                output_credits: credits.iter().map(|&c| Credits::new(c)).collect(),
                arbs: (0..cfg.outputs)
                    .map(|_| RoundRobinArbiter::new(cfg.inputs))
                    .collect(),
                forwarded: 0,
            }
        }

        fn try_enqueue(&mut self, input: usize, entry: SwitchEntry<u32>) -> bool {
            if self.input_flits[input] + entry.flits > self.cfg.input_capacity_flits {
                return false;
            }
            self.input_flits[input] += entry.flits;
            self.inputs[input].push_back(entry);
            true
        }

        fn return_credits(&mut self, output: usize, flits: u32) -> bool {
            self.output_credits[output].put(flits)
        }

        fn service(&mut self, now: Time) -> Vec<Departure<u32>> {
            let mut departures = Vec::new();
            loop {
                let mut progress = false;
                for o in 0..self.cfg.outputs {
                    if self.output_free[o] > now {
                        continue;
                    }
                    let inputs = &self.inputs;
                    let credits = &self.output_credits[o];
                    let grant = self.arbs[o].grant(|i| {
                        inputs[i]
                            .front()
                            .is_some_and(|e| e.output == o && credits.can_take(e.flits))
                    });
                    if let Some(i) = grant {
                        let entry = self.inputs[i].pop_front().expect("granted head exists");
                        self.input_flits[i] -= entry.flits;
                        assert!(self.output_credits[o].try_take(entry.flits));
                        let busy = self.cfg.flit_time * entry.flits;
                        self.output_free[o] = now + busy;
                        self.forwarded += 1;
                        departures.push(Departure {
                            input: i,
                            output: o,
                            flits: entry.flits,
                            at: now + self.cfg.hop_latency + busy,
                            payload: entry.payload,
                        });
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            for input in &self.inputs {
                if let Some(head) = input.front() {
                    if !self.output_credits[head.output].can_take(head.flits) {
                        self.output_credits[head.output].mark_starved();
                    }
                }
            }
            departures
        }

        fn next_wake(&self, now: Time) -> Option<Time> {
            let mut wake: Option<Time> = None;
            for input in &self.inputs {
                if let Some(head) = input.front() {
                    let free = self.output_free[head.output];
                    if free > now && self.output_credits[head.output].can_take(head.flits) {
                        wake = Some(wake.map_or(free, |w| w.min(free)));
                    }
                }
            }
            wake
        }

        fn arbitration_conflicts(&self) -> u64 {
            self.arbs.iter().map(|a| a.conflicts()).sum()
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

    /// Drives the bitmask switch and the scan oracle through one random
    /// interleaving of enqueues, services, credit returns and time steps
    /// on a `ports × ports` shape, asserting after every step that the
    /// two are observably identical.
    fn assert_matches_scan_oracle(ports: usize, seed: u64) {
        let mut rng = seed;
        let shape = SwitchConfig {
            inputs: ports,
            outputs: ports,
            input_capacity_flits: 40,
            hop_latency: Delay::from_ns(2),
            flit_time: Delay::from_ps(800),
        };
        // Shallow downstream pools so heads starve on credits often.
        let credits: Vec<u32> = (0..ports)
            .map(|_| 9 + (xorshift(&mut rng) % 20) as u32)
            .collect();
        let mut sw: SwitchCore<u32> = SwitchCore::new(shape, &credits);
        let mut oracle = ScanSwitch::new(shape, &credits);
        let mut taken = vec![0u32; ports];
        let mut deps: Departures<u32> = Departures::new();
        let mut now = Time::ZERO;
        for id in 0..600u32 {
            match xorshift(&mut rng) % 8 {
                // Enqueue, half the traffic on four hot outputs so
                // several inputs contend for one output.
                0..=2 => {
                    let input = (xorshift(&mut rng) % ports as u64) as usize;
                    let output = if xorshift(&mut rng).is_multiple_of(2) {
                        (xorshift(&mut rng) % ports.min(4) as u64) as usize
                    } else {
                        (xorshift(&mut rng) % ports as u64) as usize
                    };
                    let flits = 1 + (xorshift(&mut rng) % 9) as u32;
                    let e = entry(output, flits, id);
                    assert_eq!(
                        sw.try_enqueue(input, e).is_ok(),
                        oracle.try_enqueue(input, e)
                    );
                }
                3 | 4 => {
                    deps.clear();
                    sw.service_into(now, &mut deps);
                    let got: Vec<Departure<u32>> = deps.iter().copied().collect();
                    let want = oracle.service(now);
                    assert_eq!(got, want, "departures diverged at {now}");
                    for d in &want {
                        taken[d.output] += d.flits;
                    }
                }
                5 => {
                    let output = (xorshift(&mut rng) % ports as u64) as usize;
                    let back = taken[output].min(1 + (xorshift(&mut rng) % 12) as u32);
                    if back > 0 {
                        taken[output] -= back;
                        assert_eq!(
                            sw.return_credits(output, back),
                            oracle.return_credits(output, back),
                            "starvation notification diverged"
                        );
                    }
                }
                // Advance time: to the reported wake, or by a short step.
                _ => {
                    let wake = sw.next_wake(now);
                    assert_eq!(wake, oracle.next_wake(now), "next_wake diverged");
                    now = match wake {
                        Some(t) if xorshift(&mut rng).is_multiple_of(2) => t,
                        _ => now + Delay::from_ps(100 * (xorshift(&mut rng) % 40)),
                    };
                }
            }
            assert_eq!(sw.next_wake(now), oracle.next_wake(now));
            assert_eq!(sw.arbitration_conflicts(), oracle.arbitration_conflicts());
            assert_eq!(sw.forwarded(), oracle.forwarded);
        }
    }

    /// Property: on a quadrant-switch shape (8 ports) and the largest
    /// crossbar shape (64 ports), the bitmask switch grants exactly what
    /// the scan-based switch it replaced granted — same departures in the
    /// same order, same wakes, starvation notifications and counters —
    /// which keeps every simulated output byte-identical.
    #[test]
    fn bitmask_switch_matches_the_scan_switch_it_replaced() {
        let mut seeds = 0x5eed_c0de_1234_5678u64;
        for _ in 0..40 {
            assert_matches_scan_oracle(8, xorshift(&mut seeds));
            assert_matches_scan_oracle(64, xorshift(&mut seeds));
        }
    }
}
