//! The HMC link-retry protocol: retry-buffer retention, CRC-failure
//! retransmission timing, and half-width degradation state.
//!
//! Real HMC links stamp every packet with a CRC and a 3-bit SEQ, keep
//! transmitted packets in a retry buffer until the peer's return retry
//! pointer (RRP) acks them, and on a CRC failure run the
//! ErrorAbort/StartRetry (IRTRY) exchange before retransmitting from the
//! buffer. The transmit model folds all of that into its eager wire
//! schedule: the deterministic injector (`hmc-faults`) tells the
//! transmitter which attempts fail, each failed attempt occupies real
//! wire time and is followed by the retry turnaround, and the bounded
//! retry buffer stalls the wire when it is full of unacked packets.
//! Because failures only push the schedule *later*, cross-domain
//! lookahead envelopes are preserved and the delivered packet stream is
//! loss-, duplication- and reorder-free by construction.

use std::collections::VecDeque;

use hmc_des::{Delay, Time};
use hmc_faults::LinkFaults;
use hmc_packet::{LinkSeq, OVERHEAD_FLITS};

use crate::config::LinkConfig;

/// Timing and sizing of the retry protocol on one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryTuning {
    /// Retry-buffer capacity in flits: transmitted-but-unacked packets
    /// the transmitter can retain. A full buffer stalls the wire until
    /// the oldest retained packet's ack arrives.
    pub buffer_flits: u32,
    /// Time from the end of a good transmission until the peer's return
    /// retry pointer frees the retained copy: a SerDes round trip plus
    /// one retry-pointer-return flit.
    pub ack_delay: Delay,
    /// Wire time lost to one CRC failure beyond the wasted transmission:
    /// the ErrorAbort/StartRetry (IRTRY) exchange — a SerDes round trip
    /// plus one IRTRY flit — before retransmission may begin.
    pub turnaround: Delay,
    /// Graceful degradation: after this many CRC errors the lanes fall
    /// to half width (flit serialization time doubles) for the rest of
    /// the run. `None` disables the fallback.
    pub degrade_after: Option<u64>,
}

impl RetryTuning {
    /// Derives the protocol timing from a link configuration: the retry
    /// buffer mirrors the receiver's input buffer (every in-flight flit
    /// has a retained copy), and both ack and turnaround ride the link's
    /// own SerDes and flit rate.
    pub fn derive(cfg: &LinkConfig) -> RetryTuning {
        let round_trip = cfg.serdes_latency * 2u32;
        RetryTuning {
            // Never smaller than one max-size packet, or the buffer
            // could not retain what the wire just sent.
            buffer_flits: cfg.input_buffer_flits.max(9),
            // The retry-pointer return and the IRTRY are one-flit flow packets.
            ack_delay: round_trip + cfg.packet_time(OVERHEAD_FLITS),
            turnaround: round_trip + cfg.packet_time(OVERHEAD_FLITS),
            degrade_after: None,
        }
    }

    /// Sets the half-width fallback threshold.
    pub fn with_degrade_after(mut self, crc_errors: Option<u64>) -> RetryTuning {
        self.degrade_after = crc_errors;
        self
    }
}

/// One retained (transmitted but not yet acked) packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retained {
    /// When the return retry pointer frees this slot.
    pub free_at: Time,
    /// Flits retained.
    pub flits: u32,
    /// The SEQ stamped on the transmission (kept for protocol fidelity;
    /// the deterministic model never observes a SEQ gap the transmitter
    /// did not already know about).
    #[allow(dead_code)]
    pub seq: LinkSeq,
}

/// Fault-path state of one transmitter: the injector plus the retry
/// buffer and degradation latch. Boxed inside `LinkTx` so the fault-free
/// path pays one pointer-null test and nothing else.
#[derive(Debug, Clone)]
pub(crate) struct FaultLane {
    /// Which transmissions fail, and when the wire is down.
    pub inj: LinkFaults,
    /// Protocol timing and the degradation policy.
    pub tuning: RetryTuning,
    /// Transmitted packets awaiting their retry-pointer ack, in wire
    /// order (the RRP acks in order, so the front is always the oldest).
    pub retained: VecDeque<Retained>,
    /// Flits currently retained.
    pub retained_flits: u32,
    /// Latched half-width state (permanent lane failure, or the degrade
    /// threshold crossed).
    pub degraded: bool,
    /// SEQ for the next fresh transmission.
    pub next_seq: LinkSeq,
}

impl FaultLane {
    pub(crate) fn new(inj: LinkFaults, tuning: RetryTuning) -> FaultLane {
        let degraded = inj.half_width();
        FaultLane {
            inj,
            tuning,
            retained: VecDeque::new(),
            retained_flits: 0,
            degraded,
            next_seq: LinkSeq::default(),
        }
    }

    /// Serialization time of one attempt at the current lane width.
    #[inline]
    pub(crate) fn attempt_time(&self, cfg: &LinkConfig, flits: u32) -> Delay {
        let t = cfg.packet_time(flits);
        if self.degraded {
            t * 2u32
        } else {
            t
        }
    }

    /// Frees acked slots at `cursor`, and while the buffer cannot also
    /// hold `flits` more, advances `cursor` to the oldest outstanding
    /// ack. Returns the (possibly stalled) cursor.
    pub(crate) fn admit(&mut self, mut cursor: Time, flits: u32) -> Time {
        while let Some(head) = self.retained.front().copied() {
            if head.free_at > cursor {
                if self.retained_flits + flits <= self.tuning.buffer_flits {
                    break;
                }
                // Retry buffer full: the wire stalls for the ack.
                cursor = head.free_at;
            }
            self.retained.pop_front();
            self.retained_flits -= head.flits;
        }
        cursor
    }

    /// Retains a just-delivered packet until its ack returns.
    pub(crate) fn retain(&mut self, end: Time, flits: u32) {
        self.retained.push_back(Retained {
            free_at: end + self.tuning.ack_delay,
            flits,
            seq: self.next_seq,
        });
        self.retained_flits += flits;
        self.next_seq = self.next_seq.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_derives_from_link_timing() {
        let cfg = LinkConfig::ac510_default();
        let t = RetryTuning::derive(&cfg);
        assert_eq!(t.buffer_flits, cfg.input_buffer_flits.max(9));
        let round_trip = cfg.serdes_latency * 2u32;
        assert_eq!(t.ack_delay, round_trip + cfg.packet_time(1));
        assert_eq!(t.turnaround, round_trip + cfg.packet_time(1));
        assert_eq!(t.degrade_after, None);
        assert_eq!(t.with_degrade_after(Some(5)).degrade_after, Some(5));
    }

    #[test]
    fn admit_stalls_only_when_full() {
        use hmc_faults::{LinkFaultSpec, LinkKey};
        let tuning = RetryTuning {
            buffer_flits: 10,
            ack_delay: Delay::from_ns(100),
            turnaround: Delay::from_ns(50),
            degrade_after: None,
        };
        let inj = LinkFaults::new(0, LinkKey::edge(0, 1), LinkFaultSpec::ber(0.0));
        let mut lane = FaultLane::new(inj, tuning);
        // Two 4-flit packets retained; a 2-flit packet still fits.
        lane.retain(Time::from_ns(10), 4);
        lane.retain(Time::from_ns(20), 4);
        assert_eq!(lane.admit(Time::from_ns(30), 2), Time::from_ns(30));
        assert_eq!(lane.retained_flits, 8);
        // A 9-flit packet does not fit beside either slot (4+9 > 10):
        // the wire stalls through both acks (the later lands at 20+100).
        let mut lane2 = lane.clone();
        assert_eq!(lane2.admit(Time::from_ns(30), 9), Time::from_ns(120));
        assert_eq!(lane2.retained_flits, 0, "both slots freed by their acks");
        // Once acks have passed, slots free without stalling.
        assert_eq!(lane.admit(Time::from_ns(500), 9), Time::from_ns(500));
        assert_eq!(lane.retained_flits, 0);
    }

    #[test]
    fn seq_advances_per_retained_packet() {
        use hmc_faults::{LinkFaultSpec, LinkKey};
        let cfg = LinkConfig::ac510_default();
        let inj = LinkFaults::new(0, LinkKey::host(0), LinkFaultSpec::ber(0.0));
        let mut lane = FaultLane::new(inj, RetryTuning::derive(&cfg));
        for i in 0..20u8 {
            assert_eq!(lane.next_seq, LinkSeq(i % LinkSeq::MODULUS));
            lane.retain(Time::from_ns(u64::from(i)), 1);
        }
    }
}
