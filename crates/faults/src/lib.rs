//! # hmc-faults
//!
//! Deterministic, schedule-independent link-fault injection for the
//! multi-cube fabric.
//!
//! Real HMC links run a CRC + sequence-number + retry-buffer protocol
//! (HMC 2.1 link retry) whose retransmissions eat exactly the NoC
//! bandwidth the reproduced paper characterizes. This crate decides
//! *which* transmissions fail; the link model (`hmc-link`) charges the
//! protocol's wire time for each failure and the fabric (`hmc-fabric`)
//! reroutes around permanently dead links.
//!
//! A [`FaultPlan`] is built in code: [`FaultPlan::new`] with a seed,
//! then [`FaultPlan::with_all_links`] for the wire faults every link
//! suffers, [`FaultPlan::with_dead_edge`] and
//! [`FaultPlan::degrade_after`].
//!
//! ## Determinism
//!
//! Every fault draw is a pure function of `(seed, link key, flit
//! sequence number)` through a splitmix64-style hash. The flit sequence
//! number counts transmission attempts on that one link, and a link's
//! transmission order is fully determined by the simulation itself —
//! never by host thread timing — so the injected error pattern is
//! byte-identical across `--threads` and `--domains` settings.
//!
//! ```
//! use hmc_faults::{FaultPlan, LinkFaultSpec, LinkKey};
//!
//! let plan = FaultPlan::new(7)
//!     .with_all_links(LinkFaultSpec::ber(1e-6))
//!     .degrade_after(100);
//! plan.validate().expect("plan is sane");
//! let mut inj = plan.injector(LinkKey::edge(0, 1)).expect("spec present");
//! let mut other = plan.injector(LinkKey::edge(0, 1)).expect("spec present");
//! // Same link, same attempt stream: identical draws.
//! assert_eq!(inj.corrupt_packet(9), other.corrupt_packet(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hmc_des::Time;

/// splitmix64 finalizer: the one hash behind every fault draw.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifies one fault-injectable serializer in a fabric.
///
/// Keys name links the way an operator would — by the cubes they join —
/// not by internal adapter port indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKey {
    /// The serializer of cube `from` driving the fabric edge toward
    /// cube `to` (one direction of a cube-to-cube link).
    Edge {
        /// Transmitting cube.
        from: u8,
        /// Receiving neighbor.
        to: u8,
    },
    /// Host-facing response serializer `link` on the host-attached cube.
    Host {
        /// External link index.
        link: u8,
    },
}

impl LinkKey {
    /// The `from → to` direction of a cube-to-cube link.
    pub fn edge(from: u8, to: u8) -> LinkKey {
        LinkKey::Edge { from, to }
    }

    /// Host-facing response link `link` on cube 0.
    pub fn host(link: u8) -> LinkKey {
        LinkKey::Host { link }
    }

    /// A stable 64-bit identity mixed into every draw for this link.
    fn salt(self) -> u64 {
        match self {
            LinkKey::Edge { from, to } => 0x1000 | (u64::from(from) << 8) | u64::from(to),
            LinkKey::Host { link } => 0x2000 | u64::from(link),
        }
    }
}

/// The fault model of one link: what can go wrong on its wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkFaultSpec {
    /// Per-flit corruption probability (the link's effective bit error
    /// rate folded to flit granularity). Must be in `[0, 1)`.
    pub ber: f64,
    /// Burst length: when a flit draw fires, this many *further* flits
    /// are corrupted unconditionally (errors on a SerDes lane cluster).
    /// `0` means independent single-flit errors.
    pub burst: u32,
    /// Transient outages: absolute simulation-time windows during which
    /// the wire transmits nothing. A packet cut by a window's opening
    /// edge is dropped and retransmitted once the window closes.
    pub down: Vec<(Time, Time)>,
    /// Permanent lane failure: the link starts (and stays) at half
    /// width, doubling flit serialization time.
    pub half_width: bool,
}

impl LinkFaultSpec {
    /// A spec with only a flit error rate.
    pub fn ber(ber: f64) -> LinkFaultSpec {
        LinkFaultSpec {
            ber,
            ..LinkFaultSpec::default()
        }
    }

    /// `true` if this spec injects nothing at all.
    pub(crate) fn is_noop(&self) -> bool {
        self.ber == 0.0 && self.down.is_empty() && !self.half_width
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.ber) {
            return Err(format!("flit error rate {} outside [0, 1)", self.ber));
        }
        for &(s, e) in &self.down {
            if s >= e {
                return Err(format!("down window {s}..{e} is empty"));
            }
        }
        Ok(())
    }

    /// Down windows sorted by start, for deterministic skipping.
    fn sorted_down(&self) -> Vec<(Time, Time)> {
        let mut d = self.down.clone();
        d.sort_unstable();
        d
    }
}

/// A complete fault scenario for one fabric: the fault spec every link
/// runs under, permanently dead cube-to-cube links, and the degradation
/// policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed; independent of the workload seed so the same error
    /// pattern can be replayed under different traffic.
    pub seed: u64,
    /// The spec applied to every link (`None`: no wire faults).
    all_links: Option<LinkFaultSpec>,
    /// Permanently dead cube-to-cube links, as unordered cube pairs. The
    /// fabric routes around them (ring) or refuses to build (chain/star,
    /// where removal disconnects the fabric).
    pub dead_edges: Vec<(u8, u8)>,
    /// Graceful degradation: after this many CRC errors a link falls to
    /// half width for the rest of the run. `None` disables fallback.
    pub degrade: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Applies `spec` to every link. Each link still draws its own
    /// error stream (the draws mix in its [`LinkKey`]).
    pub fn with_all_links(mut self, spec: LinkFaultSpec) -> FaultPlan {
        self.all_links = Some(spec);
        self
    }

    /// Declares the cube-to-cube link between `a` and `b` permanently
    /// dead (both directions).
    pub fn with_dead_edge(mut self, a: u8, b: u8) -> FaultPlan {
        self.dead_edges.push((a.min(b), a.max(b)));
        self
    }

    /// Sets the half-width fallback threshold (CRC errors per link).
    pub fn degrade_after(mut self, crc_errors: u64) -> FaultPlan {
        self.degrade = Some(crc_errors);
        self
    }

    /// Validates the link spec and the dead-edge list.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(spec) = &self.all_links {
            spec.validate().map_err(|e| format!("all links: {e}"))?;
        }
        for &(a, b) in &self.dead_edges {
            if a == b {
                return Err(format!("dead edge {a}-{b} is a self-loop"));
            }
        }
        if self.degrade == Some(0) {
            return Err("degrade threshold must be positive".to_owned());
        }
        Ok(())
    }

    /// The deterministic injector for `key`, or `None` if the plan
    /// leaves the links fault-free.
    pub fn injector(&self, key: LinkKey) -> Option<LinkFaults> {
        let spec = self.all_links.as_ref()?;
        if spec.is_noop() && self.degrade.is_none() {
            return None;
        }
        Some(LinkFaults::new(self.seed, key, spec.clone()))
    }
}

/// The live injector of one link: owns the link's flit sequence counter
/// and burst state, and answers "does this transmission fail?".
///
/// Draws consume one hash per flit, so a packet's outcome depends only
/// on where its flits fall in the link's transmission stream — not on
/// when the host thread happens to run the link's events.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    /// Per-link salt: seed and link key mixed once.
    salt: u64,
    /// `ber` folded to a 64-bit comparison threshold.
    threshold: u64,
    /// Down windows, sorted by start.
    down: Vec<(Time, Time)>,
    /// Permanent half-width lanes.
    half_width: bool,
    /// Burst length after each hit.
    burst: u32,
    /// Next flit sequence number on this link.
    flit_seq: u64,
    /// Flits still corrupted by the current burst.
    burst_left: u32,
}

impl LinkFaults {
    /// Builds the injector for `key` under `spec`.
    pub fn new(seed: u64, key: LinkKey, spec: LinkFaultSpec) -> LinkFaults {
        LinkFaults {
            salt: mix(seed ^ key.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            // ber in [0,1) scaled onto the full u64 range; draws compare
            // a uniform hash against this threshold.
            threshold: (spec.ber * (u64::MAX as f64)) as u64,
            down: spec.sorted_down(),
            half_width: spec.half_width,
            burst: spec.burst,
            flit_seq: 0,
            burst_left: 0,
        }
    }

    /// Draws corruption for one `flits`-flit transmission attempt.
    /// Consumes exactly one draw per flit (so accounting is exact) and
    /// returns `true` if any flit of the attempt was corrupted — a CRC
    /// failure at the receiver.
    pub fn corrupt_packet(&mut self, flits: u32) -> bool {
        let mut hit = false;
        for _ in 0..flits {
            let seq = self.flit_seq;
            self.flit_seq += 1;
            if self.burst_left > 0 {
                self.burst_left -= 1;
                hit = true;
            } else if self.threshold > 0 && mix(self.salt ^ seq) < self.threshold {
                self.burst_left = self.burst;
                hit = true;
            }
        }
        hit
    }

    /// The first instant at or after `t` when the wire is up.
    pub fn wire_up_at(&self, t: Time) -> Time {
        let mut t = t;
        for &(s, e) in &self.down {
            if s <= t && t < e {
                t = e;
            }
        }
        t
    }

    /// If a down window opens inside the transmission `[start, end)`,
    /// the instant the wire comes back (the packet is lost and must be
    /// retransmitted then). `start` must already be outside any window.
    pub fn down_cut(&self, start: Time, end: Time) -> Option<Time> {
        self.down
            .iter()
            .find(|&&(s, e)| start < s && s < end && e > s)
            .map(|&(_, e)| e)
    }

    /// `true` if the lanes are permanently half-width.
    pub fn half_width(&self) -> bool {
        self.half_width
    }

    /// Flit draws consumed so far (test hook for exact accounting).
    pub fn flit_seq(&self) -> u64 {
        self.flit_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_reproducible_and_link_distinct() {
        let plan = FaultPlan::new(42).with_all_links(LinkFaultSpec::ber(0.3));
        let draw = |key: LinkKey| {
            let mut inj = plan.injector(key).expect("the all-links spec applies");
            (0..64).map(|_| inj.corrupt_packet(9)).collect::<Vec<_>>()
        };
        assert_eq!(draw(LinkKey::edge(0, 1)), draw(LinkKey::edge(0, 1)));
        assert_ne!(
            draw(LinkKey::edge(0, 1)),
            draw(LinkKey::edge(1, 0)),
            "each direction draws its own stream"
        );
        assert_ne!(draw(LinkKey::edge(0, 1)), draw(LinkKey::host(0)));
    }

    #[test]
    fn ber_zero_never_fires_and_injector_elides() {
        let plan = FaultPlan::new(1).with_all_links(LinkFaultSpec::ber(0.0));
        assert!(plan.injector(LinkKey::edge(0, 1)).is_none());
        // With a degrade policy the injector must exist (it carries the
        // link's error counter context) even at ber 0.
        let plan = plan.degrade_after(10);
        let mut inj = plan.injector(LinkKey::edge(0, 1)).expect("policy present");
        assert!((0..1000).all(|_| !inj.corrupt_packet(9)));
    }

    #[test]
    fn error_rate_tracks_threshold() {
        let plan = FaultPlan::new(3).with_all_links(LinkFaultSpec::ber(0.1));
        let mut inj = plan.injector(LinkKey::edge(2, 3)).expect("spec");
        let hits = (0..10_000).filter(|_| inj.corrupt_packet(1)).count();
        // 10% +- generous tolerance over 10k single-flit draws.
        assert!((700..=1_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn bursts_extend_hits() {
        let spec = LinkFaultSpec {
            burst: 64,
            ..LinkFaultSpec::ber(0.05)
        };
        let solo = LinkFaultSpec::ber(0.05);
        let plan_b = FaultPlan::new(9).with_all_links(spec);
        let plan_s = FaultPlan::new(9).with_all_links(solo);
        let count = |plan: &FaultPlan| {
            let mut inj = plan.injector(LinkKey::edge(0, 1)).expect("spec");
            (0..2_000).filter(|_| inj.corrupt_packet(4)).count()
        };
        assert!(
            count(&plan_b) > count(&plan_s),
            "a burst must corrupt more packets than independent errors"
        );
    }

    #[test]
    fn down_windows_skip_and_cut() {
        let spec = LinkFaultSpec {
            down: vec![(Time::from_ns(100), Time::from_ns(200))],
            ..LinkFaultSpec::default()
        };
        let inj = LinkFaults::new(0, LinkKey::edge(0, 1), spec);
        assert_eq!(inj.wire_up_at(Time::from_ns(50)), Time::from_ns(50));
        assert_eq!(inj.wire_up_at(Time::from_ns(100)), Time::from_ns(200));
        assert_eq!(inj.wire_up_at(Time::from_ns(150)), Time::from_ns(200));
        assert_eq!(inj.wire_up_at(Time::from_ns(200)), Time::from_ns(200));
        // A transmission straddling the window's opening edge is cut.
        assert_eq!(
            inj.down_cut(Time::from_ns(50), Time::from_ns(150)),
            Some(Time::from_ns(200))
        );
        assert_eq!(inj.down_cut(Time::from_ns(200), Time::from_ns(300)), None);
        assert_eq!(inj.down_cut(Time::from_ns(20), Time::from_ns(90)), None);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(LinkFaultSpec::ber(1.0).validate().is_err());
        assert!(LinkFaultSpec::ber(-0.1).validate().is_err());
        let empty = LinkFaultSpec {
            down: vec![(Time::from_ns(5), Time::from_ns(5))],
            ..LinkFaultSpec::default()
        };
        assert!(empty.validate().is_err());
        assert!(FaultPlan::new(0).with_dead_edge(2, 2).validate().is_err());
        let mut zero = FaultPlan::new(0);
        zero.degrade = Some(0);
        assert!(zero.validate().is_err());
    }
}
