//! Packet-lifecycle tracing: sampled per-request milestone capture and
//! Chrome `trace_event` JSON emission.

use hmc_des::Time;
use hmc_stats::{json_escape, json_f64};
use std::collections::BTreeMap;

/// A component a packet crosses on its round trip. Each stage is one
/// track (`tid`) in the exported Chrome trace; a packet's slice on a
/// track spans from the moment it reached that component to the moment
/// it reached the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Issued by a host port (tag allocated).
    Issue,
    /// Departed the host-side link serializer.
    HostLink,
    /// Entered the device's request switch.
    DeviceIngress,
    /// DRAM service started in the target vault.
    VaultService,
    /// Response packet formed and queued toward the response switch.
    ResponseReady,
    /// Response departed the device-side link serializer.
    ResponseLink,
    /// Crossed an inter-cube adapter (multi-cube fabrics only).
    Transit,
    /// A link transmission failed CRC and was retransmitted from the
    /// retry buffer (fault injection only).
    Retry,
}

impl Stage {
    /// All stages in track order.
    pub const ALL: [Stage; 8] = [
        Stage::Issue,
        Stage::HostLink,
        Stage::DeviceIngress,
        Stage::VaultService,
        Stage::ResponseReady,
        Stage::ResponseLink,
        Stage::Transit,
        Stage::Retry,
    ];

    /// Human-readable track name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Stage::Issue => "port issue",
            Stage::HostLink => "host link",
            Stage::DeviceIngress => "device ingress",
            Stage::VaultService => "vault service",
            Stage::ResponseReady => "response ready",
            Stage::ResponseLink => "response link",
            Stage::Transit => "inter-cube transit",
            Stage::Retry => "link retry",
        }
    }

    /// The Chrome trace `tid` for this stage's track.
    #[inline]
    pub(crate) fn track(self) -> u32 {
        self as u32
    }
}

/// One emitted slice: a packet's residence in one component.
#[derive(Debug, PartialEq, Eq)]
struct Slice {
    stage: Stage,
    start_ps: u64,
    dur_ps: u64,
    port: u16,
    tag: u16,
    cube: u8,
}

/// An in-flight sampled request: its target cube and the milestones
/// recorded so far.
type LiveSlice = (u8, Vec<(Stage, Time)>);

/// Sampled milestone recorder. Keyed by `(port, tag)` — a tag is unique
/// among a port's in-flight requests and is released exactly when the
/// response completes, so no packet field is needed. The sampling cursor
/// counts issues in the order one hub sees them, so a packet's
/// milestones are only coherent when every component it crosses feeds
/// the same hub in simulated-time order: a traced fabric run therefore
/// stays on one engine domain.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    /// Trace every `sample`-th issued request; `None` disables tracing.
    sample: Option<u64>,
    issue_seq: u64,
    live: BTreeMap<(u16, u16), LiveSlice>,
    slices: Vec<Slice>,
}

impl Tracer {
    pub(crate) fn new(sample: Option<u64>) -> Tracer {
        Tracer {
            sample: sample.map(|n| n.max(1)),
            ..Tracer::default()
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.sample.is_some()
    }

    pub(crate) fn on_issue(&mut self, port: u16, tag: u16, cube: u8, now: Time) {
        let Some(n) = self.sample else { return };
        let seq = self.issue_seq;
        self.issue_seq += 1;
        if !seq.is_multiple_of(n) {
            return;
        }
        self.live
            .insert((port, tag), (cube, vec![(Stage::Issue, now)]));
    }

    pub(crate) fn mark(&mut self, port: u16, tag: u16, stage: Stage, now: Time) {
        if let Some((_, milestones)) = self.live.get_mut(&(port, tag)) {
            milestones.push((stage, now));
        }
    }

    pub(crate) fn complete(&mut self, port: u16, tag: u16, now: Time) {
        let Some((cube, milestones)) = self.live.remove(&(port, tag)) else {
            return;
        };
        for (i, &(stage, at)) in milestones.iter().enumerate() {
            let end = milestones.get(i + 1).map_or(now, |&(_, t)| t);
            self.slices.push(Slice {
                stage,
                start_ps: at.as_ps(),
                dur_ps: end.as_ps().saturating_sub(at.as_ps()),
                port,
                tag,
                cube,
            });
        }
    }

    /// Completed packets traced so far.
    pub(crate) fn traced(&self) -> usize {
        self.slices.len()
    }

    /// Renders all completed slices as a Chrome `trace_event` document
    /// (the JSON Object Format: `{"traceEvents": [...]}`). Timestamps are
    /// microseconds of simulated time. Packets still in flight when the
    /// run ends are omitted.
    pub(crate) fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(Stage::ALL.len() + self.slices.len());
        for stage in Stage::ALL {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                stage.track(),
                json_escape(stage.label())
            ));
        }
        for s in &self.slices {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"p{}t{}\",\"args\":{{\"port\":{},\"tag\":{},\"cube\":{}}}}}",
                s.stage.track(),
                json_f64(s.start_ps as f64 / 1e6, 6),
                json_f64(s.dur_ps as f64 / 1e6, 6),
                s.port,
                s.tag,
                s.port,
                s.tag,
                s.cube
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_every_nth_issue() {
        let mut t = Tracer::new(Some(2));
        for tag in 0..4u16 {
            t.on_issue(0, tag, 0, Time::from_ns(u64::from(tag)));
        }
        // Tags 0 and 2 sampled; 1 and 3 skipped.
        t.complete(0, 0, Time::from_ns(10));
        t.complete(0, 1, Time::from_ns(10));
        t.complete(0, 2, Time::from_ns(10));
        assert_eq!(t.traced(), 2);
    }

    #[test]
    fn slices_span_between_milestones() {
        let mut t = Tracer::new(Some(1));
        t.on_issue(3, 7, 1, Time::from_ns(100));
        t.mark(3, 7, Stage::HostLink, Time::from_ns(150));
        t.mark(3, 7, Stage::VaultService, Time::from_ns(400));
        t.complete(3, 7, Time::from_ns(1000));
        assert_eq!(
            t.slices,
            vec![
                Slice {
                    stage: Stage::Issue,
                    start_ps: 100_000,
                    dur_ps: 50_000,
                    port: 3,
                    tag: 7,
                    cube: 1
                },
                Slice {
                    stage: Stage::HostLink,
                    start_ps: 150_000,
                    dur_ps: 250_000,
                    port: 3,
                    tag: 7,
                    cube: 1
                },
                Slice {
                    stage: Stage::VaultService,
                    start_ps: 400_000,
                    dur_ps: 600_000,
                    port: 3,
                    tag: 7,
                    cube: 1
                },
            ]
        );
    }

    #[test]
    fn marks_on_unsampled_packets_are_ignored() {
        let mut t = Tracer::new(None);
        t.on_issue(0, 0, 0, Time::ZERO);
        t.mark(0, 0, Stage::HostLink, Time::from_ns(1));
        t.complete(0, 0, Time::from_ns(2));
        assert_eq!(t.traced(), 0);
        assert!(!t.enabled());
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Tracer::new(Some(1));
        t.on_issue(0, 0, 0, Time::ZERO);
        t.mark(0, 0, Stage::DeviceIngress, Time::from_ns(5));
        t.complete(0, 0, Time::from_ns(9));
        let json = t.to_chrome_json();
        hmc_stats::validate_json(&json).expect("trace JSON must parse");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"p0t0\""));
    }
}
