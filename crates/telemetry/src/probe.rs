//! The probe handle simulator components carry.

use crate::hub::SharedHub;
use crate::trace::Stage;
use core::fmt;
use hmc_des::Time;

/// A cheap, cloneable telemetry handle. Components hold one and call the
/// typed event methods unconditionally; a detached probe ([`Probe::off`],
/// the default) reduces every call to a single `None` branch.
///
/// Event methods take raw ids (`u8` cube, `u16` port/tag) so the link
/// serializers in `hmc-link` can mark traced packets without depending
/// on packet or topology types.
#[derive(Clone, Default)]
pub struct Probe {
    hub: Option<SharedHub>,
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Probe({})", if self.is_on() { "on" } else { "off" })
    }
}

impl Probe {
    /// A detached probe: every event call is a no-op.
    pub fn off() -> Probe {
        Probe::default()
    }

    /// A probe feeding `hub`.
    pub fn attached(hub: &SharedHub) -> Probe {
        Probe {
            hub: Some(hub.clone()),
        }
    }

    /// Whether events reach a hub whose packet tracer is sampling
    /// (`Hub::tracing`); `false` when detached. A
    /// fabric simulation reads this to keep traced runs on one engine
    /// domain, the only schedule that preserves issue order.
    pub fn tracing(&self) -> bool {
        self.hub.as_ref().is_some_and(|h| h.borrow().tracing())
    }

    /// Whether events reach a hub.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.hub.is_some()
    }

    #[inline]
    fn with(&self, f: impl FnOnce(&mut crate::Hub)) {
        if let Some(hub) = &self.hub {
            f(&mut hub.borrow_mut());
        }
    }

    /// A request completed its round trip: measured `latency_ps`,
    /// `bytes` moved on the links.
    #[inline]
    pub fn completion(&self, latency_ps: u64, bytes: u64, now: Time) {
        self.with(|h| h.on_completion(latency_ps, bytes, now));
    }

    /// Restart the measurement window (end of warmup): clears the
    /// timeline and the sketch, re-anchors epoch 0 at `now`.
    #[inline]
    pub fn reset_window(&self, now: Time) {
        self.with(|h| h.reset_window(now));
    }

    /// A port issued `(port, tag)` toward `cube` — the tracer decides
    /// whether this request is sampled.
    #[inline]
    pub fn trace_issue(&self, port: u16, tag: u16, cube: u8, now: Time) {
        self.with(|h| h.on_trace_issue(port, tag, cube, now));
    }

    /// A sampled request reached `stage`.
    #[inline]
    pub fn trace_mark(&self, port: u16, tag: u16, stage: Stage, now: Time) {
        self.with(|h| h.on_trace_mark(port, tag, stage, now));
    }

    /// A sampled request's response arrived back at its port.
    #[inline]
    pub fn trace_complete(&self, port: u16, tag: u16, now: Time) {
        self.with(|h| h.on_trace_complete(port, tag, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hub, HubConfig};

    #[test]
    fn detached_probe_is_inert() {
        let p = Probe::off();
        assert!(!p.is_on());
        p.completion(100, 160, Time::ZERO);
        p.reset_window(Time::ZERO);
    }

    #[test]
    fn attached_probe_feeds_the_hub() {
        let hub = Hub::shared(HubConfig::default());
        let p = Probe::attached(&hub);
        let q = p.clone(); // clones share the hub
        p.completion(1_000, 160, Time::from_ns(1));
        q.completion(3_000, 160, Time::from_ns(2));
        assert!(p.is_on());
        assert_eq!(hub.borrow().aggregate_sketch().count(), 2);
    }

    #[test]
    fn tracing_reads_the_attached_hub() {
        assert!(!Probe::off().tracing());
        let untraced = Hub::shared(HubConfig::default());
        assert!(!Probe::attached(&untraced).tracing());
        let traced = Hub::shared(HubConfig {
            trace_sample: Some(8),
            ..HubConfig::default()
        });
        assert!(Probe::attached(&traced).tracing());
    }
}
