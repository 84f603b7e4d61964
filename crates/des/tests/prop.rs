//! Property tests for the event kernel: ordering, FIFO tie-breaking and
//! determinism under arbitrary schedules — including schedules that
//! straddle the two-level scheduler's wheel/far boundary and timers that
//! race messages.

use hmc_des::{Component, Ctx, Delay, Engine, Time};
use proptest::prelude::*;

/// Records every delivery as `(time_ps, payload)`.
struct Recorder {
    log: Vec<(u64, u32)>,
}

impl Component<u32> for Recorder {
    fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.log.push((ctx.now().as_ps(), msg));
    }
}

/// A component that forwards each message to a peer after a fixed delay,
/// decrementing the payload until it reaches zero.
struct Forwarder {
    peer: Option<hmc_des::ComponentId>,
    delay_ps: u64,
    received: u64,
}

impl Component<u32> for Forwarder {
    fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.received += 1;
        if msg > 0 {
            let to = self.peer.expect("peer wired");
            ctx.send(Delay::from_ps(self.delay_ps), to, msg - 1);
        }
    }
}

fn run_schedule(events: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut e: Engine<u32> = Engine::new();
    let id = e.add_component(Box::new(Recorder { log: Vec::new() }));
    for &(t, payload) in events {
        e.schedule(Time::from_ps(t), id, payload);
    }
    e.run_until(Time::MAX);
    e.component::<Recorder>(id)
        .expect("recorder present")
        .log
        .clone()
}

proptest! {
    /// Deliveries are sorted by timestamp, and equal timestamps preserve
    /// insertion order.
    #[test]
    fn delivery_order_is_time_then_fifo(events in prop::collection::vec((0u64..10_000, 0u32..1000), 0..300)) {
        let log = run_schedule(&events);
        prop_assert_eq!(log.len(), events.len());
        // Expected order: stable sort of the input by timestamp.
        let mut expected = events.clone();
        let mut indexed: Vec<(usize, (u64, u32))> = expected.drain(..).enumerate().collect();
        indexed.sort_by_key(|&(i, (t, _))| (t, i));
        let expected: Vec<(u64, u32)> = indexed.into_iter().map(|(_, ev)| ev).collect();
        prop_assert_eq!(log, expected);
    }

    /// Two engines fed the same schedule produce identical logs.
    #[test]
    fn identical_schedules_are_deterministic(events in prop::collection::vec((0u64..10_000, 0u32..1000), 0..200)) {
        prop_assert_eq!(run_schedule(&events), run_schedule(&events));
    }

    /// A ping chain of `n` hops with per-hop delay `d` quiesces at exactly
    /// `n * d` and delivers `n + 1` messages.
    #[test]
    fn ping_chain_advances_clock_linearly(hops in 0u32..200, delay_ps in 1u64..10_000) {
        let mut e: Engine<u32> = Engine::new();
        let a = e.add_component(Box::new(Forwarder { peer: None, delay_ps, received: 0 }));
        let b = e.add_component(Box::new(Forwarder { peer: None, delay_ps, received: 0 }));
        e.component_mut::<Forwarder>(a).unwrap().peer = Some(b);
        e.component_mut::<Forwarder>(b).unwrap().peer = Some(a);
        e.schedule(Time::ZERO, a, hops);
        let dispatched = e.run_until(Time::MAX);
        prop_assert_eq!(dispatched, u64::from(hops) + 1);
        prop_assert_eq!(e.now().as_ps(), u64::from(hops) * delay_ps);
        let ra = e.component::<Forwarder>(a).unwrap().received;
        let rb = e.component::<Forwarder>(b).unwrap().received;
        prop_assert_eq!(ra + rb, u64::from(hops) + 1);
    }

    /// The two-level scheduler orders events exactly as one global heap
    /// would, even when timestamps span the wheel horizon (~1 µs) so that
    /// events flow through the far heap, migrate into the wheel, and wrap
    /// the ring multiple times.
    #[test]
    fn wheel_and_far_heap_preserve_global_order(
        near in prop::collection::vec((0u64..2_000_000, 0u32..1000), 0..150),
        far in prop::collection::vec((2_000_000u64..50_000_000, 0u32..1000), 0..150),
    ) {
        let mut events = near;
        events.extend(far);
        let log = run_schedule(&events);
        prop_assert_eq!(log.len(), events.len());
        let mut indexed: Vec<(usize, (u64, u32))> = events.into_iter().enumerate().collect();
        indexed.sort_by_key(|&(i, (t, _))| (t, i));
        let expected: Vec<(u64, u32)> = indexed.into_iter().map(|(_, ev)| ev).collect();
        prop_assert_eq!(log, expected);
    }

    /// A component that re-arms a timer after every wake sees exactly the
    /// deadlines it asked for, in order, regardless of message traffic
    /// around them; a deadline moved away never fires.
    #[test]
    fn timers_fire_in_order_and_cancel_cleanly(
        periods in prop::collection::vec(1u64..20_000, 1..40),
        cancel_each in any::<bool>(),
    ) {
        struct Chain {
            periods: Vec<u64>,
            next: usize,
            fired_at: Vec<u64>,
            cancel_each: bool,
        }
        impl Chain {
            fn arm(&mut self, ctx: &mut Ctx<'_, u32>) {
                if let Some(&p) = self.periods.get(self.next) {
                    self.next += 1;
                    if self.cancel_each {
                        // Arm a decoy just before the real deadline, then
                        // move the timer there: the decoy must be invisible.
                        ctx.set_wake(0, Some(ctx.now() + Delay::from_ps(p - 1)));
                    }
                    ctx.set_wake(0, Some(ctx.now() + Delay::from_ps(p)));
                }
            }
        }
        impl Component<u32> for Chain {
            fn on_message(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
                if self.next == 0 {
                    self.arm(ctx);
                }
            }
            fn on_wake(&mut self, timer: usize, ctx: &mut Ctx<'_, u32>) {
                assert_eq!(timer, 0);
                self.fired_at.push(ctx.now().as_ps());
                self.arm(ctx);
            }
        }
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Chain {
            periods: periods.clone(),
            next: 0,
            fired_at: Vec::new(),
            cancel_each,
        }));
        e.schedule(Time::ZERO, id, 0);
        // Message noise that must not perturb the timer chain.
        for i in 0..10u64 {
            e.schedule(Time::from_ps(i * 3_333), id, 0);
        }
        e.run_until(Time::MAX);
        let mut expected = Vec::new();
        let mut t = 0u64;
        for p in &periods {
            t += p;
            expected.push(t);
        }
        let fired = e.component::<Chain>(id).unwrap().fired_at.clone();
        prop_assert_eq!(fired, expected);
        let stats = e.stats();
        prop_assert_eq!(stats.wake_fires, periods.len() as u64);
        prop_assert_eq!(stats.wake_cancels, if cancel_each { periods.len() as u64 } else { 0 });
        prop_assert_eq!(stats.pending, 0);
    }

    /// `run_until` never advances past the horizon and never drops events:
    /// splitting a run at an arbitrary horizon yields the same final log.
    #[test]
    fn run_until_is_prefix_stable(events in prop::collection::vec((0u64..10_000, 0u32..1000), 1..200), split in 0u64..10_000) {
        let whole = run_schedule(&events);

        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Recorder { log: Vec::new() }));
        for &(t, payload) in &events {
            e.schedule(Time::from_ps(t), id, payload);
        }
        e.run_until(Time::from_ps(split));
        prop_assert!(e.now().as_ps() <= split.max(e.now().as_ps()));
        e.run_until(Time::MAX);
        let log = e.component::<Recorder>(id).unwrap().log.clone();
        prop_assert_eq!(log, whole);
    }
}

/// Mirror-model property: an [`hmc_des::InlineVec`] must behave exactly
/// like a `Vec` across interleaved pushes (spilling past the inline
/// capacity), pops, clears, indexed reads, iteration and drains.
mod inline_vec_matches_vec {
    use hmc_des::InlineVec;
    use proptest::prelude::*;

    /// `0..4` = push value, `4` = pop, `5` = clear, `6` = drain.
    fn apply(ops: &[(u8, u32)]) {
        let mut iv: InlineVec<u32, 4> = InlineVec::new();
        let mut model: Vec<u32> = Vec::new();
        for &(op, val) in ops {
            match op {
                0..=3 => {
                    iv.push(val);
                    model.push(val);
                }
                4 => assert_eq!(iv.pop(), model.pop()),
                5 => {
                    iv.clear();
                    model.clear();
                }
                _ => {
                    let drained: Vec<u32> = iv.drain().collect();
                    let expected: Vec<u32> = std::mem::take(&mut model);
                    assert_eq!(drained, expected, "drain yields front-to-back");
                }
            }
            // Full-state equivalence after every operation.
            assert_eq!(iv.len(), model.len());
            assert_eq!(iv.is_empty(), model.is_empty());
            let via_iter: Vec<u32> = iv.iter().copied().collect();
            assert_eq!(via_iter, model, "iteration preserves order");
            for (i, expected) in model.iter().enumerate() {
                assert_eq!(iv.get(i), Some(expected));
                assert_eq!(&iv[i], expected);
            }
            assert_eq!(iv.get(model.len()), None);
        }
        // Post-script: a partially consumed drain drops the rest and
        // leaves the vector reusable.
        iv.clear();
        for v in 0..10u32 {
            iv.push(v);
        }
        {
            let mut d = iv.drain();
            assert_eq!(d.next(), Some(0));
            assert_eq!(d.next(), Some(1));
        }
        assert!(iv.is_empty(), "dropping a drain empties the vector");
        iv.push(7);
        assert_eq!(iv.iter().copied().collect::<Vec<_>>(), vec![7]);
    }

    proptest! {
        #[test]
        fn mirrors_vec(ops in prop::collection::vec((0u8..7, 0u32..1000), 0..200)) {
            apply(&ops);
        }
    }
}

/// The engine's per-component timer slots survive heavy arm/disarm churn
/// across many timer indices, and a disarmed timer never fires.
mod wake_slot_reuse {
    use hmc_des::{Component, Ctx, Engine, Time};
    use proptest::prelude::*;

    /// Arms timer `i` at scripted deadline `i`, then disarms (twice) every
    /// timer not marked kept; records fires.
    struct Churner {
        deadlines: Vec<(u64, bool)>,
        fires: Vec<u64>,
    }

    impl Component<u8> for Churner {
        fn on_message(&mut self, _msg: u8, ctx: &mut Ctx<'_, u8>) {
            for (timer, &(at, _)) in self.deadlines.iter().enumerate() {
                ctx.set_wake(timer, Some(ctx.now() + hmc_des::Delay::from_ps(at)));
            }
            for (timer, &(_, keep)) in self.deadlines.iter().enumerate() {
                if !keep {
                    ctx.set_wake(timer, None);
                    // A second disarm finds nothing armed: no cancel.
                    ctx.set_wake(timer, None);
                }
            }
        }
        fn on_wake(&mut self, timer: usize, ctx: &mut Ctx<'_, u8>) {
            assert!(self.deadlines[timer].1, "only kept timers fire");
            self.fires.push(ctx.now().as_ps());
        }
    }

    proptest! {
        #[test]
        fn cancelled_timers_never_fire(deadlines in prop::collection::vec((1u64..50_000, any::<bool>()), 0..120)) {
            let kept = deadlines.iter().filter(|&&(_, keep)| keep).count() as u64;
            let cancelled = deadlines.len() as u64 - kept;
            let mut e: Engine<u8> = Engine::new();
            let id = e.add_component(Box::new(Churner {
                deadlines: deadlines.clone(),
                fires: Vec::new(),
            }));
            e.schedule(Time::ZERO, id, 0);
            e.run_until(Time::MAX);
            let stats = e.stats();
            prop_assert_eq!(stats.wake_fires, kept);
            prop_assert_eq!(stats.wake_cancels, cancelled);
            prop_assert_eq!(stats.pending, 0);
            let fires = &e.component::<Churner>(id).unwrap().fires;
            prop_assert_eq!(fires.len() as u64, kept);
            prop_assert!(fires.windows(2).all(|w| w[0] <= w[1]), "fires in time order");
        }
    }
}
