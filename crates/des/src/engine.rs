//! The event engine: a deterministic, single-threaded discrete-event loop
//! over a two-level scheduler (near-horizon timer wheel + far heap), with
//! engine-owned component timers.

use std::fmt;
use std::ops::AddAssign;

use crate::inline;
use crate::time::{Delay, Time};
use crate::wheel::{Entry, EventQueue};

/// The high bit that marks an explicitly *keyed* event sequence number
/// (see [`Ctx::send_keyed_at`]).
///
/// Ordinary pushes draw their tie-break sequence from a monotone per-engine
/// counter starting at zero, so every ordinary sequence number is far below
/// `2^63` in any realistic run. Keyed events carry a caller-chosen sequence
/// with this bit set, which gives two guarantees at equal timestamps:
/// keyed events sort **after** every ordinary event, and keyed events sort
/// among themselves in **key order** — independent of push order and of
/// which engine they were pushed into. That push-order independence is what
/// lets a partitioned (multi-engine) simulation inject cross-partition
/// events at synchronization barriers and still dispatch in exactly the
/// order the single-engine run would have used.
pub const KEYED_EVENT_BIT: u64 = 1 << 63;

/// Identifies a component registered with an [`Engine`].
///
/// Ids are dense indices assigned in registration order, which makes wiring
/// tables (`Vec<ComponentId>`) cheap and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// The dense index of this component.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// One component timer (see [`Ctx::set_wake`]): the deadline it is
/// armed at, if any, and the generation of its newest queue entry. Moving
/// or disarming an armed timer bumps the generation, which turns the entry
/// already queued into a stale one that is reaped silently.
#[derive(Debug, Clone, Copy, Default)]
struct Timer {
    at: Option<Time>,
    generation: u32,
}

/// A simulated hardware block that reacts to timestamped messages.
///
/// Handlers receive a [`Ctx`] through which they may schedule further
/// messages (to themselves or to other components) at the current time or
/// later, and arm, move or disarm their own timers ([`Ctx::set_wake`]).
/// Handlers must not block and must not assume any ordering between
/// messages carrying the same timestamp other than the engine's FIFO
/// guarantee (messages scheduled earlier are delivered earlier).
pub trait Component<M>: AsAnyComponent {
    /// Reacts to `msg`, delivered at time `ctx.now()`.
    fn on_message(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Reacts to the fire of this component's timer `timer`, armed
    /// earlier via [`Ctx::set_wake`]. The timer is disarmed when it fires.
    ///
    /// The default implementation ignores the wakeup; components that arm
    /// timers override it.
    fn on_wake(&mut self, timer: usize, ctx: &mut Ctx<'_, M>) {
        let _ = (timer, ctx);
    }

    /// A short human-readable name used in panics and debug output.
    fn name(&self) -> &str {
        "component"
    }
}

/// What a scheduled event delivers.
enum EventKind<M> {
    /// An ordinary message for [`Component::on_message`].
    Msg(M),
    /// A fire of the target's timer `.0`, live while its generation is
    /// still `.1`.
    Wake(u32, u32),
}

/// One scheduled event: the queue orders by `(time, seq)` so delivery is in
/// timestamp order with FIFO tie-breaking — the source of the engine's
/// determinism.
struct Scheduled<M> {
    target: ComponentId,
    kind: EventKind<M>,
}

/// The part of the engine visible to a handler while it runs: the clock and
/// the event queue. Split from the component storage so a component can be
/// borrowed mutably while it schedules new events.
struct EngineCore<M> {
    time: Time,
    seq: u64,
    queue: EventQueue<Scheduled<M>>,
    dispatched: u64,
    /// Each component's timers, by component index then timer index;
    /// grown on first use.
    timers: Vec<Vec<Timer>>,
    /// Queue entries of moved or disarmed timers, not yet reaped.
    stale_pending: usize,
    wake_fires: u64,
    wake_cancels: u64,
}

impl<M> EngineCore<M> {
    fn push(&mut self, time: Time, target: ComponentId, kind: EventKind<M>) {
        debug_assert!(time >= self.time, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        debug_assert!(seq < KEYED_EVENT_BIT, "ordinary sequence space exhausted");
        self.queue.push(Entry {
            time,
            seq,
            item: Scheduled { target, kind },
        });
    }

    /// Pushes an event whose tie-break sequence is the caller-chosen `key`
    /// (bit 63 set; see [`KEYED_EVENT_BIT`]). Does not consume an ordinary
    /// sequence number, so keyed pushes leave ordinary FIFO order intact.
    fn push_keyed(&mut self, time: Time, target: ComponentId, key: u64, kind: EventKind<M>) {
        debug_assert!(time >= self.time, "cannot schedule into the past");
        debug_assert!(key >= KEYED_EVENT_BIT, "keys carry KEYED_EVENT_BIT");
        self.queue.push(Entry {
            time,
            seq: key,
            item: Scheduled { target, kind },
        });
    }

    #[inline]
    fn set_wake(&mut self, target: ComponentId, timer: usize, at: Option<Time>) {
        let timers = &mut self.timers[target.index()];
        if timers.len() <= timer {
            grow_timers(timers, timer);
        }
        let t = &mut timers[timer];
        if t.at == at {
            return;
        }
        if t.at.is_some() {
            t.generation = t.generation.wrapping_add(1);
            self.stale_pending += 1;
            self.wake_cancels += 1;
        }
        t.at = at;
        let generation = t.generation;
        if let Some(at) = at {
            self.push(at, target, EventKind::Wake(timer as u32, generation));
        }
    }
}

/// Grows a component's timer table to hold `timer`: once per timer
/// index, so kept out of line.
#[cold]
#[inline(never)]
fn grow_timers(timers: &mut Vec<Timer>, timer: usize) {
    timers.resize(timer + 1, Timer::default());
}

/// Handler-side view of the engine: read the clock, schedule messages, arm
/// timers.
pub struct Ctx<'a, M> {
    core: &'a mut EngineCore<M>,
    self_id: ComponentId,
}

impl<'a, M> Ctx<'a, M> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// The id of the component currently handling a message.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `msg` for delivery to `to` after `delay`.
    ///
    /// A `delay` of [`Delay::ZERO`] delivers at the current timestamp, after
    /// every message already queued for this timestamp (FIFO).
    #[inline]
    pub fn send(&mut self, delay: Delay, to: ComponentId, msg: M) {
        let at = self.core.time + delay;
        self.core.push(at, to, EventKind::Msg(msg));
    }

    /// Schedules `msg` for delivery to `to` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past.
    #[inline]
    pub fn send_at(&mut self, at: Time, to: ComponentId, msg: M) {
        self.core.push(at, to, EventKind::Msg(msg));
    }

    /// Schedules `msg` for delivery to `to` at the absolute instant `at`
    /// with an explicit tie-break `key` instead of the engine's FIFO
    /// counter (see [`KEYED_EVENT_BIT`]).
    ///
    /// At equal timestamps a keyed event is delivered after every
    /// FIFO-ordered event and keyed events are delivered in ascending key
    /// order, regardless of push order. Callers own key uniqueness; a
    /// duplicate `(at, key)` pair leaves the relative order of the two
    /// duplicates unspecified.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past or `key` lacks
    /// [`KEYED_EVENT_BIT`].
    #[inline]
    pub fn send_keyed_at(&mut self, at: Time, to: ComponentId, key: u64, msg: M) {
        self.core.push_keyed(at, to, key, EventKind::Msg(msg));
    }

    /// Moves the current component's timer `timer` to `at`: arms it, moves
    /// it, or (with `None`) disarms it, so that afterwards exactly the
    /// requested deadline, or nothing, is pending. When it fires,
    /// [`Component::on_wake`] runs with `timer` and the timer is disarmed.
    ///
    /// Setting the deadline a timer is already armed at is a no-op.
    /// Moving or disarming an armed timer counts one
    /// [`EngineStats::wake_cancels`]; its queue entry is skipped, without
    /// dispatching or advancing the clock, when it surfaces. Arming takes
    /// the next FIFO position, so within one timestamp wakeups obey the
    /// same rule as messages. Timer indices are the component's own, dense
    /// from zero.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past.
    ///
    /// # Examples
    ///
    /// The clocked-component protocol every timing model follows: a
    /// sans-event core reports the next instant it could progress on its
    /// own from `next_wake`, and its wrapper re-arms one timer there after
    /// every stimulus, so an idle core consumes no events.
    ///
    /// ```
    /// use hmc_des::{Component, Ctx, Delay, Engine, Time};
    ///
    /// /// Emits one unit of work every `period`, at most `budget` times.
    /// struct Core {
    ///     period: Delay,
    ///     budget: u32,
    ///     done: u32,
    ///     next_due: Time,
    /// }
    ///
    /// impl Core {
    ///     fn service(&mut self, now: Time) {
    ///         while self.done < self.budget && self.next_due <= now {
    ///             self.done += 1;
    ///             self.next_due = self.next_due + self.period;
    ///         }
    ///     }
    ///
    ///     fn next_wake(&self) -> Option<Time> {
    ///         (self.done < self.budget).then_some(self.next_due)
    ///     }
    ///
    ///     /// Service on every stimulus, then re-arm timer 0.
    ///     fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
    ///         self.service(ctx.now());
    ///         ctx.set_wake(0, self.next_wake());
    ///     }
    /// }
    ///
    /// impl Component<()> for Core {
    ///     fn on_message(&mut self, _msg: (), ctx: &mut Ctx<'_, ()>) {
    ///         self.step(ctx);
    ///     }
    ///
    ///     fn on_wake(&mut self, _timer: usize, ctx: &mut Ctx<'_, ()>) {
    ///         self.step(ctx);
    ///     }
    /// }
    ///
    /// let mut engine = Engine::new();
    /// let id = engine.add_component(Box::new(Core {
    ///     period: Delay::from_ns(10),
    ///     budget: 5,
    ///     done: 0,
    ///     next_due: Time::ZERO,
    /// }));
    /// engine.schedule(Time::ZERO, id, ());
    /// engine.run_until(Time::MAX);
    /// // One kick and 4 timer fires; the idle core consumes nothing more.
    /// assert_eq!(engine.now(), Time::from_ns(40));
    /// assert_eq!(engine.stats().wake_fires, 4);
    /// assert_eq!(engine.component::<Core>(id).unwrap().done, 5);
    /// ```
    #[inline]
    pub fn set_wake(&mut self, timer: usize, at: Option<Time>) {
        let id = self.self_id;
        self.core.set_wake(id, timer, at);
    }
}

/// Counters describing an engine run; useful for benchmarking the kernel and
/// asserting that experiments did real work (or, for the event-driven host
/// refactor, that they *avoided* work: idle-skip wakeups cut `dispatched`
/// by an order of magnitude on low-load sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total events dispatched to components (messages plus timer fires;
    /// moved or disarmed timers' stale entries are not dispatched and not
    /// counted).
    pub dispatched: u64,
    /// Events still queued (e.g. after `run_until` stopped at a horizon),
    /// excluding stale timer entries.
    pub pending: usize,
    /// Timer wakeups delivered to [`Component::on_wake`].
    pub wake_fires: u64,
    /// Armed timers moved or disarmed before firing.
    pub wake_cancels: u64,
    /// Heap allocations performed by [`crate::InlineVec`] scratch buffers
    /// while this engine's handlers ran (first spill of a buffer, or
    /// regrowth of an already-spilled one). Counted around the dispatch
    /// loop of [`Engine::run_until`], so the count is this engine's own
    /// even when one thread interleaves several engines. The
    /// zero-allocation hot-path property the tier-1 suite asserts is that
    /// this stays *bounded* as a run grows: a reused scratch buffer
    /// allocates at most a handful of times while it grows to the
    /// workload's peak burst, and never again in steady state.
    pub scratch_spills: u64,
}

/// Field-wise sums: the counters of several engines (a partitioned run's
/// domains, or an experiment's runs) add up to their total.
impl AddAssign for EngineStats {
    fn add_assign(&mut self, other: EngineStats) {
        self.dispatched += other.dispatched;
        self.pending += other.pending;
        self.wake_fires += other.wake_fires;
        self.wake_cancels += other.wake_cancels;
        self.scratch_spills += other.scratch_spills;
    }
}

/// A deterministic discrete-event engine over message type `M`.
///
/// Events live in a two-level scheduler: a bucketed timer wheel absorbs the
/// dense near-horizon traffic in O(1) per push, and a binary heap holds
/// the sparse far tail. The bucket the clock occupies is the *active
/// bucket*: sorted once as the clock enters it, then popped from its end
/// (see the [`crate::wheel`] module docs).
/// Delivery order is exactly `(timestamp, insertion order)`, identical to a
/// single global heap.
///
/// # Examples
///
/// ```
/// use hmc_des::{Component, Ctx, Delay, Engine, Time};
///
/// struct Echo {
///     seen: u32,
/// }
///
/// impl Component<u32> for Echo {
///     fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
///         self.seen += msg;
///         if msg > 0 {
///             ctx.send(Delay::from_ns(1), ctx.self_id(), msg - 1);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let id = engine.add_component(Box::new(Echo { seen: 0 }));
/// engine.schedule(Time::ZERO, id, 3);
/// engine.run_until(Time::MAX);
/// assert_eq!(engine.component::<Echo>(id).unwrap().seen, 3 + 2 + 1);
/// ```
pub struct Engine<M> {
    core: EngineCore<M>,
    components: Vec<Option<Box<dyn Component<M>>>>,
    names: Vec<String>,
    /// [`EngineStats::scratch_spills`]: spills counted inside this
    /// engine's dispatch loops.
    scratch_spills: u64,
    /// Timestamp of the most recently dispatched event ([`Time::ZERO`]
    /// before any dispatch). Unlike [`Engine::now`], never dragged forward
    /// by a finite [`Engine::run_until`] horizon.
    last_dispatched: Time,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine with the clock at [`Time::ZERO`].
    pub fn new() -> Engine<M> {
        Engine::with_capacity(0)
    }

    /// Creates an empty engine pre-sized for `components` registrations,
    /// so the registry never regrows during wiring. Simulations that know
    /// their component count up front (a fabric knows its cube count)
    /// should prefer this over [`Engine::new`].
    pub fn with_capacity(components: usize) -> Engine<M> {
        Engine {
            core: EngineCore {
                time: Time::ZERO,
                seq: 0,
                queue: EventQueue::new(),
                dispatched: 0,
                timers: Vec::with_capacity(components),
                stale_pending: 0,
                wake_fires: 0,
                wake_cancels: 0,
            },
            components: Vec::with_capacity(components),
            names: Vec::with_capacity(components),
            scratch_spills: 0,
            last_dispatched: Time::ZERO,
        }
    }

    /// Registers a component and returns its id.
    pub fn add_component(&mut self, component: Box<dyn Component<M>>) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.names.push(component.name().to_owned());
        self.components.push(Some(component));
        self.core.timers.push(Vec::new());
        id
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// Schedules `msg` for delivery to `to` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is before the current time.
    pub fn schedule(&mut self, at: Time, to: ComponentId, msg: M) {
        self.core.push(at, to, EventKind::Msg(msg));
    }

    /// Schedules `msg` at `at` with an explicit tie-break key (the engine
    /// entry point of [`Ctx::send_keyed_at`]; same ordering contract).
    /// Used to inject cross-partition events at synchronization barriers:
    /// injection order does not matter, the key decides.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is before the current time or `key`
    /// lacks [`KEYED_EVENT_BIT`].
    pub fn schedule_keyed(&mut self, at: Time, to: ComponentId, key: u64, msg: M) {
        self.core.push_keyed(at, to, key, EventKind::Msg(msg));
    }

    /// The timestamp of the earliest queued event, or `None` when the
    /// queue is empty. Stale timer entries are counted (they still
    /// surface, silently), so the reported bound is
    /// conservative: the next *observable* dispatch is at or after it.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.core.queue.peek_time()
    }

    /// The timestamp of the most recently dispatched event, or
    /// [`Time::ZERO`] if nothing was dispatched. Unlike [`Engine::now`],
    /// a finite [`Engine::run_until`] horizon never drags this forward,
    /// so it answers "when did the simulation last do real work" even
    /// under windowed execution.
    #[inline]
    pub fn last_dispatched_at(&self) -> Time {
        self.last_dispatched
    }

    /// Runs until the queue is empty or the next event is strictly after
    /// `horizon`. Returns the number of events dispatched by this call.
    ///
    /// # Clock semantics
    ///
    /// For a finite `horizon` the clock always ends exactly at `horizon`
    /// (even if the queue drained earlier), so repeated `run_until` calls
    /// advance the clock in lockstep with the caller's horizon. As the
    /// single documented exception, `run_until(Time::MAX)` — the
    /// quiescence form — leaves the clock at the **last dispatched
    /// event's timestamp**: advancing to `Time::MAX` would destroy the
    /// run's "when did the simulation finish" reading and make every
    /// subsequent `Time` addition overflow. With an empty queue and
    /// `horizon == Time::MAX` the clock does not move at all. In both
    /// cases [`EngineStats::pending`] reports 0 after the call; moved or
    /// disarmed timers never advance the clock.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        let before = self.core.dispatched;
        let spills_before = inline::spill_allocs();
        while let Some(head_time) = self.core.queue.peek_time() {
            if head_time > horizon {
                break;
            }
            let ev = self.core.queue.pop().expect("peeked event vanished");
            if let EventKind::Wake(timer, generation) = ev.item.kind {
                let t = &mut self.core.timers[ev.item.target.index()][timer as usize];
                if t.generation != generation {
                    // Moved or disarmed before firing: reap silently. The
                    // clock must not advance for an event nobody observes.
                    self.core.stale_pending -= 1;
                    continue;
                }
                debug_assert_eq!(t.at, Some(ev.time), "a live fire is at its deadline");
                t.at = None;
                self.core.wake_fires += 1;
            }
            debug_assert!(ev.time >= self.core.time, "event queue went backwards");
            self.core.time = ev.time;
            self.last_dispatched = ev.time;
            self.core.dispatched += 1;
            let slot = ev.item.target.index();
            let mut component = self.components[slot]
                .take()
                .unwrap_or_else(|| panic!("{} dispatched re-entrantly", self.names[slot]));
            let mut ctx = Ctx {
                core: &mut self.core,
                self_id: ev.item.target,
            };
            match ev.item.kind {
                EventKind::Msg(msg) => component.on_message(msg, &mut ctx),
                EventKind::Wake(timer, _) => component.on_wake(timer as usize, &mut ctx),
            }
            self.components[slot] = Some(component);
        }
        self.scratch_spills += inline::spill_allocs() - spills_before;
        if self.core.time < horizon && horizon != Time::MAX {
            self.core.time = horizon;
        }
        self.core.dispatched - before
    }

    /// Borrows a component by id, downcast to its concrete type.
    ///
    /// Returns `None` if the id is unknown or the type does not match.
    pub fn component<T: 'static>(&self, id: ComponentId) -> Option<&T>
    where
        M: 'static,
    {
        self.components
            .get(id.index())?
            .as_deref()
            .and_then(|c| c.as_any().downcast_ref())
    }

    /// Mutably borrows a component by id, downcast to its concrete type.
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T>
    where
        M: 'static,
    {
        self.components
            .get_mut(id.index())?
            .as_deref_mut()
            .and_then(|c| c.as_any_mut().downcast_mut())
    }

    /// Counters for this engine.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            dispatched: self.core.dispatched,
            pending: self.core.queue.len() - self.core.stale_pending,
            wake_fires: self.core.wake_fires,
            wake_cancels: self.core.wake_cancels,
            scratch_spills: self.scratch_spills,
        }
    }
}

/// Object-safe downcasting support for components.
///
/// Blanket-implemented for every `'static` type, so implementing
/// [`Component`] requires nothing extra; used by [`Engine::component`] /
/// [`Engine::component_mut`] to recover concrete component types (e.g. to
/// read final statistics after a run).
pub trait AsAnyComponent {
    /// `self` as [`std::any::Any`].
    fn as_any(&self) -> &dyn std::any::Any;
    /// `self` as mutable [`std::any::Any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: 'static> AsAnyComponent for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        hits: Vec<(u64, u32)>,
    }

    impl Component<u32> for Counter {
        fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.hits.push((ctx.now().as_ps(), msg));
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        e.schedule(Time::from_ps(30), id, 3);
        e.schedule(Time::from_ps(10), id, 1);
        e.schedule(Time::from_ps(20), id, 2);
        e.run_until(Time::MAX);
        let c = e.component::<Counter>(id).unwrap();
        assert_eq!(c.hits, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        for i in 0..100 {
            e.schedule(Time::from_ps(5), id, i);
        }
        e.run_until(Time::MAX);
        let c = e.component::<Counter>(id).unwrap();
        let payloads: Vec<u32> = c.hits.iter().map(|&(_, m)| m).collect();
        assert_eq!(payloads, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_and_near_events_interleave_in_order() {
        // Mix events across wheel buckets and beyond the wheel horizon
        // (the far heap) — delivery must still be globally time-ordered.
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        e.schedule(Time::from_us(100), id, 4);
        e.schedule(Time::from_ns(1), id, 1);
        e.schedule(Time::from_us(2), id, 3);
        e.schedule(Time::from_ns(500), id, 2);
        e.schedule(Time::from_us(5_000), id, 5);
        e.run_until(Time::MAX);
        let c = e.component::<Counter>(id).unwrap();
        let payloads: Vec<u32> = c.hits.iter().map(|&(_, m)| m).collect();
        assert_eq!(payloads, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        e.schedule(Time::from_ps(10), id, 1);
        e.schedule(Time::from_ps(20), id, 2);
        let n = e.run_until(Time::from_ps(15));
        assert_eq!(n, 1);
        assert_eq!(e.now(), Time::from_ps(15));
        assert_eq!(e.stats().pending, 1);
        e.run_until(Time::MAX);
        assert_eq!(e.component::<Counter>(id).unwrap().hits.len(), 2);
    }

    #[test]
    fn run_until_time_max_leaves_clock_at_last_event() {
        // The documented quiescence invariant: a Time::MAX horizon does
        // not drag the clock to the sentinel.
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        e.schedule(Time::from_ns(7), id, 1);
        let n = e.run_until(Time::MAX);
        assert_eq!(n, 1);
        assert_eq!(e.now(), Time::from_ns(7));
        assert_eq!(e.stats().pending, 0);
    }

    #[test]
    fn run_until_time_max_on_empty_queue_moves_nothing() {
        let mut e: Engine<u32> = Engine::new();
        let _ = e.add_component(Box::new(Counter { hits: vec![] }));
        assert_eq!(e.run_until(Time::MAX), 0);
        assert_eq!(e.now(), Time::ZERO);
        assert_eq!(e.stats().pending, 0);
        // A finite horizon, by contrast, always advances the clock.
        assert_eq!(e.run_until(Time::from_ns(3)), 0);
        assert_eq!(e.now(), Time::from_ns(3));
    }

    #[test]
    fn keyed_events_sort_after_fifo_and_in_key_order() {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        let t = Time::from_ps(50);
        // Keys pushed in descending order, interleaved with FIFO pushes:
        // dispatch must be FIFO events first, then ascending key order.
        e.schedule_keyed(t, id, KEYED_EVENT_BIT | 30, 103);
        e.schedule(t, id, 1);
        e.schedule_keyed(t, id, KEYED_EVENT_BIT | 10, 101);
        e.schedule(t, id, 2);
        e.schedule_keyed(t, id, KEYED_EVENT_BIT | 20, 102);
        e.run_until(Time::MAX);
        let c = e.component::<Counter>(id).unwrap();
        let payloads: Vec<u32> = c.hits.iter().map(|&(_, m)| m).collect();
        assert_eq!(payloads, vec![1, 2, 101, 102, 103]);
    }

    #[test]
    fn keyed_order_is_push_order_independent() {
        // The same (time, key) set pushed in two different orders, split
        // across engine/ctx entry points, dispatches identically.
        let run = |flip: bool| {
            let mut e: Engine<u32> = Engine::new();
            let id = e.add_component(Box::new(Counter { hits: vec![] }));
            let keys = [7u64, 3, 9, 1];
            let order: Vec<u64> = if flip {
                keys.iter().rev().copied().collect()
            } else {
                keys.to_vec()
            };
            for k in order {
                e.schedule_keyed(Time::from_ns(1), id, KEYED_EVENT_BIT | k, k as u32);
            }
            e.run_until(Time::MAX);
            e.component::<Counter>(id).unwrap().hits.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn keyed_pushes_leave_fifo_sequence_untouched() {
        // A keyed push between two ordinary pushes must not perturb their
        // FIFO tie-break (keyed pushes consume no ordinary sequence).
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        e.schedule(Time::from_ps(5), id, 1);
        e.schedule_keyed(Time::from_ps(5), id, KEYED_EVENT_BIT | 1, 99);
        e.schedule(Time::from_ps(5), id, 2);
        e.run_until(Time::MAX);
        let c = e.component::<Counter>(id).unwrap();
        let payloads: Vec<u32> = c.hits.iter().map(|&(_, m)| m).collect();
        assert_eq!(payloads, vec![1, 2, 99]);
    }

    #[test]
    fn next_event_time_reports_the_head() {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        assert_eq!(e.next_event_time(), None);
        e.schedule(Time::from_ns(4), id, 0);
        e.schedule(Time::from_ns(2), id, 0);
        assert_eq!(e.next_event_time(), Some(Time::from_ns(2)));
        e.run_until(Time::from_ns(3));
        assert_eq!(e.next_event_time(), Some(Time::from_ns(4)));
        e.run_until(Time::MAX);
        assert_eq!(e.next_event_time(), None);
    }

    #[test]
    fn last_dispatched_ignores_horizon_drag() {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Counter { hits: vec![] }));
        e.schedule(Time::from_ns(2), id, 0);
        e.run_until(Time::from_ns(10));
        assert_eq!(e.now(), Time::from_ns(10), "finite horizon drags the clock");
        assert_eq!(
            e.last_dispatched_at(),
            Time::from_ns(2),
            "last dispatch is the real work timestamp"
        );
        e.run_until(Time::from_ns(20));
        assert_eq!(
            e.last_dispatched_at(),
            Time::from_ns(2),
            "idle windows change nothing"
        );
    }

    /// Fills a fresh two-slot scratch buffer with `burst` items per
    /// message, spilling on every message once `burst > 2`.
    struct Spiller {
        burst: u32,
    }

    impl Component<u32> for Spiller {
        fn on_message(&mut self, _msg: u32, _ctx: &mut Ctx<'_, u32>) {
            let mut scratch: inline::InlineVec<u32, 2> = inline::InlineVec::new();
            for i in 0..self.burst {
                scratch.push(i);
            }
        }
    }

    fn spiller(burst: u32) -> Engine<u32> {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Spiller { burst }));
        for t in 1..=8 {
            e.schedule(Time::from_ns(t), id, 0);
        }
        e
    }

    #[test]
    fn interleaved_engines_count_only_their_own_spills() {
        let alone = |burst| {
            let mut e = spiller(burst);
            e.run_until(Time::MAX);
            e.stats().scratch_spills
        };
        let (small, large) = (alone(3), alone(9));
        assert!(small > 0 && large > small, "both bursts spill, differently");
        // Two engines on one thread, advanced in alternating windows: each
        // must report exactly what it reports when run alone.
        let (mut a, mut b) = (spiller(3), spiller(9));
        for t in 1..=8 {
            a.run_until(Time::from_ns(t));
            b.run_until(Time::from_ns(t));
        }
        assert_eq!(a.stats().scratch_spills, small);
        assert_eq!(b.stats().scratch_spills, large);
    }

    /// Applies one scripted step of [`Ctx::set_wake`] calls (timer, ns)
    /// per delivery, message or fire, and logs each fire as `(timer, ps)`.
    struct Scripted {
        script: Vec<Vec<(usize, Option<u64>)>>,
        fires: Vec<(usize, u64)>,
    }

    impl Scripted {
        fn step(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.script.is_empty() {
                return;
            }
            for (timer, ns) in self.script.remove(0) {
                ctx.set_wake(timer, ns.map(Time::from_ns));
            }
        }
    }

    impl Component<u32> for Scripted {
        fn on_message(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.step(ctx);
        }
        fn on_wake(&mut self, timer: usize, ctx: &mut Ctx<'_, u32>) {
            self.fires.push((timer, ctx.now().as_ps()));
            self.step(ctx);
        }
    }

    /// An engine running `script` with one message at each of `kicks_ns`.
    fn scripted(script: Vec<Vec<(usize, Option<u64>)>>, kicks_ns: &[u64]) -> Engine<u32> {
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Scripted {
            script,
            fires: Vec::new(),
        }));
        for &t in kicks_ns {
            e.schedule(Time::from_ns(t), id, 0);
        }
        e
    }

    fn fires(e: &Engine<u32>) -> &[(usize, u64)] {
        &e.component::<Scripted>(ComponentId(0)).unwrap().fires
    }

    #[test]
    fn set_wake_fires_at_the_deadline() {
        let mut e = scripted(vec![vec![(0, Some(9))]], &[0]);
        e.run_until(Time::MAX);
        assert_eq!(fires(&e), [(0, 9_000)]);
        assert_eq!(e.stats().wake_fires, 1);
        assert_eq!(e.now(), Time::from_ns(9));
    }

    #[test]
    fn arms_and_fires_once_per_deadline() {
        let script = vec![vec![(0, Some(5))], vec![(0, Some(9))], vec![(0, None)]];
        let mut e = scripted(script, &[0]);
        e.run_until(Time::MAX);
        assert_eq!(fires(&e), [(0, 5_000), (0, 9_000)]);
    }

    #[test]
    fn rearm_to_same_deadline_is_single_fire() {
        // Two messages both targeting 5 ns: one queue entry, one fire.
        let mut e = scripted(vec![vec![(0, Some(5))], vec![(0, Some(5))]], &[0, 1]);
        e.run_until(Time::MAX);
        assert_eq!(fires(&e), [(0, 5_000)]);
        assert_eq!(e.stats().wake_cancels, 0);
        assert_eq!(e.stats().dispatched, 3);
    }

    #[test]
    fn moving_the_deadline_cancels_the_stale_timer() {
        // The second message moves the deadline earlier; the entry at
        // 50 ns goes stale and is never dispatched.
        let mut e = scripted(vec![vec![(0, Some(50))], vec![(0, Some(5))]], &[0, 1]);
        e.run_until(Time::from_ns(2));
        assert_eq!(e.stats().pending, 1, "the stale entry is not pending");
        e.run_until(Time::MAX);
        assert_eq!(fires(&e), [(0, 5_000)]);
        assert_eq!(e.stats().wake_cancels, 1);
        assert_eq!(e.stats().dispatched, 3);
        assert_eq!(e.now(), Time::from_ns(5), "a stale entry moves no clock");
    }

    #[test]
    fn disarm_leaves_nothing_pending() {
        let mut e = scripted(vec![vec![(0, Some(5))], vec![(0, None)]], &[0]);
        e.run_until(Time::MAX);
        assert_eq!(fires(&e), [(0, 5_000)]);
        assert_eq!(e.stats().pending, 0);
    }

    #[test]
    fn cancelled_wake_never_fires_and_moves_no_clock() {
        let mut e = scripted(vec![vec![(0, Some(9))], vec![(0, None)]], &[0, 1]);
        e.run_until(Time::MAX);
        assert!(fires(&e).is_empty());
        assert_eq!(e.stats().wake_fires, 0);
        assert_eq!(e.stats().wake_cancels, 1);
        assert_eq!(e.now(), Time::from_ns(1), "reaped timer left clock alone");
        assert_eq!(e.stats().pending, 0);
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        // Disarming a timer that already fired finds nothing armed.
        let mut e = scripted(vec![vec![(0, Some(1))], vec![], vec![(0, None)]], &[0, 5]);
        e.run_until(Time::MAX);
        assert_eq!(e.stats().wake_fires, 1);
        assert_eq!(e.stats().wake_cancels, 0);
    }

    #[test]
    fn two_timers_move_and_disarm_independently() {
        // The cube pattern: timer 1 moves earlier while timer 0 is
        // disarmed, then timer 1's fire re-arms timer 0.
        let script = vec![
            vec![(0, Some(10)), (1, Some(20))],
            vec![(1, Some(5)), (0, None)],
            vec![(0, Some(8))],
        ];
        let mut e = scripted(script, &[0, 1]);
        e.run_until(Time::MAX);
        assert_eq!(fires(&e), [(1, 5_000), (0, 8_000)]);
        let stats = e.stats();
        assert_eq!(stats.wake_fires, 2);
        assert_eq!(stats.wake_cancels, 2);
        assert_eq!(stats.dispatched, 4);
        assert_eq!(stats.pending, 0);
        assert_eq!(e.now(), Time::from_ns(8), "stale entries at 10 and 20 ns");
    }

    #[test]
    fn wakes_and_messages_share_the_fifo_order() {
        // A wake armed before a same-timestamp message fires first; armed
        // after, it fires second.
        struct Interleave {
            log: Vec<&'static str>,
        }
        impl Component<u32> for Interleave {
            fn on_message(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
                self.log.push("msg");
                if msg == 1 {
                    // Arm a wake for the SAME timestamp as an already-queued
                    // message: the message was pushed first, so it leads.
                    ctx.set_wake(0, Some(ctx.now() + Delay::from_ns(1)));
                }
            }
            fn on_wake(&mut self, _timer: usize, _ctx: &mut Ctx<'_, u32>) {
                self.log.push("wake");
            }
        }
        let mut e: Engine<u32> = Engine::new();
        let id = e.add_component(Box::new(Interleave { log: vec![] }));
        e.schedule(Time::ZERO, id, 1);
        e.schedule(Time::from_ns(1), id, 0);
        e.run_until(Time::MAX);
        assert_eq!(
            e.component::<Interleave>(id).unwrap().log,
            vec!["msg", "msg", "wake"]
        );
    }
}
