//! The engine's two-level event queue: a bucketed near-horizon timer wheel
//! in front of a binary heap for far-future events.
//!
//! Discrete-event simulations of clocked hardware schedule almost
//! everything a few nanoseconds ahead (the next FPGA cycle, the end of a
//! flit's serialization, a DRAM bank timer), with a thin tail of far-out
//! control events (end of warmup, end of measurement). A single
//! `BinaryHeap` pays `O(log n)` per operation for every one of them. The
//! [`EventQueue`] here keeps the dense near-term traffic in a ring of
//! constant-time buckets and only heap-sorts the sparse far tail:
//!
//! - **active bucket** — events in the bucket the clock currently
//!   occupies, in a `Vec` sorted by `(time, seq)` descending: it is
//!   filled by one sort when the cursor enters the bucket, and each pop
//!   is a `Vec::pop` off its end that moves no other entry;
//! - **wheel** — one unsorted `Vec` per slot of [`WHEEL_SLOTS`] × 4096 ps
//!   ahead of the cursor; push is `O(1)`;
//! - **far heap** — everything beyond the wheel horizon; migrated in
//!   batches whenever the wheel runs dry.
//!
//! Ordering is identical to the plain heap: `(time, seq)` with FIFO
//! tie-breaking, which the engine's determinism contract requires. The
//! queue is robust to pushes at or before the cursor's bucket (they are
//! binary-search inserted into the active bucket, which stays totally
//! ordered), so a caller scheduling "now" mid-drain never corrupts the
//! ring.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the wheel-slot width in picoseconds (4096 ps ≈ 4.1 ns — finer
/// than every clock in the modelled system, so one slot rarely holds more
/// than a handful of events).
const SLOT_BITS: u32 = 12;

/// Width of one wheel slot in picoseconds (referenced by the tests; prod
/// code shifts by [`SLOT_BITS`] directly).
#[cfg(test)]
pub const SLOT_PS: u64 = 1 << SLOT_BITS;

/// Number of wheel slots; the near horizon is `WHEEL_SLOTS * SLOT_PS`
/// ≈ 1.05 µs, comfortably past every link/NoC/DRAM latency in the model.
pub const WHEEL_SLOTS: usize = 256;

/// An entry ordered by `(time, seq)`. The queue never inspects the
/// payload.
pub struct Entry<T> {
    /// Due instant.
    pub time: Time,
    /// Insertion order within equal times (the caller's monotone counter).
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[inline]
fn slot_of(time: Time) -> u64 {
    time.as_ps() >> SLOT_BITS
}

/// The two-level priority queue. Pops strictly in `(time, seq)` order.
///
/// Public beyond the engine: any component with an internal calendar of
/// timed work (e.g. the HMC device's DRAM/queue events) can use it as a
/// drop-in replacement for a `BinaryHeap` keyed on `(time, seq)` — same
/// order, constant-time pushes for near-horizon traffic.
pub struct EventQueue<T> {
    /// Events in the cursor's bucket (and any pushed at or before it),
    /// sorted by `(time, seq)` descending so the minimum is `last()` —
    /// always the global minimum once [`EventQueue::prepare`] has run.
    active: Vec<Entry<T>>,
    /// Ring of near-horizon buckets, indexed by absolute slot mod
    /// [`WHEEL_SLOTS`]. Slot `s` may only hold events whose absolute slot
    /// is in `(cursor, cursor + WHEEL_SLOTS)`.
    slots: Vec<Vec<Entry<T>>>,
    /// Total events in `slots`.
    near_len: usize,
    /// Absolute slot number of the active bucket; never decreases.
    cursor: u64,
    /// Events beyond the wheel horizon.
    far: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with its ring pre-allocated.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            active: Vec::with_capacity(16),
            // Slot buffers are pre-sized and reused across ring rotations:
            // `prepare` drains a bucket without releasing its capacity, so
            // after the first few laps the wheel allocates nothing.
            slots: (0..WHEEL_SLOTS).map(|_| Vec::with_capacity(4)).collect(),
            near_len: 0,
            cursor: 0,
            far: BinaryHeap::with_capacity(16),
        }
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.active.len() + self.near_len + self.far.len()
    }

    /// `true` when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues an entry; `O(1)` inside the near horizon.
    pub fn push(&mut self, entry: Entry<T>) {
        let s = slot_of(entry.time);
        if s <= self.cursor {
            // The cursor's own bucket — or (only possible if a caller
            // schedules into the past in a release build) an earlier one.
            // The active bucket is totally ordered, so both stay correct.
            self.insert_active(entry);
        } else if s - self.cursor < WHEEL_SLOTS as u64 {
            self.near_len += 1;
            self.slots[(s % WHEEL_SLOTS as u64) as usize].push(entry);
        } else {
            self.far.push(Reverse(entry));
        }
    }

    /// Moves the cursor to `new_cursor` and restores the far-heap
    /// invariant: every far event whose absolute slot now falls inside the
    /// wheel window `[cursor, cursor + WHEEL_SLOTS)` migrates into the
    /// active bucket or its ring bucket. Without this, a far event whose
    /// slot the advancing cursor caught up with would be overtaken by
    /// nearer traffic and delivered out of order.
    fn advance_cursor_to(&mut self, new_cursor: u64) {
        debug_assert!(new_cursor >= self.cursor, "cursor never retreats");
        self.cursor = new_cursor;
        while let Some(Reverse(head)) = self.far.peek() {
            let s = slot_of(head.time);
            if s >= self.cursor + WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked");
            if s <= self.cursor {
                self.insert_active(e);
            } else {
                self.near_len += 1;
                self.slots[(s % WHEEL_SLOTS as u64) as usize].push(e);
            }
        }
    }

    /// Inserts `entry` into the sorted active bucket at its
    /// `(time, seq)` position.
    fn insert_active(&mut self, entry: Entry<T>) {
        let at = self.active.partition_point(|e| *e > entry);
        self.active.insert(at, entry);
    }

    /// Ensures the active bucket holds the global minimum (if any event is
    /// queued at all) by advancing the cursor through the wheel and, when
    /// the wheel is dry, jumping it to the far heap's minimum.
    fn prepare(&mut self) {
        while self.active.is_empty() {
            if self.near_len > 0 {
                // Step to the next bucket (a non-empty one is at most
                // WHEEL_SLOTS - 1 steps away) and sort it into the active
                // bucket. The slot keeps its own capacity: swapping buffers
                // instead would hand every ring slot the active bucket's
                // peak capacity.
                let next = self.cursor + 1;
                self.advance_cursor_to(next);
                let slot = &mut self.slots[(self.cursor % WHEEL_SLOTS as u64) as usize];
                self.near_len -= slot.len();
                self.active.append(slot);
                self.active.sort_unstable_by(|a, b| b.cmp(a));
            } else if self.far.is_empty() {
                return;
            } else {
                // Wheel dry: jump the cursor straight to the far minimum;
                // the migration pulls the whole new window in.
                let min_slot = slot_of(self.far.peek().expect("non-empty").0.time);
                self.advance_cursor_to(min_slot);
            }
        }
    }

    /// Timestamp of the earliest queued event.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.prepare();
        self.active.last().map(|e| e.time)
    }

    /// Removes and returns the earliest queued event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.prepare();
        self.active.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ps: u64, seq: u64) -> Entry<u64> {
        Entry {
            time: Time::from_ps(ps),
            seq,
            item: seq,
        }
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.as_ps(), e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order_across_levels() {
        let mut q = EventQueue::new();
        // Far (beyond 1 µs), near (two buckets), and active-bucket events,
        // pushed out of order.
        q.push(entry(5_000_000, 0));
        q.push(entry(10, 1));
        q.push(entry(SLOT_PS * 3 + 5, 2));
        q.push(entry(10, 3));
        q.push(entry(SLOT_PS * 200, 4));
        q.push(entry(5_000_000, 5));
        assert_eq!(q.len(), 6);
        assert_eq!(
            drain(&mut q),
            vec![
                (10, 1),
                (10, 3),
                (SLOT_PS * 3 + 5, 2),
                (SLOT_PS * 200, 4),
                (5_000_000, 0),
                (5_000_000, 5),
            ]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_events_migrate_in_batches() {
        let mut q = EventQueue::new();
        // All far from slot 0; spread over several horizons.
        for i in 0..10u64 {
            q.push(entry(2_000_000 * (i + 1), i));
        }
        let out = drain(&mut q);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn pushes_into_active_bucket_while_draining() {
        let mut q = EventQueue::new();
        q.push(entry(SLOT_PS * 50, 0));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Cursor now sits at slot 50; same-bucket and same-time pushes
        // must still pop in order.
        q.push(entry(SLOT_PS * 50 + 7, 1));
        q.push(entry(SLOT_PS * 50 + 3, 2));
        q.push(entry(SLOT_PS * 50 + 7, 3));
        assert_eq!(
            drain(&mut q),
            vec![
                (SLOT_PS * 50 + 3, 2),
                (SLOT_PS * 50 + 7, 1),
                (SLOT_PS * 50 + 7, 3)
            ]
        );
    }

    #[test]
    fn wheel_wraps_without_mixing_buckets() {
        let mut q = EventQueue::new();
        // Interleave pops and pushes so the cursor laps the ring several
        // times; order must stay exact.
        let mut expected = Vec::new();
        let mut seq = 0u64;
        let mut base = 0u64;
        for round in 0..8u64 {
            for k in 0..40u64 {
                let t = base + k * SLOT_PS * 11 + (k % 3);
                q.push(entry(t, seq));
                expected.push((t, seq));
                seq += 1;
            }
            // Pop half of this round's events before pushing the next.
            for _ in 0..20 {
                q.pop();
            }
            base += 40 * SLOT_PS * 11 / 2;
            let _ = round;
        }
        // Drain the rest; full pop sequence must equal the sorted pushes.
        let mut q2 = EventQueue::new();
        for &(t, s) in &expected {
            q2.push(entry(t, s));
        }
        expected.sort_by_key(|&(t, s)| (t, s));
        assert_eq!(drain(&mut q2), expected);
    }

    #[test]
    fn far_event_entering_the_window_is_not_overtaken() {
        // Regression: an event beyond the wheel horizon must migrate into
        // the wheel as the cursor (driven by dense near traffic) catches
        // up with its slot — not wait until the wheel runs dry.
        let mut q = EventQueue::new();
        let far_t = SLOT_PS * (WHEEL_SLOTS as u64 + 50) + 500;
        q.push(entry(far_t, 0));
        let mut popped = Vec::new();
        for k in 0..WHEEL_SLOTS as u64 + 100 {
            q.push(entry(k * SLOT_PS, k + 1));
            popped.push(q.pop().unwrap().time.as_ps());
        }
        while let Some(e) = q.pop() {
            popped.push(e.time.as_ps());
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted, "global order preserved across migration");
        assert!(popped.contains(&far_t));
    }

    #[test]
    fn time_max_is_representable() {
        let mut q = EventQueue::new();
        q.push(entry(u64::MAX, 0));
        q.push(entry(0, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().time, Time::MAX);
    }

    /// The order the wheel must reproduce: a binary heap popping in
    /// `(time, seq)` order — the calendar the wheel replaced.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    }

    impl HeapOracle {
        fn push(&mut self, at: Time, seq: u64, tag: u32) {
            self.heap.push(Reverse((at, seq, tag)));
        }

        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|Reverse(e)| e.0)
        }

        fn pop(&mut self) -> Option<(Time, u64, u32)> {
            self.heap.pop().map(|Reverse(e)| e)
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

    /// Property: under random interleavings of pushes, peeks and pops at
    /// calendar-realistic timescales (sub-ns service steps through
    /// multi-µs bank timings, with deliberate time ties), the wheel pops
    /// the exact `(time, seq)` sequence a binary heap does. The drive
    /// mixes ordinary and keyed ([`KEYED_EVENT_BIT`]) sequences at equal
    /// times, pushes into the cursor's own bucket between pops of that
    /// bucket, checks `peek_time` before pops, and schedules past the
    /// wheel horizon so the cursor must jump once the wheel runs dry.
    /// This is the invariant that keeps the engine and the device
    /// byte-identical whatever the queue does inside.
    #[test]
    fn wheel_calendar_pops_exactly_like_the_heap_it_replaced() {
        use crate::KEYED_EVENT_BIT;
        let horizon_ps = WHEEL_SLOTS as u64 * SLOT_PS;
        let mut rng = 0x1d_2e_3f_4a_5b_6c_7d_8eu64;
        let mut jumps = 0u32;
        for trial in 0..50u64 {
            let mut wheel: EventQueue<u32> = EventQueue::new();
            let mut heap = HeapOracle::default();
            let mut seq = 0u64;
            let mut key = 0u64;
            let mut now = 0u64;
            let mut push =
                |rng: &mut u64, wheel: &mut EventQueue<u32>, heap: &mut HeapOracle, at| {
                    // One push in four carries a keyed sequence: it sorts
                    // after every ordinary one at its instant, by key.
                    let s = if xorshift(rng).is_multiple_of(4) {
                        key += 1;
                        KEYED_EVENT_BIT | ((xorshift(rng) % 4) << 40) | key
                    } else {
                        seq += 1;
                        seq
                    };
                    let tag = (trial as u32) << 16 | (s as u32 & 0xFFFF);
                    let at = Time::from_ps(at);
                    wheel.push(Entry {
                        time: at,
                        seq: s,
                        item: tag,
                    });
                    heap.push(at, s, tag);
                };
            for _ in 0..400 {
                match xorshift(&mut rng) % 5 {
                    // Schedule a burst; spans cover the cursor's own
                    // bucket, the near wheel, time ties and the far heap.
                    0 | 1 => {
                        for _ in 0..1 + xorshift(&mut rng) % 4 {
                            let span = match xorshift(&mut rng) % 6 {
                                0 => 0,
                                1 => xorshift(&mut rng) % 800,
                                2 => xorshift(&mut rng) % 60_000,
                                3 => xorshift(&mut rng) % 1_500_000,
                                4 => (xorshift(&mut rng) % 10) * 55_000,
                                _ => horizon_ps * (1 + xorshift(&mut rng) % 8),
                            };
                            push(&mut rng, &mut wheel, &mut heap, now + span);
                        }
                    }
                    2 => assert_eq!(wheel.peek_time(), heap.peek_time(), "trial {trial}"),
                    // Drain a few events, advancing `now` to the pop time
                    // so later schedules never land in the past; between
                    // pops, push into the bucket being drained.
                    _ => {
                        for _ in 0..1 + xorshift(&mut rng) % 3 {
                            assert_eq!(wheel.peek_time(), heap.peek_time(), "trial {trial}");
                            let got = wheel.pop().map(|e| (e.time, e.seq, e.item));
                            let want = heap.pop();
                            assert_eq!(got, want, "trial {trial}: pop diverged");
                            let Some((t, _, _)) = got else { break };
                            now = now.max(t.as_ps());
                            if xorshift(&mut rng).is_multiple_of(3) {
                                let at = now + xorshift(&mut rng) % 3;
                                push(&mut rng, &mut wheel, &mut heap, at);
                            }
                        }
                    }
                }
            }
            // Full drain must agree too. A straggler two horizons past the
            // latest event makes the wheel run dry before it, so the
            // drain must jump the cursor to reach it.
            let latest = heap
                .heap
                .iter()
                .map(|Reverse(e)| e.0.as_ps())
                .max()
                .unwrap_or(now);
            push(&mut rng, &mut wheel, &mut heap, latest + 2 * horizon_ps);
            let mut last_pop = now;
            loop {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "trial {trial}");
                let got = wheel.pop().map(|e| (e.time, e.seq, e.item));
                let want = heap.pop();
                assert_eq!(got, want, "trial {trial}: drain diverged");
                let Some((t, _, _)) = got else { break };
                if t.as_ps() > last_pop + horizon_ps {
                    jumps += 1;
                }
                last_pop = t.as_ps();
            }
            assert!(wheel.is_empty());
        }
        assert!(jumps >= 50, "every trial's straggler is reached by a jump");
    }
}
