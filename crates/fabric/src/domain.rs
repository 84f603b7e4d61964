//! Conservative parallel-DES machinery: the partition of a fabric into
//! per-cube engine domains, the lower-bound-timestamp horizon rule that
//! lets each domain advance independently, and the phase barrier the
//! domain scheduler synchronizes window rounds on.
//!
//! The model that makes this sound lives in the fabric simulator: every
//! cube-to-cube message (packet deliveries *and* link-token returns)
//! crosses its edge with at least the fabric link's SerDes latency `L`
//! ([`FabricConfig::lookahead`](crate::FabricConfig::lookahead)). An
//! event a domain dispatches at time `t` can therefore influence an
//! adjacent domain no earlier than `t + L`, and a domain `k` fabric hops
//! away no earlier than `t + k·L`. Each window round, every domain
//! publishes the timestamp of its earliest pending event; the horizon
//! rule below turns those lower bounds into the furthest instant each
//! domain may safely simulate before the next exchange.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The static partition of a fabric's cubes into engine domains.
///
/// Cubes are split into contiguous blocks (cube ids are assigned along
/// chains and rings, so contiguous blocks minimize cross-domain edges),
/// with the host always co-resident with cube 0 in domain 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DomainPlan {
    /// Number of domains (`1 ..= cube_count`).
    pub count: usize,
    /// Domain of each cube, monotone non-decreasing.
    pub of_cube: Vec<usize>,
    /// `dist[a][b]`: minimum number of *cross-domain* fabric edges on any
    /// path from a cube of domain `a` to a cube of domain `b`, i.e. the
    /// hop distance in the domain-level adjacency graph. Zero on the
    /// diagonal.
    pub dist: Vec<Vec<u32>>,
}

impl DomainPlan {
    /// Partitions `n` cubes into `min(domains, n)` contiguous blocks and
    /// derives the domain-distance matrix from the cube adjacency given
    /// by `neighbors`.
    pub fn new(n: usize, domains: usize, neighbors: impl Fn(usize) -> Vec<usize>) -> DomainPlan {
        let count = domains.clamp(1, n.max(1));
        let of_cube: Vec<usize> = (0..n).map(|c| c * count / n).collect();
        // Domain-level adjacency, then all-pairs BFS (at most 64 domains).
        let mut adj = vec![vec![false; count]; count];
        for c in 0..n {
            for nb in neighbors(c) {
                let (a, b) = (of_cube[c], of_cube[nb]);
                if a != b {
                    adj[a][b] = true;
                    adj[b][a] = true;
                }
            }
        }
        let mut dist = vec![vec![u32::MAX; count]; count];
        for (start, row) in dist.iter_mut().enumerate() {
            row[start] = 0;
            let mut frontier = vec![start];
            let mut depth = 0u32;
            while !frontier.is_empty() {
                depth += 1;
                let mut next = Vec::new();
                for &a in &frontier {
                    for b in 0..count {
                        if adj[a][b] && row[b] == u32::MAX {
                            row[b] = depth;
                            next.push(b);
                        }
                    }
                }
                frontier = next;
            }
        }
        DomainPlan {
            count,
            of_cube,
            dist,
        }
    }
}

/// The furthest instant (in picoseconds) domain `d` may simulate this
/// round, given every domain's earliest-pending-event time (`u64::MAX`
/// when a domain's queue is empty) and the lookahead `l` of one
/// cross-domain edge.
///
/// Two bounds compose, both exclusive (hence the final `- 1`):
///
/// - **Neighbor bound** — domain `e` cannot influence `d` before
///   `mins[e] + dist(e, d) · l`: its earliest dispatch needs at least
///   `dist` cross-domain edges, each adding `≥ l`.
/// - **Echo bound** — `mins[d] + 2·l`: `d`'s own earliest dispatch this
///   round can reach a neighbor at `mins[d] + l` and provoke a reply
///   arriving no earlier than `mins[d] + 2·l`. Without this bound a
///   domain facing only empty neighbors would run to quiescence and
///   then receive replies to its own traffic in its past.
///
/// A domain with no neighbor domain (the one domain of a one-domain
/// plan) has neither bound: nothing can send to it or reply to it, so
/// its horizon is `u64::MAX` and it runs to quiescence in one window.
///
/// Progress is guaranteed: for the domain holding the globally minimal
/// `mins`, every bound is at least `mins + l`, so it always dispatches
/// at least its earliest event (`l > 0` is required for that, and the
/// scheduler runs zero-lookahead configurations as one domain). The
/// published `mins` may be conservative (a cancelled timer's slot
/// counts), which can only shrink horizons, never break them.
pub(crate) fn horizon(d: usize, mins: &[u64], dist_to: &[u32], l: u64) -> u64 {
    if !dist_to.contains(&1) {
        return u64::MAX;
    }
    debug_assert!(l > 0, "parallel domains need a positive lookahead");
    let mut bound = mins[d].saturating_add(2 * l);
    for (e, &m) in mins.iter().enumerate() {
        if e != d {
            bound = bound.min(m.saturating_add(l.saturating_mul(u64::from(dist_to[e]))));
        }
    }
    bound.saturating_sub(1)
}

/// Upper bound on lookahead windows granted per rendezvous round. One
/// round's schedule is projected from a single `mins` snapshot, so each
/// extra window advances the projection by exactly one lookahead `l`;
/// past a few dozen the windows outrun any real event density and only
/// add handshake overhead. 32 keeps a round's schedule comfortably
/// inside one cache line per domain while cutting barrier rounds by up
/// to the same factor.
pub(crate) const MAX_WINDOWS_PER_ROUND: usize = 32;

/// The adaptive multi-window schedule of one rendezvous round: from a
/// single snapshot of every domain's published earliest-event time,
/// projects a ladder of per-domain horizons `plan[k][d]` — window `k`
/// of domain `d` may run to `plan[k][d]` (inclusive) provided it has
/// received every neighbor's window-`k-1` output first. Every domain
/// computes the identical schedule from the shared snapshot, so the
/// round's window count and horizons are deterministic whatever the
/// thread timing.
///
/// Window 0 is exactly the [`horizon`] rule. Later windows build on a
/// simple invariant: everything domain `f` processes — and therefore
/// everything it can send — in windows `≥ k` has a timestamp strictly
/// above its window-`k-1` horizon (earlier events were either already
/// processed or, by the window-0 argument applied inductively, can
/// never arrive in `f`'s past). A message from neighbor `f`'s window
/// `≥ k` thus reaches `d` no earlier than `plan[k-1][f] + l`, so with
/// windows `< k` delivered,
///
/// ```text
/// plan[k][d] = min over neighbors f of plan[k-1][f] + l    (exclusive,
///                                                           hence the -1
///                                                           baked into
///                                                           horizon and
///                                                           preserved by
///                                                           the +l step)
/// ```
///
/// is safe. Non-neighbor domains need no term: their influence must be
/// relayed by a neighbor, which can only do so in a window the bound
/// already covers. The ladder is monotone (the `dist` triangle
/// inequality makes `plan[1] ≥ plan[0]`, and the step preserves order),
/// and it stops growing once saturated or at [`MAX_WINDOWS_PER_ROUND`].
pub(crate) fn plan_windows(mins: &[u64], dist: &[Vec<u32>], l: u64) -> Vec<Vec<u64>> {
    let count = mins.len();
    let first: Vec<u64> = (0..count).map(|d| horizon(d, mins, &dist[d], l)).collect();
    let mut plan = vec![first];
    while plan.len() < MAX_WINDOWS_PER_ROUND {
        let prev = plan.last().expect("plan starts non-empty");
        let next: Vec<u64> = (0..count)
            .map(|d| {
                (0..count)
                    .filter(|&f| dist[d][f] == 1)
                    .map(|f| prev[f].saturating_add(l))
                    .min()
                    // A domain with no neighbors (a one-domain plan)
                    // already ran to quiescence in window 0.
                    .unwrap_or(prev[d])
            })
            .collect();
        if next == *prev {
            break;
        }
        plan.push(next);
    }
    plan
}

/// Error returned by [`PhaseBarrier::wait`] once the barrier is
/// poisoned: some participant panicked and every domain must unwind
/// instead of deadlocking on a rendezvous that can never complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BarrierPoisoned;

/// A reusable spin-then-yield rendezvous for the domain scheduler.
///
/// `std::sync::Barrier` deadlocks the surviving domains when one worker
/// panics mid-round; this barrier instead carries a poison flag that a
/// panicking participant sets (see [`PhaseBarrier::guard`]) so every
/// `wait` in flight — and every later one — returns an error and the
/// scheduler can unwind. The wait loop spins briefly (window rounds are
/// sub-microsecond on saturated fabrics) and then yields; when the
/// parties outnumber the cores of the shared budget
/// ([`hmc_des::pool::budget_total`]) the spin phase is skipped entirely
/// — a waiter that owns the only core can never observe the generation
/// advance until it yields it, so spinning there just burns the
/// scheduler quantum the other domains need.
#[derive(Debug)]
pub(crate) struct PhaseBarrier {
    parties: usize,
    spin_limit: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl PhaseBarrier {
    pub fn new(parties: usize) -> PhaseBarrier {
        assert!(parties > 0, "a barrier needs at least one party");
        let cores = hmc_des::pool::budget_total();
        let spin_limit = if cores >= parties { 1 << 14 } else { 0 };
        PhaseBarrier {
            parties,
            spin_limit,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all parties arrive (or the barrier is poisoned).
    pub fn wait(&self) -> Result<(), BarrierPoisoned> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver opens the next generation and releases the rest.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return Err(BarrierPoisoned);
                }
                spins += 1;
                if spins < self.spin_limit {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        Ok(())
    }

    /// Marks the barrier poisoned and releases every waiter with an error.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// `true` once any participant poisoned the barrier. The window
    /// handshake loops (which wait on per-domain progress counters, not
    /// on the barrier itself) poll this so a dead neighbor can't strand
    /// them spinning.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// A drop guard that poisons the barrier iff its thread is unwinding.
    /// Every domain loop holds one so a panic anywhere releases all
    /// rendezvous instead of deadlocking them.
    pub fn guard(&self) -> PoisonGuard<'_> {
        PoisonGuard { barrier: self }
    }
}

pub(crate) struct PoisonGuard<'a> {
    barrier: &'a PhaseBarrier,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn chain_neighbors(n: usize) -> impl Fn(usize) -> Vec<usize> {
        move |c| {
            let mut v = Vec::new();
            if c > 0 {
                v.push(c - 1);
            }
            if c + 1 < n {
                v.push(c + 1);
            }
            v
        }
    }

    #[test]
    fn contiguous_blocks_cover_every_domain() {
        let plan = DomainPlan::new(8, 4, chain_neighbors(8));
        assert_eq!(plan.count, 4);
        assert_eq!(plan.of_cube, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let plan = DomainPlan::new(5, 4, chain_neighbors(5));
        assert_eq!(plan.count, 4);
        assert_eq!(plan.of_cube, vec![0, 0, 1, 2, 3]);
        // More domains than cubes clamps to one domain per cube.
        let plan = DomainPlan::new(2, 8, chain_neighbors(2));
        assert_eq!(plan.count, 2);
    }

    #[test]
    fn chain_domain_distances_are_hop_counts() {
        let plan = DomainPlan::new(8, 4, chain_neighbors(8));
        assert_eq!(plan.dist[0], vec![0, 1, 2, 3]);
        assert_eq!(plan.dist[3], vec![3, 2, 1, 0]);
    }

    #[test]
    fn sixty_four_cube_mesh_partitions_into_row_domains() {
        // 8×8 mesh adjacency; 8 domains land one grid row per domain.
        let mesh = |c: usize| {
            let (x, y) = (c % 8, c / 8);
            let mut v = Vec::new();
            if x > 0 {
                v.push(c - 1);
            }
            if x < 7 {
                v.push(c + 1);
            }
            if y > 0 {
                v.push(c - 8);
            }
            if y < 7 {
                v.push(c + 8);
            }
            v
        };
        let plan = DomainPlan::new(64, 8, mesh);
        assert_eq!(plan.count, 8);
        for (c, &d) in plan.of_cube.iter().enumerate() {
            assert_eq!(d, c / 8, "row-major blocks put each row in one domain");
        }
        // Adjacent rows are adjacent domains: the distance matrix is the
        // row distance.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(plan.dist[a][b], a.abs_diff(b) as u32);
            }
        }
    }

    #[test]
    fn star_collapses_to_distance_two() {
        // Star: cube 0 is the hub.
        let plan = DomainPlan::new(4, 4, |c| if c == 0 { vec![1, 2, 3] } else { vec![0] });
        assert_eq!(plan.dist[1], vec![1, 0, 2, 2]);
    }

    #[test]
    fn horizon_respects_neighbor_and_echo_bounds() {
        let l = 55_000u64;
        let dist = [0u32, 1, 2];
        // Neighbor bound binds: domain 1 holds the earliest event.
        let mins = [400_000u64, 100_000, 900_000];
        assert_eq!(horizon(0, &mins, &dist, l), 100_000 + l - 1);
        // Empty neighbors: only the echo bound remains.
        let mins = [100_000u64, u64::MAX, u64::MAX];
        assert_eq!(horizon(0, &mins, &dist, l), 100_000 + 2 * l - 1);
        // The globally minimal domain always clears its own event.
        let mins = [100_000u64, 400_000, 900_000];
        assert!(horizon(0, &mins, &dist, l) >= 100_000);
    }

    #[test]
    fn a_domain_without_neighbors_runs_to_quiescence() {
        for l in [55_000u64, 0] {
            assert_eq!(horizon(0, &[100_000], &[0], l), u64::MAX);
        }
        let dplan = DomainPlan::new(4, 1, chain_neighbors(4));
        assert_eq!(dplan.of_cube, vec![0; 4]);
        assert_eq!(
            plan_windows(&[100_000], &dplan.dist, 55_000),
            vec![vec![u64::MAX]]
        );
    }

    #[test]
    fn horizon_saturates_on_empty_fabrics() {
        let mins = [u64::MAX, u64::MAX];
        assert_eq!(horizon(0, &mins, &[0, 1], 55_000), u64::MAX - 1);
    }

    #[test]
    fn barrier_synchronizes_and_reuses() {
        let barrier = PhaseBarrier::new(4);
        let rounds = 200;
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for r in 0..rounds {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait().expect("not poisoned");
                        // Everyone sees all arrivals of round r.
                        assert!(counter.load(Ordering::Relaxed) >= (r + 1) * 4);
                        barrier.wait().expect("not poisoned");
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), rounds * 4);
    }

    /// A toy conservative simulation over the real [`horizon`] rule and a
    /// real [`DomainPlan`]: abstract events that deterministically spawn
    /// children (same-domain children at `t + small`, cross-domain
    /// children at `t + L + extra` — the invariant the fabric model
    /// guarantees). The serial reference processes one global queue in
    /// `(time, domain, id)` order; the parallel run advances domains in a
    /// *random order* each window round, each to its horizon, exchanging
    /// cross-domain spawns through per-domain mailboxes drained between
    /// rounds. For every interleaving, each domain must process exactly
    /// the serial run's per-domain subsequence — any horizon overshoot
    /// would let a domain run past a message still in flight and diverge.
    #[test]
    fn any_window_interleaving_matches_serial_delivery_order() {
        const L: u64 = 55;
        let plan = DomainPlan::new(8, 4, chain_neighbors(8));
        let d_count = plan.count;

        // Deterministic per-event behavior: everything an event does is
        // derived from its own identity, never from processing order.
        fn mix(mut x: u64) -> u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
        // `(dst, at, child_id)` of the event's spawned child, if any.
        // Children stay on the domain adjacency (itself or a chain
        // neighbor): like fabric packets, influence travels edge by edge,
        // paying at least `L` per cross-domain edge — the premise of the
        // horizon's neighbor bound.
        let spawn = |d: usize, t: u64, id: u64, budget: u32| -> Option<(usize, u64, u64)> {
            if budget == 0 {
                return None;
            }
            let h = mix(id ^ t.rotate_left(32));
            let dst = match h % 4 {
                0 => d.saturating_sub(1),
                1 => (d + 1).min(d_count - 1),
                _ => d,
            };
            let at = if dst == d {
                t + 1 + (h >> 8) % 7
            } else {
                t + L + (h >> 8) % 97
            };
            Some((dst, at, mix(h)))
        };
        let seeds: Vec<(usize, u64, u64, u32)> = (0..d_count)
            .flat_map(|d| (0..3u64).map(move |k| (d, 10 + 13 * k, mix(0xACE0 + k + d as u64), 24)))
            .collect();

        // Serial reference: one global queue in (time, domain, id) order.
        let serial: Vec<Vec<(u64, u64)>> = {
            let mut queue: std::collections::BTreeSet<(u64, usize, u64, u32)> =
                seeds.iter().map(|&(d, t, id, b)| (t, d, id, b)).collect();
            let mut log = vec![Vec::new(); d_count];
            while let Some(&(t, d, id, b)) = queue.iter().next() {
                queue.remove(&(t, d, id, b));
                log[d].push((t, id));
                if let Some((dst, at, cid)) = spawn(d, t, id, b) {
                    queue.insert((at, dst, cid, b - 1));
                }
            }
            log
        };
        assert!(serial.iter().map(Vec::len).sum::<usize>() > 200);

        for trial in 0..25u64 {
            let mut rng = mix(0xBEEF ^ trial);
            let mut queues: Vec<std::collections::BTreeSet<(u64, u64, u32)>> =
                vec![Default::default(); d_count];
            for &(d, t, id, b) in &seeds {
                queues[d].insert((t, id, b));
            }
            let mut mailbox: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); d_count];
            let mut log = vec![Vec::new(); d_count];
            loop {
                for (q, mb) in queues.iter_mut().zip(&mut mailbox) {
                    q.extend(mb.drain(..));
                }
                let mins: Vec<u64> = queues
                    .iter()
                    .map(|q| q.iter().next().map_or(u64::MAX, |&(t, _, _)| t))
                    .collect();
                if mins.iter().all(|&m| m == u64::MAX) {
                    break;
                }
                // A random domain order each round: the protocol must be
                // insensitive to which domain's window runs first.
                let mut order: Vec<usize> = (0..d_count).collect();
                for i in (1..d_count).rev() {
                    rng = mix(rng);
                    order.swap(i, (rng as usize) % (i + 1));
                }
                for &d in &order {
                    let h = horizon(d, &mins, &plan.dist[d], L);
                    while let Some(&(t, id, b)) = queues[d].iter().next() {
                        if t > h {
                            break;
                        }
                        queues[d].remove(&(t, id, b));
                        log[d].push((t, id));
                        if let Some((dst, at, cid)) = spawn(d, t, id, b) {
                            if dst == d {
                                queues[d].insert((at, cid, b - 1));
                            } else {
                                mailbox[dst].push((at, cid, b - 1));
                            }
                        }
                    }
                }
            }
            assert_eq!(log, serial, "interleaving {trial} diverged from serial");
        }
    }

    #[test]
    fn window_ladder_starts_at_the_horizon_and_steps_by_lookahead() {
        let l = 55u64;
        let dplan = DomainPlan::new(8, 4, chain_neighbors(8));
        let mins = vec![100u64, 130, 90, 200];
        let plan = plan_windows(&mins, &dplan.dist, l);
        let first: Vec<u64> = (0..4)
            .map(|d| horizon(d, &mins, &dplan.dist[d], l))
            .collect();
        assert_eq!(plan[0], first, "window 0 is the PR 7 horizon rule");
        for k in 1..plan.len() {
            for d in 0..4 {
                assert!(plan[k][d] >= plan[k - 1][d], "ladder is monotone");
                let step = (0..4)
                    .filter(|&f| dplan.dist[d][f] == 1)
                    .map(|f| plan[k - 1][f].saturating_add(l))
                    .min()
                    .unwrap();
                assert_eq!(plan[k][d], step, "each rung is the neighbor bound");
            }
        }
        // Live traffic keeps the ladder growing to the cap; a drained
        // fabric saturates it immediately.
        assert_eq!(plan.len(), MAX_WINDOWS_PER_ROUND);
        let drained = plan_windows(&[u64::MAX; 4], &dplan.dist, l);
        assert!(drained.len() <= 2, "saturated ladders stop early");
    }

    /// The multi-window extension of the interleaving test above: each
    /// round runs the whole `plan_windows` ladder, delivering window
    /// `k-1`'s cross-domain spawns before window `k` runs (the handshake
    /// the real scheduler implements with per-domain counters), with a
    /// fresh random domain order inside every window. Per-domain
    /// delivery order must still match the serial oracle exactly, and
    /// the ladder must genuinely grant multiple windows per rendezvous —
    /// otherwise this test degenerates into the single-window one.
    #[test]
    fn adaptive_multi_window_grants_match_serial_delivery_order() {
        const L: u64 = 55;
        let dplan = DomainPlan::new(8, 4, chain_neighbors(8));
        let d_count = dplan.count;

        fn mix(mut x: u64) -> u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
        let spawn = |d: usize, t: u64, id: u64, budget: u32| -> Option<(usize, u64, u64)> {
            if budget == 0 {
                return None;
            }
            let h = mix(id ^ t.rotate_left(32));
            let dst = match h % 4 {
                0 => d.saturating_sub(1),
                1 => (d + 1).min(d_count - 1),
                _ => d,
            };
            let at = if dst == d {
                t + 1 + (h >> 8) % 7
            } else {
                t + L + (h >> 8) % 97
            };
            Some((dst, at, mix(h)))
        };
        let seeds: Vec<(usize, u64, u64, u32)> = (0..d_count)
            .flat_map(|d| (0..3u64).map(move |k| (d, 10 + 13 * k, mix(0xC0DE + k + d as u64), 24)))
            .collect();

        let serial: Vec<Vec<(u64, u64)>> = {
            let mut queue: std::collections::BTreeSet<(u64, usize, u64, u32)> =
                seeds.iter().map(|&(d, t, id, b)| (t, d, id, b)).collect();
            let mut log = vec![Vec::new(); d_count];
            while let Some(&(t, d, id, b)) = queue.iter().next() {
                queue.remove(&(t, d, id, b));
                log[d].push((t, id));
                if let Some((dst, at, cid)) = spawn(d, t, id, b) {
                    queue.insert((at, dst, cid, b - 1));
                }
            }
            log
        };
        assert!(serial.iter().map(Vec::len).sum::<usize>() > 200);

        for trial in 0..25u64 {
            let mut rng = mix(0xFACE ^ trial);
            let mut queues: Vec<std::collections::BTreeSet<(u64, u64, u32)>> =
                vec![Default::default(); d_count];
            for &(d, t, id, b) in &seeds {
                queues[d].insert((t, id, b));
            }
            let mut log = vec![Vec::new(); d_count];
            let (mut rounds, mut windows) = (0u64, 0u64);
            loop {
                let mins: Vec<u64> = queues
                    .iter()
                    .map(|q| q.iter().next().map_or(u64::MAX, |&(t, _, _)| t))
                    .collect();
                if mins.iter().all(|&m| m == u64::MAX) {
                    break;
                }
                let ladder = plan_windows(&mins, &dplan.dist, L);
                rounds += 1;
                windows += ladder.len() as u64;
                // `sent[dst]`: cross spawns of the window being run,
                // delivered only before the *next* window — exactly what
                // the per-domain done-counter handshake guarantees.
                let mut sent: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); d_count];
                for horizons in &ladder {
                    for (q, mb) in queues.iter_mut().zip(&mut sent) {
                        q.extend(mb.drain(..));
                    }
                    let mut order: Vec<usize> = (0..d_count).collect();
                    for i in (1..d_count).rev() {
                        rng = mix(rng);
                        order.swap(i, (rng as usize) % (i + 1));
                    }
                    for &d in &order {
                        let h = horizons[d];
                        while let Some(&(t, id, b)) = queues[d].iter().next() {
                            if t > h {
                                break;
                            }
                            queues[d].remove(&(t, id, b));
                            log[d].push((t, id));
                            if let Some((dst, at, cid)) = spawn(d, t, id, b) {
                                if dst == d {
                                    queues[d].insert((at, cid, b - 1));
                                } else {
                                    sent[dst].push((at, cid, b - 1));
                                }
                            }
                        }
                    }
                }
                for (q, mb) in queues.iter_mut().zip(&mut sent) {
                    q.extend(mb.drain(..));
                }
            }
            assert_eq!(log, serial, "interleaving {trial} diverged from serial");
            assert!(
                windows >= 3 * rounds,
                "the ladder granted only {windows} windows over {rounds} rounds"
            );
        }
    }

    #[test]
    fn panicking_party_poisons_instead_of_deadlocking() {
        let barrier = PhaseBarrier::new(2);
        let survivor = std::thread::scope(|s| {
            let h = s.spawn(|| barrier.wait());
            let p = s.spawn(|| {
                let _guard = barrier.guard();
                panic!("domain died");
            });
            assert!(p.join().is_err());
            h.join().expect("survivor must not panic")
        });
        assert_eq!(survivor, Err(BarrierPoisoned));
        // Later waits fail immediately.
        assert_eq!(barrier.wait(), Err(BarrierPoisoned));
    }
}
