//! Pull-based traffic sources: the closed-loop workload pipeline.
//!
//! A [`TrafficSource`] is the generator behind one traffic port. Instead of
//! materializing a request list up front (the old open-loop `Trace`-vector
//! path), the port *pulls* one operation at a time with
//! [`TrafficSource::next`], handing back a [`Feedback`] that carries every
//! transaction completed since the previous pull. That single change makes
//! dependent-access workloads expressible:
//!
//! - [`GupsSource`] — the paper's GUPS firmware (random addresses through a
//!   mask/anti-mask filter), now emitted lazily;
//! - [`TraceReplay`] — the multi-port stream firmware, streaming an
//!   existing [`Trace`] without copying it per request;
//! - [`PointerChase`] — N walkers each deriving their next address
//!   deterministically from the completed transaction: the unloaded-latency
//!   probe of the companion study (Hadidi et al., ISPASS 2017);
//! - [`OffloadSource`] — NOM-style copy streams (Rezaei et al., 2020):
//!   paired read→dependent-write bursts between two vaults.
//!
//! # The pull protocol
//!
//! The port polls `next(now, &feedback)` only when it could actually issue
//! (a tag is free, its FIFO has room, and — for
//! [duration-gated](TrafficSource::duration_gated) sources — the port is
//! active). Each completion is presented exactly once, in completion
//! order; `Completion::index` is the 0-based issue order of the ops pulled
//! from this source, so a source can match completions to whatever it has
//! in flight without keeping addresses unique. The contract on the return
//! value:
//!
//! - [`SourceStep::Op`] is issued immediately — the source may count it as
//!   in flight;
//! - [`SourceStep::WaitUntil`] must name a strictly future instant; the
//!   port re-polls then (or earlier, if a completion arrives first);
//! - [`SourceStep::Blocked`] is only legal while the source has
//!   transactions outstanding (otherwise nothing could ever unblock it —
//!   the port treats that as a protocol bug and panics);
//! - [`SourceStep::Done`] is terminal.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use hmc_des::Time;
use hmc_mapping::{AddressFilter, AddressMap, BankId, FabricAddressMap, VaultId};
use hmc_packet::{Address, CubeId, GlobalAddress, PayloadSize, RequestKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Trace, TraceOp};

/// One completed transaction, reported back to the source that emitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Issue-order index of the completed op: the `n`-th operation this
    /// source returned from [`TrafficSource::next`] has index `n` (0-based).
    pub index: u64,
    /// The operation that completed.
    pub op: TraceOp,
    /// When the request was issued by the port.
    pub issued_at: Time,
    /// When the response was delivered back to the port.
    pub completed_at: Time,
}

/// Closed-loop feedback handed to [`TrafficSource::next`].
#[derive(Debug, Clone, Copy)]
pub struct Feedback<'a> {
    /// Transactions completed since the previous `next` call, in
    /// completion order. Each completion appears exactly once.
    pub completions: &'a [Completion],
    /// Requests still outstanding at this port (not counting the op being
    /// requested).
    pub outstanding: u16,
}

impl Feedback<'_> {
    /// Feedback with no completions (useful in tests and manual drivers).
    pub const EMPTY: Feedback<'static> = Feedback {
        completions: &[],
        outstanding: 0,
    };
}

/// What a source answers when polled for its next operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStep {
    /// Issue this operation now.
    Op(TraceOp),
    /// Nothing yet; poll again at this (strictly future) instant — the
    /// rate-control step of open-loop sources.
    WaitUntil(Time),
    /// Nothing until an outstanding transaction completes — the
    /// closed-loop step of dependent-access sources.
    Blocked,
    /// The source is exhausted; it will never emit again.
    Done,
}

/// A pull-based traffic generator behind one port.
///
/// See the [module docs](self) for the full protocol and
/// [`crate`]-level docs for a worked custom-source example.
pub trait TrafficSource: Send {
    /// Pulls the next operation. `feedback` carries every transaction
    /// completed since the previous call (each exactly once).
    fn next(&mut self, now: Time, feedback: &Feedback<'_>) -> SourceStep;

    /// `true` if this source only runs while its port is activated
    /// (GUPS-style fixed-duration firmware, gated by the measurement
    /// window); `false` if it runs to exhaustion like the stream firmware.
    fn duration_gated(&self) -> bool {
        false
    }

    /// Extra flits the port's RX path moves per response. Stream-firmware
    /// style sources ship each response's address back to the host
    /// alongside the data (Figure 5b's "Rd. Addr. FIFO"), costing one
    /// flit — and every closed-loop source needs that address to derive
    /// its next request, so `1` is the default; GUPS overrides with `0`
    /// (it only bumps local counters).
    fn rx_extra_flits(&self) -> u32 {
        1
    }

    /// A short stable name for per-source reporting.
    fn label(&self) -> &'static str;
}

/// A cloneable recipe building a [`TrafficSource`] from a port seed.
///
/// Port specs carry factories rather than built sources so that a spec can
/// be cloned across ports (`vec![spec; 9]`) while each port still gets its
/// own deterministically derived seed.
pub type SourceFactory = Arc<dyn Fn(u64) -> Box<dyn TrafficSource> + Send + Sync>;

/// Wraps a closure as a [`SourceFactory`].
pub fn source_factory<F>(f: F) -> SourceFactory
where
    F: Fn(u64) -> Box<dyn TrafficSource> + Send + Sync + 'static,
{
    Arc::new(f)
}

/// What a GUPS port generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GupsOp {
    /// Random reads of a fixed size.
    Read(PayloadSize),
    /// Random writes of a fixed size.
    Write(PayloadSize),
    /// A random mix: `write_percent`% writes, the rest reads, all of one
    /// size (the read/write balance experiment of Section IV-F).
    Mix {
        /// Transfer size for both directions.
        size: PayloadSize,
        /// Percentage of writes (0–100).
        write_percent: u8,
    },
}

impl GupsOp {
    /// The transfer size this op template moves.
    pub(crate) fn payload(&self) -> PayloadSize {
        match *self {
            GupsOp::Read(s) | GupsOp::Write(s) => s,
            GupsOp::Mix { size, .. } => size,
        }
    }

    /// Draws one request kind from this template — shared by every GUPS
    /// generator so the op semantics (including the `Mix` percentage
    /// draw) cannot diverge between them. Consumes RNG state only for
    /// `Mix`.
    fn draw_kind(&self, rng: &mut SmallRng) -> RequestKind {
        match *self {
            GupsOp::Read(s) => RequestKind::Read { size: s },
            GupsOp::Write(s) => RequestKind::Write { size: s },
            GupsOp::Mix {
                size,
                write_percent,
            } => {
                if rng.gen_range(0u8..100) < write_percent {
                    RequestKind::Write { size }
                } else {
                    RequestKind::Read { size }
                }
            }
        }
    }
}

/// The GUPS firmware as a pull source: random addresses through a
/// mask/anti-mask filter, as many requests as flow control allows, gated
/// by the port's activation window.
#[derive(Debug, Clone)]
pub struct GupsSource {
    filter: AddressFilter,
    op: GupsOp,
    rng: SmallRng,
}

impl GupsSource {
    /// Creates a GUPS generator.
    ///
    /// # Panics
    ///
    /// Panics if the op's size is not a power of two (the firmware's
    /// alignment scheme requires it).
    pub fn new(filter: AddressFilter, op: GupsOp, seed: u64) -> GupsSource {
        assert!(
            op.payload().bytes().is_power_of_two(),
            "GUPS sizes must be powers of two for address alignment"
        );
        GupsSource {
            filter,
            op,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TrafficSource for GupsSource {
    fn next(&mut self, _now: Time, _feedback: &Feedback<'_>) -> SourceStep {
        let size = self.op.payload();
        let raw = self.rng.gen::<u64>() & !(u64::from(size.bytes()) - 1);
        let addr = self.filter.apply(raw);
        let kind = self.op.draw_kind(&mut self.rng);
        SourceStep::Op(TraceOp {
            addr: addr.into(),
            kind,
        })
    }

    fn duration_gated(&self) -> bool {
        true
    }

    fn rx_extra_flits(&self) -> u32 {
        0
    }

    fn label(&self) -> &'static str {
        "gups"
    }
}

/// GUPS over a *fabric-global* window: random addresses drawn uniformly
/// from a power-of-two window of the global address space, emitted raw so
/// the port's [cube targeting](hmc_mapping::CubeTargeting) derives the
/// CUB field from the address. Under a blocked map a one-cube-sized
/// window pins every request to cube 0; under an interleaved map the very
/// same draws spread across all cubes — the contrast the `ext-intercube`
/// experiment measures.
#[derive(Debug, Clone)]
pub struct GlobalGupsSource {
    op: GupsOp,
    window_mask: u64,
    rng: SmallRng,
}

impl GlobalGupsSource {
    /// Random ops of `op`'s kind over the first `window_bytes` of
    /// `fabric`'s global space, aligned to the request size.
    ///
    /// The map is taken up front to reject a silent skew at construction:
    /// aligning a raw global draw to a request *larger* than the
    /// interleaved map's block zeroes part of the cube field, which would
    /// pin every request to a subset of cubes while the run claims an
    /// interleaved spread — the same silent-aliasing class the checked
    /// split exists to make loud.
    ///
    /// # Panics
    ///
    /// Panics if `window_bytes` or the op size is not a power of two, the
    /// window is smaller than one request, or the aligned request size
    /// cannot reach every cube of `fabric`
    /// ([`FabricAddressMap::fits_aligned_requests`]).
    pub fn new(
        op: GupsOp,
        window_bytes: u64,
        fabric: &FabricAddressMap,
        seed: u64,
    ) -> GlobalGupsSource {
        assert!(
            window_bytes.is_power_of_two(),
            "global GUPS window must be a power of two"
        );
        assert!(
            op.payload().bytes().is_power_of_two(),
            "GUPS sizes must be powers of two for address alignment"
        );
        assert!(
            window_bytes >= u64::from(op.payload().bytes()),
            "window must hold at least one request"
        );
        assert!(
            fabric.fits_aligned_requests(op.payload().bytes()),
            "a {} B aligned request zeroes the map's cube bits: \
             requests must not exceed the interleaved block size",
            op.payload().bytes()
        );
        assert!(
            fabric.splits_whole_window(window_bytes),
            "a {window_bytes} B window draws addresses the fabric map rejects \
             (above capacity, or cube-field values with no cube behind them)"
        );
        GlobalGupsSource {
            op,
            window_mask: window_bytes - 1,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TrafficSource for GlobalGupsSource {
    fn next(&mut self, _now: Time, _feedback: &Feedback<'_>) -> SourceStep {
        let size = self.op.payload();
        let raw = self.rng.gen::<u64>() & self.window_mask & !(u64::from(size.bytes()) - 1);
        let kind = self.op.draw_kind(&mut self.rng);
        SourceStep::Op(TraceOp {
            addr: GlobalAddress::new(raw),
            kind,
        })
    }

    fn duration_gated(&self) -> bool {
        true
    }

    fn rx_extra_flits(&self) -> u32 {
        0
    }

    fn label(&self) -> &'static str {
        "gups-global"
    }
}

/// The multi-port stream firmware as a pull source: replays a finite
/// [`Trace`] in order, streaming ops instead of copying them.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Trace,
    pos: usize,
}

impl TraceReplay {
    /// Replays `trace` from the beginning.
    pub fn new(trace: Trace) -> TraceReplay {
        TraceReplay { trace, pos: 0 }
    }
}

impl TrafficSource for TraceReplay {
    fn next(&mut self, _now: Time, _feedback: &Feedback<'_>) -> SourceStep {
        match self.trace.ops().get(self.pos) {
            Some(&op) => {
                self.pos += 1;
                SourceStep::Op(op)
            }
            None => SourceStep::Done,
        }
    }

    fn label(&self) -> &'static str {
        "stream"
    }
}

/// Lazy uniform-random reads confined to a vault set: the generator that
/// [`crate::random_reads_in_vaults`] unrolls.
#[derive(Debug, Clone)]
pub(crate) struct UniformSource {
    map: AddressMap,
    vaults: Vec<VaultId>,
    size: PayloadSize,
    remaining: u64,
    rng: SmallRng,
}

impl UniformSource {
    /// `count` uniform reads of `size` bytes over `vaults`.
    ///
    /// # Panics
    ///
    /// Panics if `vaults` is empty or contains an out-of-range vault.
    pub(crate) fn reads_in_vaults(
        map: &AddressMap,
        vaults: &[VaultId],
        size: PayloadSize,
        count: u64,
        seed: u64,
    ) -> UniformSource {
        assert!(!vaults.is_empty(), "need at least one vault");
        let g = map.geometry();
        for v in vaults {
            assert!(v.0 < g.vaults, "vault out of range");
        }
        UniformSource {
            map: *map,
            vaults: vaults.to_vec(),
            size,
            remaining: count,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// The in-block offset rule every generator shares: align to the request
/// size so a request never straddles blocks, picking the slot with the
/// caller's randomness (an RNG draw or a hash).
pub(crate) fn aligned_offset(
    block: u64,
    size: PayloadSize,
    pick_slot: impl FnOnce(u64) -> u64,
) -> u64 {
    let slots = block / u64::from(size.bytes()).max(1);
    if slots > 1 {
        pick_slot(slots) * u64::from(size.bytes())
    } else {
        0
    }
}

impl TrafficSource for UniformSource {
    fn next(&mut self, _now: Time, _feedback: &Feedback<'_>) -> SourceStep {
        if self.remaining == 0 {
            return SourceStep::Done;
        }
        self.remaining -= 1;
        let g = self.map.geometry();
        let vault = self.vaults[self.rng.gen_range(0..self.vaults.len())];
        let bank = BankId(self.rng.gen_range(0..g.banks_per_vault));
        let row = self.rng.gen_range(0..self.map.rows_per_bank());
        let offset = aligned_offset(self.map.block_size().bytes(), self.size, |slots| {
            self.rng.gen_range(0..slots)
        });
        SourceStep::Op(TraceOp::read(
            self.map.encode(vault, bank, row, offset),
            self.size,
        ))
    }

    fn label(&self) -> &'static str {
        "uniform"
    }
}

/// Lazy sequential reads: the generator that [`crate::linear_reads`]
/// unrolls.
#[derive(Debug, Clone)]
pub(crate) struct LinearSource {
    next_addr: u64,
    size: PayloadSize,
    remaining: u64,
}

impl LinearSource {
    /// `count` reads of `size` bytes starting at `base`, each advancing by
    /// one request size. The walk is over the *global* space: a base
    /// beyond one cube's range stays intact until the port's cube
    /// targeting splits it.
    pub(crate) fn new(
        base: impl Into<GlobalAddress>,
        size: PayloadSize,
        count: u64,
    ) -> LinearSource {
        LinearSource {
            next_addr: base.into().raw(),
            size,
            remaining: count,
        }
    }
}

impl TrafficSource for LinearSource {
    fn next(&mut self, _now: Time, _feedback: &Feedback<'_>) -> SourceStep {
        if self.remaining == 0 {
            return SourceStep::Done;
        }
        self.remaining -= 1;
        let addr = GlobalAddress::new(self.next_addr);
        self.next_addr += u64::from(self.size.bytes());
        SourceStep::Op(TraceOp::read(addr, self.size))
    }

    fn label(&self) -> &'static str {
        "linear"
    }
}

/// SplitMix64: the deterministic address-derivation hash behind
/// [`PointerChase`].
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pointer-chasing latency probe: `walkers` independent chains, each
/// deriving its next read address *deterministically from the completed
/// transaction* (a hash of the returned address), so every hop is a full
/// dependent round trip — the key diagnostic of the companion study
/// ("Demystifying the Characteristics of 3D-Stacked Memories", ISPASS
/// 2017). One walker measures unloaded latency; N walkers measure how far
/// memory-level parallelism hides it.
#[derive(Debug, Clone)]
pub struct PointerChase {
    map: AddressMap,
    vaults: Vec<VaultId>,
    size: PayloadSize,
    salt: u64,
    /// Reads still to issue, per walker.
    remaining: Vec<u64>,
    /// Ops derived and ready to issue: (walker, address).
    ready: VecDeque<(u16, Address)>,
    /// Issue-order index → walker, for ops in flight.
    in_flight: BTreeMap<u64, u16>,
    emitted: u64,
}

impl PointerChase {
    /// `walkers` chains of `hops` dependent reads each, of `size` bytes,
    /// confined to `vaults`; `seed` fixes every address.
    ///
    /// # Panics
    ///
    /// Panics if `walkers` or `hops` is zero, or `vaults` is empty or out
    /// of range.
    pub fn new(
        map: &AddressMap,
        vaults: &[VaultId],
        size: PayloadSize,
        walkers: u16,
        hops: u64,
        seed: u64,
    ) -> PointerChase {
        assert!(walkers > 0, "need at least one walker");
        assert!(hops > 0, "need at least one hop per walker");
        assert!(!vaults.is_empty(), "need at least one vault");
        let g = map.geometry();
        for v in vaults {
            assert!(v.0 < g.vaults, "vault out of range");
        }
        let mut chase = PointerChase {
            map: *map,
            vaults: vaults.to_vec(),
            size,
            salt: splitmix64(seed),
            remaining: vec![hops; usize::from(walkers)],
            ready: VecDeque::new(),
            in_flight: BTreeMap::new(),
            emitted: 0,
        };
        for w in 0..walkers {
            let start =
                chase.chase_addr(seed ^ (u64::from(w) + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            chase.ready.push_back((w, start));
        }
        chase
    }

    /// Maps a hash value into the chase's address set (vault subset, any
    /// bank/row, aligned to the request size).
    fn chase_addr(&self, h: u64) -> Address {
        let h = splitmix64(h);
        let g = self.map.geometry();
        let vault = self.vaults[(h % self.vaults.len() as u64) as usize];
        let bank = BankId(((h >> 17) % u64::from(g.banks_per_vault)) as u8);
        let row = (h >> 27) % self.map.rows_per_bank();
        let offset = aligned_offset(self.map.block_size().bytes(), self.size, |slots| {
            (h >> 7) % slots
        });
        self.map.encode(vault, bank, row, offset)
    }

    /// The next address of a chain whose last read returned from `addr`.
    fn follow(&self, addr: GlobalAddress) -> Address {
        self.chase_addr(addr.raw() ^ self.salt)
    }

    /// The exact address sequence a *single-walker* chase will issue —
    /// the chain is deterministic, so it can be unrolled into an
    /// equivalent open-loop [`Trace`] (used to cross-check that a
    /// closed-loop chase and its serial replay cost identical time).
    ///
    /// # Panics
    ///
    /// Panics on a multi-walker chase, whose interleaving depends on
    /// completion order.
    ///
    /// Kept public as the serial-replay oracle of `hmc-sim`'s
    /// `tests/full_system.rs`.
    pub fn unrolled_trace(&self) -> Trace {
        assert_eq!(
            self.remaining.len(),
            1,
            "only a single-walker chase unrolls deterministically"
        );
        let (_, mut addr) = *self.ready.front().expect("unstarted chase has a seed op");
        let mut ops = Vec::new();
        for _ in 0..self.remaining[0] {
            ops.push(TraceOp::read(addr, self.size));
            addr = self.follow(addr.into());
        }
        Trace::from_ops(ops)
    }
}

impl TrafficSource for PointerChase {
    fn next(&mut self, _now: Time, feedback: &Feedback<'_>) -> SourceStep {
        for c in feedback.completions {
            let Some(w) = self.in_flight.remove(&c.index) else {
                continue;
            };
            if self.remaining[usize::from(w)] > 0 {
                let next = self.follow(c.op.addr);
                self.ready.push_back((w, next));
            }
        }
        match self.ready.pop_front() {
            Some((w, addr)) => {
                self.remaining[usize::from(w)] -= 1;
                self.in_flight.insert(self.emitted, w);
                self.emitted += 1;
                SourceStep::Op(TraceOp::read(addr, self.size))
            }
            None if self.in_flight.is_empty() => SourceStep::Done,
            None => SourceStep::Blocked,
        }
    }

    fn label(&self) -> &'static str {
        "chase"
    }
}

/// NOM-style offload stream (Rezaei et al., "Network-On-Memory", 2020):
/// copies `blocks` blocks from a source vault to a destination vault as
/// paired read→dependent-write bursts. Each block is first read from the
/// source region; when the read data returns, the dependent write to the
/// same bank/row of the destination vault is issued; the pair retires when
/// the write completes. At most `window` pairs are in flight — the
/// host-mediated copy loop whose NoC round trips NOM's in-memory network
/// is designed to eliminate.
///
/// [`OffloadSource::between_cubes`] lifts the copy onto a memory network:
/// source and destination may live in *different cubes* of a
/// [`FabricAddressMap`]-described fabric, so every read returns from one
/// cube and its dependent write crosses the fabric to another — the
/// inter-cube transfer NOM proposes doing inside the memory network. The
/// port running such a stream must use
/// [`CubeTargeting::Addressed`](hmc_mapping::CubeTargeting) over the same
/// map.
#[derive(Debug, Clone)]
pub struct OffloadSource {
    map: AddressMap,
    /// How vault-local addresses embed into the fabric-global space (the
    /// identity map for the classic same-cube copy).
    fabric: FabricAddressMap,
    size: PayloadSize,
    src_cube: CubeId,
    dst_cube: CubeId,
    src: VaultId,
    dst: VaultId,
    blocks: u64,
    window: u16,
    issued_reads: u64,
    retired: u64,
    pending_writes: VecDeque<GlobalAddress>,
}

impl OffloadSource {
    /// A copy of `blocks` blocks of `size` bytes from `src` to `dst`
    /// within one cube, with at most `window` pairs outstanding.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` or `window` is zero or a vault is out of range.
    pub fn new(
        map: &AddressMap,
        src: VaultId,
        dst: VaultId,
        size: PayloadSize,
        blocks: u64,
        window: u16,
    ) -> OffloadSource {
        OffloadSource::between_cubes(
            map,
            FabricAddressMap::single(),
            (CubeId::HOST, src),
            (CubeId::HOST, dst),
            size,
            blocks,
            window,
        )
    }

    /// A copy of `blocks` blocks of `size` bytes from vault `src.1` of
    /// cube `src.0` to vault `dst.1` of cube `dst.0`, with at most
    /// `window` pairs outstanding. Addresses are emitted fabric-global
    /// through `fabric`, so the host derives each request's CUB field
    /// from the address itself.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` or `window` is zero, a vault is out of range,
    /// or a cube is outside `fabric`.
    pub fn between_cubes(
        map: &AddressMap,
        fabric: FabricAddressMap,
        src: (CubeId, VaultId),
        dst: (CubeId, VaultId),
        size: PayloadSize,
        blocks: u64,
        window: u16,
    ) -> OffloadSource {
        assert!(blocks > 0, "need at least one block to copy");
        assert!(window > 0, "need a nonzero copy window");
        let g = map.geometry();
        assert!(
            src.1 .0 < g.vaults && dst.1 .0 < g.vaults,
            "vault out of range"
        );
        assert!(
            src.0 .0 < fabric.cube_count() && dst.0 .0 < fabric.cube_count(),
            "copy endpoint cube outside the fabric"
        );
        OffloadSource {
            map: *map,
            fabric,
            size,
            src_cube: src.0,
            dst_cube: dst.0,
            src: src.1,
            dst: dst.1,
            blocks,
            window,
            issued_reads: 0,
            retired: 0,
            pending_writes: VecDeque::new(),
        }
    }

    /// Read address of block `i`: a linear walk through the source vault's
    /// banks, then rows, embedded at the source cube.
    fn read_addr(&self, i: u64) -> GlobalAddress {
        let g = self.map.geometry();
        let banks = u64::from(g.banks_per_vault);
        let bank = BankId((i % banks) as u8);
        let row = (i / banks) % self.map.rows_per_bank();
        self.fabric
            .join(self.src_cube, self.map.encode(self.src, bank, row, 0))
    }
}

impl TrafficSource for OffloadSource {
    fn next(&mut self, _now: Time, feedback: &Feedback<'_>) -> SourceStep {
        for c in feedback.completions {
            if c.op.kind.is_read() {
                // The read data arrived: the dependent write targets the
                // same bank/row in the destination vault — possibly in a
                // different cube, which is exactly the inter-cube copy.
                let (_, local) = self
                    .fabric
                    .split(c.op.addr)
                    .expect("completed read carried an in-fabric address");
                let loc = self.map.decode(local);
                let w = self
                    .map
                    .encode(self.dst, loc.bank, loc.block_row, loc.offset);
                self.pending_writes
                    .push_back(self.fabric.join(self.dst_cube, w));
            } else {
                self.retired += 1;
            }
        }
        if let Some(addr) = self.pending_writes.pop_front() {
            return SourceStep::Op(TraceOp::write(addr, self.size));
        }
        if self.issued_reads < self.blocks
            && self.issued_reads - self.retired < u64::from(self.window)
        {
            let addr = self.read_addr(self.issued_reads);
            self.issued_reads += 1;
            return SourceStep::Op(TraceOp::read(addr, self.size));
        }
        if self.retired == self.blocks {
            SourceStep::Done
        } else {
            SourceStep::Blocked
        }
    }

    fn label(&self) -> &'static str {
        "offload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_reads_in_vaults;

    fn map() -> AddressMap {
        AddressMap::hmc_gen2_default()
    }

    /// Drives a source to exhaustion with an immediate-completion loop,
    /// `outstanding_cap` requests in flight at most.
    fn drain(source: &mut dyn TrafficSource, outstanding_cap: usize, limit: usize) -> Vec<TraceOp> {
        let mut issued = Vec::new();
        let mut in_flight: VecDeque<Completion> = VecDeque::new();
        let mut index = 0u64;
        let mut fresh: Vec<Completion> = Vec::new();
        loop {
            let fb = Feedback {
                completions: &fresh,
                outstanding: in_flight.len() as u16,
            };
            let step = source.next(Time::ZERO, &fb);
            fresh.clear();
            match step {
                SourceStep::Op(op) => {
                    issued.push(op);
                    in_flight.push_back(Completion {
                        index,
                        op,
                        issued_at: Time::ZERO,
                        completed_at: Time::ZERO,
                    });
                    index += 1;
                    if in_flight.len() >= outstanding_cap {
                        fresh.push(in_flight.pop_front().unwrap());
                    }
                }
                SourceStep::Blocked => {
                    let c = in_flight
                        .pop_front()
                        .expect("blocked with nothing in flight");
                    fresh.push(c);
                }
                SourceStep::WaitUntil(_) => panic!("drain does not advance time"),
                SourceStep::Done => break,
            }
            assert!(issued.len() <= limit, "source never finished");
        }
        issued
    }

    #[test]
    fn trace_replay_streams_in_order_then_done() {
        let trace = random_reads_in_vaults(&map(), &[VaultId(3)], PayloadSize::B32, 10, 5);
        let mut replay = TraceReplay::new(trace.clone());
        let ops = drain(&mut replay, 4, 100);
        assert_eq!(ops, trace.ops());
        assert_eq!(replay.next(Time::ZERO, &Feedback::EMPTY), SourceStep::Done);
    }

    #[test]
    fn uniform_source_matches_the_eager_generator() {
        let m = map();
        let vaults = [VaultId(1), VaultId(9)];
        let eager = random_reads_in_vaults(&m, &vaults, PayloadSize::B64, 64, 77);
        let mut lazy = UniformSource::reads_in_vaults(&m, &vaults, PayloadSize::B64, 64, 77);
        let ops = drain(&mut lazy, 8, 100);
        assert_eq!(ops, eager.ops(), "lazy and eager draws must be identical");
        assert!(!lazy.duration_gated(), "uniform runs to exhaustion");
    }

    #[test]
    fn linear_source_walks_sequentially() {
        let mut src = LinearSource::new(Address::new(0x400), PayloadSize::B128, 4);
        let ops = drain(&mut src, 2, 10);
        let addrs: Vec<u64> = ops.iter().map(|op| op.addr.raw()).collect();
        assert_eq!(addrs, vec![0x400, 0x480, 0x500, 0x580]);
    }

    #[test]
    fn gups_source_filters_and_aligns() {
        let m = map();
        let filter = hmc_mapping::AccessPattern::Vaults { count: 2 }.filter(&m);
        let mut src = GupsSource::new(filter, GupsOp::Read(PayloadSize::B64), 3);
        assert!(src.duration_gated());
        assert_eq!(src.rx_extra_flits(), 0);
        for _ in 0..64 {
            let SourceStep::Op(op) = src.next(Time::ZERO, &Feedback::EMPTY) else {
                panic!("GUPS always has a next op");
            };
            assert_eq!(op.addr.raw() % 64, 0, "aligned");
            assert!(m.decode(op.addr.local_unchecked()).vault.0 < 2, "filtered");
        }
    }

    #[test]
    fn single_walker_chase_is_strictly_serial_and_deterministic() {
        let m = map();
        let vaults: Vec<VaultId> = (0..16).map(VaultId).collect();
        let mk = || PointerChase::new(&m, &vaults, PayloadSize::B64, 1, 20, 42);
        let expected = mk().unrolled_trace();
        let mut chase = mk();
        let ops = drain(&mut chase, 1, 100);
        assert_eq!(ops.len(), 20);
        assert_eq!(ops, expected.ops(), "chase follows its unrolled trace");
        // Every hop depends on the previous: with one walker the source
        // must block after each op.
        let mut chase = mk();
        assert!(matches!(
            chase.next(Time::ZERO, &Feedback::EMPTY),
            SourceStep::Op(_)
        ));
        assert_eq!(
            chase.next(Time::ZERO, &Feedback::EMPTY),
            SourceStep::Blocked
        );
    }

    #[test]
    fn chase_addresses_stay_in_the_vault_subset_and_aligned() {
        let m = map();
        let vaults = [VaultId(2), VaultId(5)];
        let mut chase = PointerChase::new(&m, &vaults, PayloadSize::B32, 4, 25, 9);
        let ops = drain(&mut chase, 4, 1000);
        assert_eq!(ops.len(), 100, "4 walkers x 25 hops");
        for op in &ops {
            let v = m.decode(op.addr.local_unchecked()).vault;
            assert!(vaults.contains(&v), "address escaped the vault subset");
            assert_eq!(op.addr.raw() % 32, 0, "aligned to request size");
        }
        // The walk must not collapse onto a few addresses.
        let distinct: std::collections::BTreeSet<u64> =
            ops.iter().map(|op| op.addr.raw()).collect();
        assert!(distinct.len() > 90, "chase addresses look degenerate");
    }

    #[test]
    fn offload_pairs_every_read_with_a_dependent_write() {
        let m = map();
        let mut src = OffloadSource::new(&m, VaultId(0), VaultId(8), PayloadSize::B128, 30, 4);
        let ops = drain(&mut src, 4, 1000);
        assert_eq!(ops.len(), 60, "30 reads + 30 writes");
        assert_eq!(src.retired, 30);
        let reads: Vec<&TraceOp> = ops.iter().filter(|op| op.kind.is_read()).collect();
        let writes: Vec<&TraceOp> = ops.iter().filter(|op| !op.kind.is_read()).collect();
        assert_eq!(reads.len(), 30);
        assert_eq!(writes.len(), 30);
        for (r, w) in reads.iter().zip(&writes) {
            let rl = m.decode(r.addr.local_unchecked());
            let wl = m.decode(w.addr.local_unchecked());
            assert_eq!(rl.vault, VaultId(0));
            assert_eq!(wl.vault, VaultId(8));
            assert_eq!(
                (rl.bank, rl.block_row),
                (wl.bank, wl.block_row),
                "write mirrors its read's bank/row"
            );
        }
    }

    #[test]
    fn offload_window_bounds_outstanding_pairs() {
        let m = map();
        let mut src = OffloadSource::new(&m, VaultId(0), VaultId(1), PayloadSize::B64, 100, 3);
        // Pull without completing anything: exactly `window` reads, then
        // blocked.
        for _ in 0..3 {
            assert!(matches!(
                src.next(Time::ZERO, &Feedback::EMPTY),
                SourceStep::Op(op) if op.kind.is_read()
            ));
        }
        assert_eq!(src.next(Time::ZERO, &Feedback::EMPTY), SourceStep::Blocked);
    }

    #[test]
    fn source_factory_builds_per_seed() {
        let factory = source_factory(|seed| {
            Box::new(LinearSource::new(
                Address::new(seed * 0x1000),
                PayloadSize::B16,
                1,
            )) as Box<dyn TrafficSource>
        });
        let mut a = factory(1);
        let mut b = factory(2);
        let SourceStep::Op(op_a) = a.next(Time::ZERO, &Feedback::EMPTY) else {
            panic!()
        };
        let SourceStep::Op(op_b) = b.next(Time::ZERO, &Feedback::EMPTY) else {
            panic!()
        };
        assert_eq!(op_a.addr.raw(), 0x1000);
        assert_eq!(op_b.addr.raw(), 0x2000);
    }
}
