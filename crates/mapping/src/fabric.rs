//! The fabric-global address space: deriving the CUB field from the
//! address.
//!
//! A single HMC request header addresses 34 bits (16 GB) inside one cube;
//! a memory network of up to 64 cubes (the widened 6-bit CUB field —
//! see `DESIGN_CUB64.md`) spans a larger *global* space, and real
//! chained deployments place the cube-select bits inside the
//! physical address so one request stream can exercise every cube
//! (Hadidi et al., "Demystifying the Characteristics of 3D-Stacked
//! Memories", ISPASS 2017). [`FabricAddressMap`] is that bit-field
//! contract: it splits a [`GlobalAddress`] into `(CubeId, Address)` under
//! one of two policies and rejects out-of-range values loudly — the
//! checked boundary that replaces the silent 34-bit wrap of
//! [`Address::new`]. The one deliberate exception: under the
//! *interleaved* policy on a non-power-of-two cube count, cube-field
//! values above the count are *redrawn* (folded modulo the count)
//! instead of rejected, so uniform workloads can use the whole
//! power-of-two window.

use core::fmt;

use hmc_packet::{Address, CubeId, GlobalAddress};

use crate::map::AddressMap;

/// Where the cube-select bits sit inside a global address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CubePolicy {
    /// Cube bits above the whole in-cube field: cube `c` owns the
    /// contiguous range `[c·2³⁴, (c+1)·2³⁴)`. A linear walk stays inside
    /// one cube until it exhausts it.
    Blocked,
    /// Cube bits directly above the block offset: consecutive blocks
    /// round-robin the cubes, so any dense footprint spreads across every
    /// cube's vaults (and every request pays the fabric's hop structure).
    Interleaved,
}

impl CubePolicy {
    /// A lowercase label for tables and error messages.
    pub fn label(self) -> &'static str {
        match self {
            CubePolicy::Blocked => "blocked",
            CubePolicy::Interleaved => "interleaved",
        }
    }
}

impl fmt::Display for CubePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from [`FabricAddressMap::split`]: the global address does not
/// map into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitError {
    /// The derived cube field names a cube the fabric does not have
    /// (blocked policy only — the interleaved policy redraws instead).
    CubeOutOfRange {
        /// The offending address.
        addr: GlobalAddress,
        /// The cube the address named.
        cube: u8,
        /// Cubes actually present.
        cubes: u8,
    },
    /// Bits above the fabric's global capacity are set — under the old
    /// unchecked path these would have wrapped into cube 0.
    AboveCapacity {
        /// The offending address.
        addr: GlobalAddress,
        /// Number of addressable global bits.
        bits: u32,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SplitError::CubeOutOfRange { addr, cube, cubes } => write!(
                f,
                "global address {addr} selects cube{cube}, but the fabric has {cubes} cube(s)"
            ),
            SplitError::AboveCapacity { addr, bits } => write!(
                f,
                "global address {addr} exceeds the fabric's {bits}-bit address space \
                 (it would silently alias into cube 0)"
            ),
        }
    }
}

impl std::error::Error for SplitError {}

/// The bit-field map of a fabric-global address space: how a
/// [`GlobalAddress`] splits into the CUB field and the 34-bit in-cube
/// address, and how the pair joins back.
///
/// Field order under each policy, least-significant first (`b` =
/// `cube_bits()`, 34 = [`Address::BITS`]):
///
/// ```text
/// blocked:      | in-cube address (34) | cube (b) |
/// interleaved:  | block offset | cube (b) | rest of in-cube address |
/// ```
///
/// With one cube both policies degenerate to the identity map (zero cube
/// bits), which is exactly the old static single-cube behavior.
///
/// `split ∘ join` is the identity for every in-range pair, and `split`
/// *rejects* every address that sets bits above the global capacity —
/// the loud replacement for [`Address::new`]'s silent wrap. A cube-field
/// value naming a missing cube is rejected under the blocked policy; the
/// interleaved policy *redraws* it (folds it modulo the cube count) so a
/// non-power-of-two fabric still serves the whole power-of-two window —
/// the fold deterministically double-weights the lowest cubes, which the
/// per-cube completion report makes visible.
///
/// # Examples
///
/// ```
/// use hmc_mapping::{AddressMap, CubePolicy, FabricAddressMap};
/// use hmc_packet::{Address, CubeId};
///
/// let map = AddressMap::hmc_gen2_default();
/// let blocked = FabricAddressMap::new(CubePolicy::Blocked, 4, &map);
/// let (cube, local) = blocked.split((3u64 << 34 | 0x80).into()).unwrap();
/// assert_eq!((cube, local.raw()), (CubeId(3), 0x80));
///
/// // Interleaved: consecutive 128 B blocks round-robin the cubes.
/// let il = FabricAddressMap::new(CubePolicy::Interleaved, 4, &map);
/// let (c0, _) = il.split(0u64.into()).unwrap();
/// let (c1, _) = il.split(128u64.into()).unwrap();
/// assert_eq!((c0, c1), (CubeId(0), CubeId(1)));
///
/// // Out-of-range addresses error instead of aliasing into cube 0.
/// assert!(blocked.split((7u64 << 34).into()).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricAddressMap {
    policy: CubePolicy,
    cubes: u8,
    /// Lowest bit of the cube field.
    cube_shift: u32,
}

impl FabricAddressMap {
    /// Creates the map for `cubes` cubes whose in-cube layout is `map`
    /// (the interleaved policy places the cube bits directly above its
    /// block offset).
    ///
    /// # Panics
    ///
    /// Panics if `cubes` is zero or above 64 (the widened CUB field is
    /// 6 bits — see `DESIGN_CUB64.md`).
    pub fn new(policy: CubePolicy, cubes: u8, map: &AddressMap) -> FabricAddressMap {
        assert!(cubes >= 1, "a fabric needs at least one cube");
        assert!(
            usize::from(cubes) <= CubeId::MAX_CUBES,
            "the 6-bit CUB field addresses at most 64 cubes"
        );
        let cube_shift = match policy {
            CubePolicy::Blocked => Address::BITS,
            CubePolicy::Interleaved => map.block_size().offset_bits(),
        };
        FabricAddressMap {
            policy,
            cubes,
            cube_shift,
        }
    }

    /// The degenerate single-cube map: the identity split every
    /// pre-fabric workload implicitly used.
    pub fn single() -> FabricAddressMap {
        FabricAddressMap {
            policy: CubePolicy::Blocked,
            cubes: 1,
            cube_shift: Address::BITS,
        }
    }

    /// Number of cubes this map addresses.
    #[inline]
    pub fn cube_count(&self) -> u8 {
        self.cubes
    }

    /// Width of the cube field: enough bits for the cube count (zero for
    /// a single cube — the degenerate identity map).
    #[inline]
    pub fn cube_bits(&self) -> u32 {
        u8::BITS - (self.cubes - 1).leading_zeros()
    }

    /// Number of addressable global bits (34 in-cube bits plus the cube
    /// field).
    #[inline]
    pub fn global_bits(&self) -> u32 {
        Address::BITS + self.cube_bits()
    }

    /// `true` if an aligned power-of-two request of `bytes` can target
    /// *every* cube of this map. Under the interleaved policy the cube
    /// bits sit directly above the block offset, so aligning a generated
    /// global address to a request *larger* than the block zeroes part of
    /// the cube field — a silent skew that pins traffic to a subset of
    /// cubes. Generators that align raw global draws must check this.
    #[inline]
    pub fn fits_aligned_requests(&self, bytes: u32) -> bool {
        self.cube_shift >= 63 || u64::from(bytes) <= 1u64 << self.cube_shift
    }

    /// `true` if *every* address of a power-of-two window of
    /// `window_bytes` splits successfully under this map — i.e. the
    /// window stays within the global capacity and every cube-field value
    /// it can produce maps to a real cube. Generators that draw uniformly
    /// from a window must check this at construction: a window that fails
    /// it makes some draws hit [`FabricAddressMap::split`]'s errors
    /// mid-run. Under the interleaved policy every in-capacity window
    /// splits — out-of-range cube-field values are redrawn, not
    /// rejected — so only the blocked policy can fail on a sparse cube
    /// field (non-power-of-two cube count).
    pub fn splits_whole_window(&self, window_bytes: u64) -> bool {
        assert!(
            window_bytes.is_power_of_two(),
            "window must be a power of two"
        );
        let top = window_bytes - 1;
        if self.global_bits() < 64 && top >> self.global_bits() != 0 {
            return false;
        }
        match self.policy {
            // The redraw fold maps every cube-field value in range.
            CubePolicy::Interleaved => true,
            CubePolicy::Blocked => {
                // For a power-of-two window, `top` has every in-window bit
                // set, so this is the largest cube-field value a draw can
                // produce.
                let b = self.cube_bits();
                let field_top = (top >> self.cube_shift.min(63)) & ((1u64 << b) - 1);
                field_top < u64::from(self.cubes)
            }
        }
    }

    /// Splits a global address into its destination cube and in-cube
    /// address — the operation the host performs to stamp the CUB field.
    ///
    /// # Errors
    ///
    /// Returns a [`SplitError`] if the address sets bits above the global
    /// capacity, or (blocked policy only) names a cube the fabric does
    /// not have. Both cases are exactly the values [`Address::new`] used
    /// to wrap silently. Under the interleaved policy an out-of-range
    /// cube field is *redrawn* — folded modulo the cube count — so
    /// non-power-of-two fabrics serve the whole power-of-two window.
    pub fn split(&self, addr: GlobalAddress) -> Result<(CubeId, Address), SplitError> {
        let raw = addr.raw();
        let b = self.cube_bits();
        if raw >> self.global_bits() != 0 {
            return Err(SplitError::AboveCapacity {
                addr,
                bits: self.global_bits(),
            });
        }
        let mut cube = if b == 0 {
            0
        } else {
            ((raw >> self.cube_shift) & ((1u64 << b) - 1)) as u8
        };
        if cube >= self.cubes {
            match self.policy {
                // Deterministic fold: values `cubes..2^b` redraw onto the
                // low cubes (skewing them — visible in per-cube reports).
                CubePolicy::Interleaved => cube %= self.cubes,
                CubePolicy::Blocked => {
                    return Err(SplitError::CubeOutOfRange {
                        addr,
                        cube,
                        cubes: self.cubes,
                    });
                }
            }
        }
        let low = raw & ((1u64 << self.cube_shift) - 1);
        let high = raw >> (self.cube_shift + b);
        let local = Address::try_new((high << self.cube_shift) | low)
            .expect("capacity check bounds the recombined local address to 34 bits");
        Ok((CubeId(cube), local))
    }

    /// Joins a cube and in-cube address back into the global address.
    /// Inverse of [`FabricAddressMap::split`] for in-range pairs.
    ///
    /// # Panics
    ///
    /// Panics if `cube` is outside the fabric.
    pub fn join(&self, cube: CubeId, local: Address) -> GlobalAddress {
        assert!(
            cube.0 < self.cubes,
            "{cube} outside the {}-cube fabric",
            self.cubes
        );
        let raw = local.raw();
        let low = raw & ((1u64 << self.cube_shift) - 1);
        let high = raw >> self.cube_shift;
        let b = self.cube_bits();
        GlobalAddress::new(
            (high << (self.cube_shift + b)) | (u64::from(cube.0) << self.cube_shift) | low,
        )
    }
}

/// How a port's host logic derives the CUB field for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CubeTargeting {
    /// Every request targets one statically configured cube; the
    /// workload's address is taken as the in-cube address (masked to 34
    /// bits, the HMC header semantics). This is the pre-fabric behavior
    /// and the degenerate single-cube map.
    Fixed(CubeId),
    /// The CUB field is derived from the workload's *global* address by
    /// the map's checked split; out-of-range addresses are a workload
    /// bug and fail loudly instead of aliasing into cube 0.
    Addressed(FabricAddressMap),
}

impl CubeTargeting {
    /// The statically targeted cube, if this targeting is fixed.
    pub fn fixed_cube(&self) -> Option<CubeId> {
        match *self {
            CubeTargeting::Fixed(cube) => Some(cube),
            CubeTargeting::Addressed(_) => None,
        }
    }

    /// Resolves one workload address to `(cube, in-cube address)`.
    ///
    /// # Errors
    ///
    /// Returns a [`SplitError`] for addressed targeting when the global
    /// address does not map into the fabric. Fixed targeting never fails.
    pub fn resolve(&self, addr: GlobalAddress) -> Result<(CubeId, Address), SplitError> {
        match *self {
            CubeTargeting::Fixed(cube) => Ok((cube, addr.local_unchecked())),
            CubeTargeting::Addressed(map) => map.split(addr),
        }
    }
}

impl Default for CubeTargeting {
    fn default() -> CubeTargeting {
        CubeTargeting::Fixed(CubeId::HOST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::hmc_gen2_default()
    }

    #[test]
    fn blocked_split_reads_high_bits() {
        let m = FabricAddressMap::new(CubePolicy::Blocked, 8, &map());
        assert_eq!(m.cube_bits(), 3);
        assert_eq!(m.global_bits(), 37);
        for cube in 0..8u8 {
            for local in [0u64, 0x80, Address::MASK] {
                let g = GlobalAddress::new((u64::from(cube) << 34) | local);
                let (c, a) = m.split(g).unwrap();
                assert_eq!(c, CubeId(cube));
                assert_eq!(a.raw(), local);
                assert_eq!(m.join(c, a), g, "join inverts split");
            }
        }
    }

    #[test]
    fn interleaved_round_robins_blocks_across_cubes() {
        let m = FabricAddressMap::new(CubePolicy::Interleaved, 4, &map());
        // 128 B blocks: cube bits at [7..9).
        let mut cubes = Vec::new();
        for block in 0..8u64 {
            let (c, local) = m.split(GlobalAddress::new(block * 128)).unwrap();
            cubes.push(c.0);
            // Per-cube, the dense walk advances one block every 4 global
            // blocks.
            assert_eq!(local.raw(), (block / 4) * 128);
        }
        assert_eq!(cubes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn split_join_roundtrip_under_both_policies() {
        for policy in [CubePolicy::Blocked, CubePolicy::Interleaved] {
            for cubes in [1u8, 2, 3, 5, 8, 16, 33, 64] {
                let m = FabricAddressMap::new(policy, cubes, &map());
                for cube in 0..cubes {
                    for local in [0u64, 0x7F, 0x1234_5678, Address::MASK] {
                        let a = Address::new(local);
                        let g = m.join(CubeId(cube), a);
                        assert_eq!(
                            m.split(g).unwrap(),
                            (CubeId(cube), a),
                            "{policy} {cubes} cubes"
                        );
                    }
                }
            }
        }
    }

    /// The regression the issue demands: on a 5-cube fabric, a global
    /// address that names cube 5..7 (or sets higher bits) must *error*,
    /// where the old `Address::new` path silently wrapped it into cube 0.
    #[test]
    fn five_cube_out_of_range_address_errors_instead_of_aliasing() {
        let blocked = FabricAddressMap::new(CubePolicy::Blocked, 5, &map());
        let bad = GlobalAddress::new(6u64 << 34 | 0x80);
        match blocked.split(bad) {
            Err(SplitError::CubeOutOfRange { cube, cubes, .. }) => {
                assert_eq!((cube, cubes), (6, 5));
            }
            other => panic!("expected CubeOutOfRange, got {other:?}"),
        }
        // The trap this replaces: the silent mask lands the address in
        // cube 0's space at offset 0x80.
        assert_eq!(Address::new(bad.raw()).raw(), 0x80);

        // Bits above the 37-bit global capacity are equally loud.
        let way_out = GlobalAddress::new(1u64 << 40);
        assert!(matches!(
            blocked.split(way_out),
            Err(SplitError::AboveCapacity { bits: 37, .. })
        ));

        let msg = blocked.split(bad).unwrap_err().to_string();
        assert!(msg.contains("cube6"), "{msg}");
    }

    /// The non-power-of-two follow-up: on a 5-cube *interleaved* map,
    /// cube-field values 5..7 redraw (fold modulo 5) instead of
    /// rejecting, so the whole 37-bit window is servable.
    #[test]
    fn five_cube_interleaved_redraws_instead_of_rejecting() {
        let il = FabricAddressMap::new(CubePolicy::Interleaved, 5, &map());
        assert_eq!(il.cube_bits(), 3);
        // 128 B blocks: cube bits at [7..10). Field values 5, 6, 7 fold
        // onto cubes 0, 1, 2; the local address is unchanged by the fold.
        for (field, folded) in [(5u64, 0u8), (6, 1), (7, 2)] {
            let g = GlobalAddress::new(field << 7 | 0x40);
            let (c, local) = il.split(g).unwrap();
            assert_eq!(c, CubeId(folded), "field {field}");
            assert_eq!(local.raw(), 0x40);
        }
        // In-range fields are untouched, so split ∘ join stays the
        // identity.
        for cube in 0..5u8 {
            let a = Address::new(0x1234_5680);
            assert_eq!(
                il.split(il.join(CubeId(cube), a)).unwrap(),
                (CubeId(cube), a)
            );
        }
        // The full window now splits; capacity violations stay loud.
        assert!(il.splits_whole_window(1 << 37));
        assert!(matches!(
            il.split(GlobalAddress::new(1 << 40)),
            Err(SplitError::AboveCapacity { bits: 37, .. })
        ));
        // Blocked keeps the reject: a linear walk crossing into a
        // missing cube's block is a workload bug, not a redraw.
        let blocked = FabricAddressMap::new(CubePolicy::Blocked, 5, &map());
        assert!(matches!(
            blocked.split(GlobalAddress::new(5u64 << 34)),
            Err(SplitError::CubeOutOfRange {
                cube: 5,
                cubes: 5,
                ..
            })
        ));
    }

    #[test]
    fn single_cube_map_is_the_identity() {
        let m = FabricAddressMap::single();
        assert_eq!(m.cube_bits(), 0);
        assert_eq!(m.global_bits(), 34);
        let (c, a) = m.split(GlobalAddress::new(0x3_0000_0080)).unwrap();
        assert_eq!(c, CubeId::HOST);
        assert_eq!(a.raw(), 0x3_0000_0080);
        assert!(m.split(GlobalAddress::new(1 << 34)).is_err());
        assert_eq!(m.join(CubeId::HOST, Address::new(42)).raw(), 42);
    }

    #[test]
    fn targeting_resolution() {
        let fixed = CubeTargeting::Fixed(CubeId(3));
        assert_eq!(fixed.fixed_cube(), Some(CubeId(3)));
        // Fixed targeting keeps the HMC header mask semantics.
        let (c, a) = fixed.resolve(GlobalAddress::new(1 << 34 | 0x40)).unwrap();
        assert_eq!((c, a.raw()), (CubeId(3), 0x40));

        let addressed =
            CubeTargeting::Addressed(FabricAddressMap::new(CubePolicy::Blocked, 4, &map()));
        assert_eq!(addressed.fixed_cube(), None);
        let (c, a) = addressed
            .resolve(GlobalAddress::new(2u64 << 34 | 0x40))
            .unwrap();
        assert_eq!((c, a.raw()), (CubeId(2), 0x40));
        assert!(addressed.resolve(GlobalAddress::new(1 << 40)).is_err());
        assert_eq!(CubeTargeting::default(), CubeTargeting::Fixed(CubeId::HOST));
    }

    #[test]
    fn aligned_request_fit_tracks_the_cube_shift() {
        use crate::map::BlockSize;
        use crate::Geometry;

        // Blocked: cube bits sit above the whole in-cube field, so any
        // request size fits.
        let blocked = FabricAddressMap::new(CubePolicy::Blocked, 4, &map());
        assert!(blocked.fits_aligned_requests(128));
        // Interleaved over 128 B blocks: up to 128 B requests fit.
        let il128 = FabricAddressMap::new(CubePolicy::Interleaved, 4, &map());
        assert!(il128.fits_aligned_requests(128));
        assert!(!il128.fits_aligned_requests(256));
        // Interleaved over 64 B blocks: a 128 B-aligned draw would zero
        // the lowest cube bit — the silent skew the check rejects.
        let m64 = AddressMap::new(Geometry::hmc_gen2(), BlockSize::B64);
        let il64 = FabricAddressMap::new(CubePolicy::Interleaved, 2, &m64);
        assert!(il64.fits_aligned_requests(64));
        assert!(!il64.fits_aligned_requests(128));
    }

    #[test]
    fn whole_window_splitting_tracks_capacity_and_cube_density() {
        // Blocked, 4 cubes: 36 global bits. One-cube and full windows
        // split; anything above capacity does not.
        let m = FabricAddressMap::new(CubePolicy::Blocked, 4, &map());
        assert!(m.splits_whole_window(1 << 34));
        assert!(m.splits_whole_window(1 << 36));
        assert!(!m.splits_whole_window(1 << 37));
        // Blocked, 5 cubes: a window reaching the cube field draws
        // values 5..7, which name missing cubes — mid-run split errors,
        // rejected up front instead.
        let five = FabricAddressMap::new(CubePolicy::Blocked, 5, &map());
        assert!(five.splits_whole_window(1 << 34), "below the cube field");
        assert!(!five.splits_whole_window(1 << 37), "sparse cube field");
        // Interleaved, 5 cubes: out-of-range fields redraw, so any
        // in-capacity window splits.
        let il5 = FabricAddressMap::new(CubePolicy::Interleaved, 5, &map());
        assert!(il5.splits_whole_window(1 << 7), "one block, cube 0 only");
        assert!(il5.splits_whole_window(1 << 34), "redraw covers the field");
        assert!(!il5.splits_whole_window(1 << 38), "capacity still gates");
        // Power-of-two counts are dense: the full window always splits.
        for cubes in [1u8, 2, 4, 8] {
            for policy in [CubePolicy::Blocked, CubePolicy::Interleaved] {
                let m = FabricAddressMap::new(policy, cubes, &map());
                assert!(
                    m.splits_whole_window(1u64 << m.global_bits()),
                    "{policy} {cubes}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn join_rejects_missing_cubes() {
        let m = FabricAddressMap::new(CubePolicy::Blocked, 2, &map());
        let _ = m.join(CubeId(2), Address::new(0));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn cube_count_is_capped_by_the_cub_field() {
        let _ = FabricAddressMap::new(CubePolicy::Blocked, 65, &map());
    }
}
