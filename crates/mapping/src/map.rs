//! The low-order-interleaved address map of Figure 3.

use core::fmt;

use hmc_packet::Address;

use crate::geometry::{BankId, Geometry, QuadrantId, VaultId};

/// The device's *maximum block size* configuration, which fixes the address
/// map (Figure 3 shows the 128 B configuration). Sequential blocks
/// interleave first across the vaults of a quadrant, then across quadrants,
/// then across banks within a vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockSize {
    /// 16 B blocks.
    B16,
    /// 32 B blocks.
    B32,
    /// 64 B blocks.
    B64,
    /// 128 B blocks — the configuration the paper (and Figure 3) uses.
    B128,
}

impl BlockSize {
    /// Block size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            BlockSize::B16 => 16,
            BlockSize::B32 => 32,
            BlockSize::B64 => 64,
            BlockSize::B128 => 128,
        }
    }

    /// Number of low address bits covered by the in-block offset.
    #[inline]
    pub const fn offset_bits(self) -> u32 {
        self.bytes().trailing_zeros()
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B-block", self.bytes())
    }
}

/// Where an address lands inside the cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// The owning vault.
    pub vault: VaultId,
    /// The owning quadrant (derived from the vault, carried for convenience).
    pub quadrant: QuadrantId,
    /// The bank within the vault.
    pub bank: BankId,
    /// The block row: all address bits above the bank field. Two addresses
    /// with equal `(vault, bank, block_row)` share a DRAM row set.
    pub block_row: u64,
    /// Byte offset within the block.
    pub offset: u64,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{} row {} +{}",
            self.quadrant, self.vault, self.bank, self.block_row, self.offset
        )
    }
}

/// The bit-field layout of Figure 3 for a given geometry and block size.
///
/// Field order, least-significant first:
///
/// ```text
/// | offset | vault-in-quadrant | quadrant | bank | block row | ignored |
/// ```
///
/// # Examples
///
/// ```
/// use hmc_mapping::{AddressMap, BlockSize, Geometry};
/// use hmc_packet::Address;
///
/// let map = AddressMap::new(Geometry::hmc_gen2(), BlockSize::B128);
/// // Consecutive 128 B blocks land in consecutive vaults.
/// let a = map.decode(Address::new(0));
/// let b = map.decode(Address::new(128));
/// assert_eq!(a.vault.0, 0);
/// assert_eq!(b.vault.0, 1);
/// assert_eq!(a.bank, b.bank);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    geometry: Geometry,
    block: BlockSize,
}

impl AddressMap {
    /// Creates the map for `geometry` at maximum block size `block`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`Geometry::validate`].
    pub fn new(geometry: Geometry, block: BlockSize) -> AddressMap {
        geometry.validate().expect("valid geometry");
        AddressMap { geometry, block }
    }

    /// The paper's configuration: 4 GB HMC 1.1 with 128 B max block size.
    pub fn hmc_gen2_default() -> AddressMap {
        AddressMap::new(Geometry::hmc_gen2(), BlockSize::B128)
    }

    /// The geometry this map addresses.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The configured maximum block size.
    #[inline]
    pub fn block_size(&self) -> BlockSize {
        self.block
    }

    /// Lowest bit of the vault field (== number of offset bits).
    #[inline]
    pub(crate) fn vault_shift(&self) -> u32 {
        self.block.offset_bits()
    }

    /// Width of the whole vault field (vault-in-quadrant + quadrant bits).
    #[inline]
    pub(crate) fn vault_bits(&self) -> u32 {
        u32::from(self.geometry.vaults).trailing_zeros()
    }

    /// Lowest bit of the bank field.
    #[inline]
    pub(crate) fn bank_shift(&self) -> u32 {
        self.vault_shift() + self.vault_bits()
    }

    /// Width of the bank field.
    #[inline]
    pub(crate) fn bank_bits(&self) -> u32 {
        u32::from(self.geometry.banks_per_vault).trailing_zeros()
    }

    /// Lowest bit of the block-row field.
    #[inline]
    pub(crate) fn row_shift(&self) -> u32 {
        self.bank_shift() + self.bank_bits()
    }

    /// Splits an address into its cube location.
    pub fn decode(&self, addr: Address) -> Location {
        let a = addr.raw() & (self.geometry.total_bytes() - 1);
        let offset = a & (self.block.bytes() - 1);
        let vault = (a >> self.vault_shift()) & (u64::from(self.geometry.vaults) - 1);
        let bank = (a >> self.bank_shift()) & (u64::from(self.geometry.banks_per_vault) - 1);
        let block_row = a >> self.row_shift();
        let vault = VaultId(vault as u8);
        Location {
            vault,
            quadrant: self.geometry.quadrant_of(vault),
            bank: BankId(bank as u8),
            block_row,
            offset,
        }
    }

    /// Rebuilds the address for a location. Inverse of [`AddressMap::decode`]
    /// for in-range locations.
    ///
    /// # Panics
    ///
    /// Panics if the vault, bank, offset or block row exceed the geometry.
    pub fn encode(&self, vault: VaultId, bank: BankId, block_row: u64, offset: u64) -> Address {
        assert!(vault.0 < self.geometry.vaults, "vault out of range");
        assert!(bank.0 < self.geometry.banks_per_vault, "bank out of range");
        assert!(offset < self.block.bytes(), "offset exceeds block size");
        let rows = self.geometry.total_bytes() >> self.row_shift();
        assert!(block_row < rows, "block row exceeds capacity");
        let a = (block_row << self.row_shift())
            | (u64::from(bank.0) << self.bank_shift())
            | (u64::from(vault.0) << self.vault_shift())
            | offset;
        Address::new(a)
    }

    /// The number of distinct block rows per (vault, bank) pair.
    pub fn rows_per_bank(&self) -> u64 {
        self.geometry.total_bytes() >> self.row_shift()
    }

    /// Decodes the footprint of one OS page: which (vault, bank) pairs the
    /// page's blocks land in, in block order.
    ///
    /// Section II-A: with 128 B blocks a 4 KB page maps to two banks over
    /// all 16 vaults, so serial accesses exploit bank-level parallelism.
    pub fn page_footprint(&self, page_base: Address, page_bytes: u64) -> Vec<Location> {
        let base = page_base.align_down(page_bytes).raw();
        let blocks = page_bytes / self.block.bytes();
        (0..blocks)
            .map(|i| self.decode(Address::new(base + i * self.block.bytes())))
            .collect()
    }
}

impl Default for AddressMap {
    fn default() -> AddressMap {
        AddressMap::hmc_gen2_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn map128() -> AddressMap {
        AddressMap::hmc_gen2_default()
    }

    #[test]
    fn figure_3_field_positions_for_128b_blocks() {
        let m = map128();
        assert_eq!(m.vault_shift(), 7);
        assert_eq!(m.vault_bits(), 4);
        assert_eq!(m.bank_shift(), 11);
        assert_eq!(m.bank_bits(), 4);
        assert_eq!(m.row_shift(), 15);
    }

    #[test]
    fn sequential_blocks_interleave_vaults_first() {
        let m = map128();
        // Blocks 0..16 hit vaults 0..16 in order, same bank.
        for i in 0..16u64 {
            let loc = m.decode(Address::new(i * 128));
            assert_eq!(loc.vault, VaultId(i as u8));
            assert_eq!(loc.bank, BankId(0));
        }
        // Block 16 wraps to vault 0, bank 1.
        let loc = m.decode(Address::new(16 * 128));
        assert_eq!(loc.vault, VaultId(0));
        assert_eq!(loc.bank, BankId(1));
    }

    #[test]
    fn vault_in_quadrant_is_low_subfield() {
        let m = map128();
        // Vaults 0..4 are quadrant 0; the quadrant field sits above the
        // vault-in-quadrant field.
        for v in 0..16u8 {
            let addr = m.encode(VaultId(v), BankId(0), 0, 0);
            let loc = m.decode(addr);
            assert_eq!(loc.quadrant, QuadrantId(v / 4));
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = map128();
        for v in [0u8, 3, 7, 15] {
            for b in [0u8, 1, 8, 15] {
                for row in [0u64, 1, 1000, m.rows_per_bank() - 1] {
                    for off in [0u64, 1, 127] {
                        let addr = m.encode(VaultId(v), BankId(b), row, off);
                        let loc = m.decode(addr);
                        assert_eq!(loc.vault, VaultId(v));
                        assert_eq!(loc.bank, BankId(b));
                        assert_eq!(loc.block_row, row);
                        assert_eq!(loc.offset, off);
                    }
                }
            }
        }
    }

    #[test]
    fn page_maps_to_two_banks_over_all_16_vaults() {
        // Section II-A's key claim about Figure 3.
        let m = map128();
        let footprint = m.page_footprint(Address::new(0x40_0000), 4096);
        assert_eq!(footprint.len(), 32);
        let vaults: BTreeSet<u8> = footprint.iter().map(|l| l.vault.0).collect();
        let banks: BTreeSet<u8> = footprint.iter().map(|l| l.bank.0).collect();
        assert_eq!(vaults.len(), 16, "page covers all vaults");
        assert_eq!(banks.len(), 2, "page covers exactly two banks");
    }

    #[test]
    fn smaller_block_sizes_shift_fields_down() {
        let m = AddressMap::new(Geometry::hmc_gen2(), BlockSize::B32);
        assert_eq!(m.vault_shift(), 5);
        assert_eq!(m.bank_shift(), 9);
        assert_eq!(m.row_shift(), 13);
        let loc = m.decode(Address::new(32));
        assert_eq!(loc.vault, VaultId(1));
    }

    #[test]
    fn decode_ignores_bits_above_capacity() {
        let m = map128();
        let lo = m.decode(Address::new(0x1234));
        let hi = m.decode(Address::new(0x1234 | (1 << 33)));
        assert_eq!(lo, hi);
    }

    #[test]
    #[should_panic(expected = "bank out of range")]
    fn encode_validates_bank() {
        let m = map128();
        let _ = m.encode(VaultId(0), BankId(16), 0, 0);
    }

    #[test]
    fn rows_per_bank_covers_bank_capacity() {
        let m = map128();
        // 16 MB bank / 128 B block = 2^17 rows of blocks per bank.
        assert_eq!(m.rows_per_bank(), (16 << 20) / 128);
    }
}
