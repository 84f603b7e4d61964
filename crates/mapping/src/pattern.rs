//! GUPS-style access patterns via address mask / anti-mask filters.
//!
//! The GUPS firmware restricts random addresses to a structural subset of
//! the cube "by forcing some bits of the address to zero/one by using
//! address mask/anti-mask" (Section III-B). [`AddressFilter`] reproduces
//! that mechanism exactly; [`AccessPattern`] builds the filters for the
//! pattern families the paper sweeps (1–8 banks within a vault, 1–16
//! vaults).

use core::fmt;

use hmc_packet::Address;

use crate::geometry::VaultId;
use crate::map::AddressMap;

/// A mask/anti-mask pair applied to generated addresses.
///
/// `apply` computes `(raw & mask) | anti_mask`: the mask forces chosen bits
/// to zero, the anti-mask then forces chosen bits to one.
///
/// # Examples
///
/// ```
/// use hmc_mapping::AddressFilter;
/// use hmc_packet::Address;
///
/// // Force bits [6:0] to zero and bit 7 to one.
/// let f = AddressFilter::new(!0x7F, 0x80);
/// assert_eq!(f.apply(0x1FF).raw(), 0x180);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressFilter {
    mask: u64,
    anti_mask: u64,
}

impl AddressFilter {
    /// Creates a filter from a zero-forcing `mask` and a one-forcing
    /// `anti_mask`.
    ///
    /// # Panics
    ///
    /// Panics if the anti-mask tries to set a bit the mask clears is *not*
    /// an error (the anti-mask wins, as in the firmware), but an anti-mask
    /// above the 34-bit address field is rejected.
    pub fn new(mask: u64, anti_mask: u64) -> AddressFilter {
        assert!(
            anti_mask & !Address::MASK == 0,
            "anti-mask sets bits outside the 34-bit address field"
        );
        AddressFilter { mask, anti_mask }
    }

    /// The identity filter (no bits forced).
    pub(crate) const fn pass_all() -> AddressFilter {
        AddressFilter {
            mask: u64::MAX,
            anti_mask: 0,
        }
    }

    /// Applies the filter to a raw generated value.
    #[inline]
    pub fn apply(&self, raw: u64) -> Address {
        Address::new((raw & self.mask) | self.anti_mask)
    }
}

impl Default for AddressFilter {
    fn default() -> AddressFilter {
        AddressFilter::pass_all()
    }
}

/// One of the paper's structural access patterns (the x-axis families of
/// Figures 6 and 13).
///
/// - `Banks { count, .. }`: random accesses confined to the first `count`
///   banks of a single vault;
/// - `Vaults { count }`: random accesses confined to the first `count`
///   vaults (every bank within them).
///
/// Counts must be powers of two so the pattern is expressible with a
/// mask/anti-mask, exactly as on the real firmware. "1 vault" and
/// "16 banks" describe the same footprint; the paper labels it "1 vault".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// `count` banks within vault `vault`.
    Banks {
        /// The vault confining the accesses.
        vault: VaultId,
        /// How many banks (power of two, ≤ banks per vault).
        count: u8,
    },
    /// `count` vaults, all banks.
    Vaults {
        /// How many vaults (power of two, ≤ vault count).
        count: u8,
    },
}

impl AccessPattern {
    /// The nine patterns of Figures 6 and 13, most distributed first:
    /// 16, 8, 4, 2, 1 vaults, then 8, 4, 2, 1 banks (banks within vault 0).
    pub fn paper_sweep() -> Vec<AccessPattern> {
        let mut v: Vec<AccessPattern> = [16u8, 8, 4, 2, 1]
            .iter()
            .map(|&count| AccessPattern::Vaults { count })
            .collect();
        v.extend([8u8, 4, 2, 1].iter().map(|&count| AccessPattern::Banks {
            vault: VaultId(0),
            count,
        }));
        v
    }

    /// Number of distinct vaults the pattern touches.
    pub(crate) fn vault_count(&self) -> u8 {
        match *self {
            AccessPattern::Banks { .. } => 1,
            AccessPattern::Vaults { count } => count,
        }
    }

    /// Number of distinct banks the pattern touches per vault.
    pub(crate) fn banks_per_vault(&self, map: &AddressMap) -> u8 {
        match *self {
            AccessPattern::Banks { count, .. } => count,
            AccessPattern::Vaults { .. } => map.geometry().banks_per_vault,
        }
    }

    /// Total banks the pattern touches across the cube.
    pub fn total_banks(&self, map: &AddressMap) -> u32 {
        u32::from(self.vault_count()) * u32::from(self.banks_per_vault(map))
    }

    /// Builds the mask/anti-mask filter realizing this pattern under `map`.
    ///
    /// # Panics
    ///
    /// Panics if the count is zero, not a power of two, or exceeds the
    /// geometry.
    pub fn filter(&self, map: &AddressMap) -> AddressFilter {
        let g = map.geometry();
        match *self {
            AccessPattern::Banks { vault, count } => {
                assert!(
                    count >= 1 && count <= g.banks_per_vault && count.is_power_of_two(),
                    "bank count {count} must be a power of two within the vault"
                );
                assert!(vault.0 < g.vaults, "vault out of range");
                // Zero out the whole vault field and the fixed bank bits,
                // then force the vault id back in with the anti-mask.
                let vault_field = (u64::from(g.vaults) - 1) << map.vault_shift();
                let fixed_banks = ((u64::from(g.banks_per_vault) - 1) ^ (u64::from(count) - 1))
                    << map.bank_shift();
                let mask = !(vault_field | fixed_banks);
                let anti = u64::from(vault.0) << map.vault_shift();
                AddressFilter::new(mask, anti)
            }
            AccessPattern::Vaults { count } => {
                assert!(
                    count >= 1 && count <= g.vaults && count.is_power_of_two(),
                    "vault count {count} must be a power of two within the cube"
                );
                let fixed_vaults =
                    ((u64::from(g.vaults) - 1) ^ (u64::from(count) - 1)) << map.vault_shift();
                AddressFilter::new(!fixed_vaults, 0)
            }
        }
    }

    /// The paper's label for this pattern, e.g. `"4 banks"` or `"2 vaults"`.
    pub fn label(&self) -> String {
        match *self {
            AccessPattern::Banks { count: 1, .. } => "1 bank".to_owned(),
            AccessPattern::Banks { count, .. } => format!("{count} banks"),
            AccessPattern::Vaults { count: 1 } => "1 vault".to_owned(),
            AccessPattern::Vaults { count } => format!("{count} vaults"),
        }
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BankId;
    use std::collections::BTreeSet;

    fn map() -> AddressMap {
        AddressMap::hmc_gen2_default()
    }

    /// Pseudo-random-ish raw values without pulling in a RNG: a Weyl
    /// sequence is plenty to exercise the masks.
    fn raws() -> impl Iterator<Item = u64> {
        (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[test]
    fn banks_pattern_confines_vault_and_banks() {
        let m = map();
        for count in [1u8, 2, 4, 8] {
            let p = AccessPattern::Banks {
                vault: VaultId(5),
                count,
            };
            let f = p.filter(&m);
            let mut vaults = BTreeSet::new();
            let mut banks = BTreeSet::new();
            for raw in raws() {
                let loc = m.decode(f.apply(raw));
                vaults.insert(loc.vault.0);
                banks.insert(loc.bank.0);
            }
            assert_eq!(vaults, BTreeSet::from([5u8]), "count={count}");
            assert_eq!(banks.len(), count as usize, "count={count}");
            assert!(banks.iter().all(|&b| b < count), "low banks only");
        }
    }

    #[test]
    fn vaults_pattern_confines_vaults_frees_banks() {
        let m = map();
        for count in [1u8, 2, 4, 8, 16] {
            let p = AccessPattern::Vaults { count };
            let f = p.filter(&m);
            let mut vaults = BTreeSet::new();
            let mut banks = BTreeSet::new();
            for raw in raws() {
                let loc = m.decode(f.apply(raw));
                vaults.insert(loc.vault.0);
                banks.insert(loc.bank.0);
            }
            assert_eq!(vaults.len(), count as usize, "count={count}");
            assert!(vaults.iter().all(|&v| v < count));
            assert_eq!(banks.len(), 16, "all banks vary");
        }
    }

    #[test]
    fn single_bank_filter_pins_both_fields() {
        let m = map();
        let p = AccessPattern::Banks {
            vault: VaultId(9),
            count: 1,
        };
        let f = p.filter(&m);
        for raw in raws() {
            let loc = m.decode(f.apply(raw));
            assert_eq!(loc.vault, VaultId(9));
            assert_eq!(loc.bank, BankId(0));
        }
    }

    #[test]
    fn paper_sweep_has_nine_patterns() {
        let sweep = AccessPattern::paper_sweep();
        assert_eq!(sweep.len(), 9);
        let labels: Vec<String> = sweep.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "16 vaults",
                "8 vaults",
                "4 vaults",
                "2 vaults",
                "1 vault",
                "8 banks",
                "4 banks",
                "2 banks",
                "1 bank"
            ]
        );
    }

    #[test]
    fn total_banks_counts_footprint() {
        let m = map();
        assert_eq!(AccessPattern::Vaults { count: 16 }.total_banks(&m), 256);
        assert_eq!(AccessPattern::Vaults { count: 1 }.total_banks(&m), 16);
        assert_eq!(
            AccessPattern::Banks {
                vault: VaultId(0),
                count: 2
            }
            .total_banks(&m),
            2
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn filter_rejects_non_power_of_two() {
        let _ = AccessPattern::Vaults { count: 3 }.filter(&map());
    }

    #[test]
    fn pass_all_is_identity_within_field() {
        let f = AddressFilter::pass_all();
        assert_eq!(f.apply(0x1234_5678).raw(), 0x1234_5678);
    }
}
