//! Structural geometry of a cube (Section II-A, Figure 2).

use core::fmt;

/// Identifies a vault (vertical partition) of the cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VaultId(pub u8);

impl VaultId {
    /// The dense index of this vault.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vault{}", self.0)
    }
}

/// Identifies a bank within a vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub u8);

impl BankId {
    /// The dense index of this bank within its vault.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Identifies a quadrant: a group of four vaults sharing a logic-layer
/// switch and (for quadrants 0 and 1 on the AC-510) an external link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QuadrantId(pub u8);

impl QuadrantId {
    /// The dense index of this quadrant.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QuadrantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "quad{}", self.0)
    }
}

/// The structural organization of a cube.
///
/// Defaults describe a 4 GB HMC 1.1 Gen2 device: 16 vaults of 256 MB in 4
/// quadrants, 16 banks of 16 MB per vault (Section II-A).
///
/// # Examples
///
/// ```
/// use hmc_mapping::Geometry;
///
/// let g = Geometry::hmc_gen2();
/// assert_eq!(g.total_bytes(), 4 << 30);
/// assert_eq!(g.total_banks(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of vaults in the cube.
    pub vaults: u8,
    /// Number of quadrants (vault groups with a shared switch).
    pub quadrants: u8,
    /// Number of banks in each vault.
    pub banks_per_vault: u8,
    /// Capacity of one bank in bytes.
    pub bank_bytes: u64,
}

impl Geometry {
    /// The 4 GB HMC 1.1 Gen2 geometry used throughout the paper.
    pub const fn hmc_gen2() -> Geometry {
        Geometry {
            vaults: 16,
            quadrants: 4,
            banks_per_vault: 16,
            bank_bytes: 16 << 20,
        }
    }

    /// Vaults per quadrant.
    #[inline]
    pub fn vaults_per_quadrant(&self) -> u8 {
        self.vaults / self.quadrants
    }

    /// Capacity of one vault in bytes.
    #[inline]
    pub(crate) fn vault_bytes(&self) -> u64 {
        self.bank_bytes * u64::from(self.banks_per_vault)
    }

    /// Total cube capacity in bytes.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.vault_bytes() * u64::from(self.vaults)
    }

    /// Total banks in the cube.
    #[inline]
    pub fn total_banks(&self) -> u32 {
        u32::from(self.vaults) * u32::from(self.banks_per_vault)
    }

    /// The quadrant that owns `vault`.
    ///
    /// Vault ids compose as `quadrant * vaults_per_quadrant +
    /// vault_in_quadrant`, matching the low-order-interleaved address map.
    #[inline]
    pub(crate) fn quadrant_of(&self, vault: VaultId) -> QuadrantId {
        QuadrantId(vault.0 / self.vaults_per_quadrant())
    }

    /// Validates internal consistency (power-of-two fields, divisibility).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.vaults == 0 || !self.vaults.is_power_of_two() {
            return Err(format!(
                "vault count {} must be a nonzero power of two",
                self.vaults
            ));
        }
        if self.quadrants == 0 || !self.vaults.is_multiple_of(self.quadrants) {
            return Err(format!(
                "quadrants {} must divide vaults {}",
                self.quadrants, self.vaults
            ));
        }
        if !self.vaults_per_quadrant().is_power_of_two() {
            return Err("vaults per quadrant must be a power of two".to_owned());
        }
        if self.banks_per_vault == 0 || !self.banks_per_vault.is_power_of_two() {
            return Err(format!(
                "banks per vault {} must be a nonzero power of two",
                self.banks_per_vault
            ));
        }
        if self.bank_bytes == 0 || !self.bank_bytes.is_power_of_two() {
            return Err(format!(
                "bank bytes {} must be a nonzero power of two",
                self.bank_bytes
            ));
        }
        Ok(())
    }
}

impl Default for Geometry {
    fn default() -> Geometry {
        Geometry::hmc_gen2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_matches_section_2a() {
        let g = Geometry::hmc_gen2();
        assert_eq!(g.vaults, 16);
        assert_eq!(g.quadrants, 4);
        assert_eq!(g.vaults_per_quadrant(), 4);
        assert_eq!(g.banks_per_vault, 16);
        assert_eq!(g.bank_bytes, 16 << 20);
        assert_eq!(g.vault_bytes(), 256 << 20);
        assert_eq!(g.total_bytes(), 4 << 30);
        assert_eq!(g.total_banks(), 256);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn quadrant_of_groups_consecutive_vaults() {
        let g = Geometry::hmc_gen2();
        assert_eq!(g.quadrant_of(VaultId(0)), QuadrantId(0));
        assert_eq!(g.quadrant_of(VaultId(3)), QuadrantId(0));
        assert_eq!(g.quadrant_of(VaultId(4)), QuadrantId(1));
        assert_eq!(g.quadrant_of(VaultId(15)), QuadrantId(3));
    }

    #[test]
    fn validate_rejects_bad_geometries() {
        let mut g = Geometry::hmc_gen2();
        g.vaults = 12;
        assert!(g.validate().is_err());
        let mut g = Geometry::hmc_gen2();
        g.quadrants = 3;
        assert!(g.validate().is_err());
        let mut g = Geometry::hmc_gen2();
        g.banks_per_vault = 0;
        assert!(g.validate().is_err());
        let mut g = Geometry::hmc_gen2();
        g.bank_bytes = 3 << 20;
        assert!(g.validate().is_err());
    }
}
