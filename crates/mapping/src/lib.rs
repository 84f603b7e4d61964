//! # hmc-mapping
//!
//! The HMC 1.1 address map (Figure 3 of the reproduced paper) and the
//! GUPS-style mask/anti-mask access-pattern machinery.
//!
//! The map is *low-order interleaved*: sequential blocks walk the vaults of
//! a quadrant, then quadrants, then banks within a vault, so a 4 KB OS page
//! spreads over two banks in all 16 vaults and serial accesses pick up
//! bank-level parallelism for free (Section II-A). Every structural access
//! pattern in the evaluation — "1 bank" through "16 vaults" — is produced by
//! forcing address bits with a mask/anti-mask pair, exactly like the
//! firmware.
//!
//! ```
//! use hmc_mapping::{AccessPattern, AddressMap};
//!
//! let map = AddressMap::hmc_gen2_default();
//! let pattern = AccessPattern::Vaults { count: 4 };
//! let filter = pattern.filter(&map);
//! // Any generated value lands within the first four vaults.
//! let loc = map.decode(filter.apply(0xDEAD_BEEF_CAFE));
//! assert!(loc.vault.0 < 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod geometry;
mod map;
mod pattern;

pub use fabric::{CubePolicy, CubeTargeting, FabricAddressMap, SplitError};
pub use geometry::{BankId, Geometry, QuadrantId, VaultId};
pub use map::{AddressMap, BlockSize, Location};
pub use pattern::{AccessPattern, AddressFilter};
