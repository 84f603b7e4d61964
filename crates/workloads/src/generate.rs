//! Trace generators for the paper's experiments.
//!
//! The random/linear generators are eager views of the lazy pull sources
//! in [`crate::source`]: each materializes exactly the ops the matching
//! source emits, so a replayed trace and the lazy source are
//! interchangeable by construction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hmc_mapping::{AddressMap, VaultId};
use hmc_packet::{Address, PayloadSize};

use crate::source::{
    aligned_offset, Feedback, LinearSource, SourceStep, TrafficSource, UniformSource,
};
use crate::trace::{Trace, TraceOp};

/// Materializes an open-loop source into a trace. The source must emit an
/// op on every poll until exhaustion (the uniform/linear generators do).
fn unroll(mut source: impl TrafficSource) -> Trace {
    let mut ops = Vec::new();
    loop {
        match source.next(hmc_des::Time::ZERO, &Feedback::EMPTY) {
            SourceStep::Op(op) => ops.push(op),
            SourceStep::Done => return Trace::from_ops(ops),
            step => unreachable!("open-loop generator answered {step:?}"),
        }
    }
}

/// Generates `count` random reads of `size` bytes confined to the given
/// vault set (any bank, any row), aligned to the request size — the
/// workload behind Figures 7–12, where the stream firmware replays "random
/// read requests mapped within" a chosen structural subset.
///
/// Addresses are drawn uniformly and independently; determinism comes from
/// the caller-provided `seed`.
///
/// # Panics
///
/// Panics if `vaults` is empty or contains an out-of-range vault.
pub fn random_reads_in_vaults(
    map: &AddressMap,
    vaults: &[VaultId],
    size: PayloadSize,
    count: usize,
    seed: u64,
) -> Trace {
    unroll(UniformSource::reads_in_vaults(
        map,
        vaults,
        size,
        count as u64,
        seed,
    ))
}

/// Generates `count` random reads confined to the first `banks` banks of
/// one vault — the Figures 7/8 workload ("random read requests ... within
/// the 16 banks of a vault").
pub fn random_reads_in_banks(
    map: &AddressMap,
    vault: VaultId,
    banks: u8,
    size: PayloadSize,
    count: usize,
    seed: u64,
) -> Trace {
    let g = map.geometry();
    assert!(
        banks >= 1 && banks <= g.banks_per_vault,
        "bank count out of range"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let rows = map.rows_per_bank();
    let block = map.block_size().bytes();
    (0..count)
        .map(|_| {
            let bank = hmc_mapping::BankId(rng.gen_range(0..banks));
            let row = rng.gen_range(0..rows);
            let offset = aligned_offset(block, size, |slots| rng.gen_range(0..slots));
            TraceOp::read(map.encode(vault, bank, row, offset), size)
        })
        .collect()
}

/// Generates a linear (sequential-address) read sweep of `count` requests
/// of `size` bytes starting at `base` — the GUPS "linear mode of
/// addressing".
pub fn linear_reads(base: Address, size: PayloadSize, count: usize) -> Trace {
    unroll(LinearSource::new(base, size, count as u64))
}

/// Iterates every k-combination of the cube's vault ids in lexicographic
/// order — the C(16,4) = 1820 four-vault combinations of Figures 10–12.
///
/// # Examples
///
/// ```
/// use hmc_workloads::vault_combinations;
///
/// let combos: Vec<_> = vault_combinations(16, 4).collect();
/// assert_eq!(combos.len(), 1820);
/// assert_eq!(combos[0].iter().map(|v| v.0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
/// ```
pub fn vault_combinations(n: u8, k: u8) -> VaultCombinations {
    assert!(k <= n, "cannot choose {k} from {n}");
    VaultCombinations {
        n,
        state: (0..k).map(VaultId).collect(),
        done: k == 0,
    }
}

/// Iterator returned by [`vault_combinations`].
#[derive(Debug, Clone)]
pub struct VaultCombinations {
    n: u8,
    state: Vec<VaultId>,
    done: bool,
}

impl Iterator for VaultCombinations {
    type Item = Vec<VaultId>;

    fn next(&mut self) -> Option<Vec<VaultId>> {
        if self.done {
            return None;
        }
        let current = self.state.clone();
        // Advance to the next lexicographic combination.
        let k = self.state.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            let max_at_i = self.n - (k - i) as u8;
            if self.state[i].0 < max_at_i {
                self.state[i].0 += 1;
                for j in i + 1..k {
                    self.state[j].0 = self.state[j - 1].0 + 1;
                }
                break;
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_mapping::BankId;
    use std::collections::BTreeSet;

    fn map() -> AddressMap {
        AddressMap::hmc_gen2_default()
    }

    #[test]
    fn vault_confinement() {
        let m = map();
        let vaults = vec![VaultId(2), VaultId(7), VaultId(11)];
        let t = random_reads_in_vaults(&m, &vaults, PayloadSize::B64, 500, 1);
        let seen: BTreeSet<u8> = t
            .ops()
            .iter()
            .map(|op| m.decode(op.addr.local_unchecked()).vault.0)
            .collect();
        assert!(seen.iter().all(|v| [2, 7, 11].contains(v)));
        assert_eq!(seen.len(), 3, "all requested vaults get traffic");
    }

    #[test]
    fn bank_confinement_and_alignment() {
        let m = map();
        let t = random_reads_in_banks(&m, VaultId(4), 2, PayloadSize::B32, 500, 2);
        for op in t.ops() {
            let loc = m.decode(op.addr.local_unchecked());
            assert_eq!(loc.vault, VaultId(4));
            assert!(loc.bank.0 < 2);
            assert_eq!(op.addr.raw() % 32, 0, "aligned to request size");
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let m = map();
        let a = random_reads_in_vaults(&m, &[VaultId(0)], PayloadSize::B16, 100, 42);
        let b = random_reads_in_vaults(&m, &[VaultId(0)], PayloadSize::B16, 100, 42);
        let c = random_reads_in_vaults(&m, &[VaultId(0)], PayloadSize::B16, 100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn linear_walks_sequential_blocks() {
        let m = map();
        let t = linear_reads(Address::new(0), PayloadSize::B128, 16);
        let vaults: Vec<u8> = t
            .ops()
            .iter()
            .map(|op| m.decode(op.addr.local_unchecked()).vault.0)
            .collect();
        assert_eq!(vaults, (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn combinations_are_exhaustive_and_sorted() {
        let combos: Vec<Vec<VaultId>> = vault_combinations(6, 3).collect();
        assert_eq!(combos.len(), 20, "C(6, 3)");
        let mut seen = BTreeSet::new();
        for c in &combos {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
            seen.insert(c.clone());
        }
        assert_eq!(seen.len(), combos.len(), "no duplicates");
    }

    #[test]
    fn full_paper_combination_count() {
        assert_eq!(vault_combinations(16, 4).count(), 1820);
    }

    #[test]
    fn degenerate_combinations() {
        assert_eq!(vault_combinations(4, 0).count(), 0);
        let all: Vec<_> = vault_combinations(4, 4).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], (0..4).map(VaultId).collect::<Vec<_>>());
    }

    #[test]
    fn bank_ids_spread_within_vault() {
        let m = map();
        let t = random_reads_in_vaults(&m, &[VaultId(0)], PayloadSize::B16, 1000, 7);
        let banks: BTreeSet<u8> = t
            .ops()
            .iter()
            .map(|op| m.decode(op.addr.local_unchecked()).bank.0)
            .collect();
        assert!(
            banks.len() >= 12,
            "uniform draw should hit most banks, got {banks:?}"
        );
        let _ = BankId(0);
    }
}
