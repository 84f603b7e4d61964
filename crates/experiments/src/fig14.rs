//! Figure 14: estimated outstanding requests at the saturated points of
//! two- and four-bank access patterns, via Little's law. The paper uses
//! the rough linearity in bank count to infer that the vault controller
//! keeps one queue per bank.

use hmc_sim::prelude::*;

use crate::common::{gups_run, paper_sizes, ExpContext};

/// One bar of Figure 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Point {
    /// Request size.
    pub size: PayloadSize,
    /// Banks in the pattern (2 or 4).
    pub banks: u8,
    /// Little's-law estimate of outstanding requests at saturation — the
    /// quantity the paper computes from its black-box measurements.
    pub outstanding: f64,
    /// Peak requests resident in the target vault controller — the
    /// white-box confirmation of the per-bank queue structure the paper
    /// infers (only a simulator can report this directly).
    pub vault_peak: usize,
}

/// Runs the saturated (9-port) runs for the 2- and 4-bank patterns.
pub(crate) fn run(ctx: &ExpContext) -> Vec<Fig14Point> {
    let mut jobs = Vec::new();
    for &banks in &[2u8, 4u8] {
        for size in paper_sizes() {
            jobs.push((banks, size));
        }
    }
    let ctx = ctx.clone();
    ctx.clone().par_map(jobs, move |&(banks, size)| {
        let pattern = AccessPattern::Banks {
            vault: VaultId(0),
            count: banks,
        };
        let seed = ctx.seed_for("fig14", u64::from(banks) << 16 | u64::from(size.bytes()));
        let report = gups_run(&ctx, seed, pattern, GupsOp::Read(size), 9);
        Fig14Point {
            size,
            banks,
            outstanding: report.estimated_outstanding(),
            vault_peak: report.cubes[0].device.per_vault_peak_outstanding[0],
        }
    })
}

/// Mean outstanding across sizes for the given bank count.
pub(crate) fn average_outstanding(points: &[Fig14Point], banks: u8) -> f64 {
    let vals: Vec<f64> = points
        .iter()
        .filter(|p| p.banks == banks)
        .map(|p| p.outstanding)
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Renders the figure: one row per size plus the average row. The first
/// two value columns are the paper's black-box Little's-law estimates;
/// the last two are the simulator's white-box vault-resident peaks, which
/// exhibit the per-bank linearity the paper infers.
pub(crate) fn render(points: &[Fig14Point]) -> Table {
    let mut t = Table::new([
        "request size",
        "2 banks (Little)",
        "4 banks (Little)",
        "2 banks (vault peak)",
        "4 banks (vault peak)",
    ]);
    for size in paper_sizes() {
        let get = |banks: u8| {
            points
                .iter()
                .find(|p| p.size == size && p.banks == banks)
                .expect("grid is complete")
        };
        t.row([
            size.to_string(),
            format!("{:.0}", get(2).outstanding),
            format!("{:.0}", get(4).outstanding),
            get(2).vault_peak.to_string(),
            get(4).vault_peak.to_string(),
        ]);
    }
    t.row([
        "Average".to_owned(),
        format!("{:.0}", average_outstanding(points, 2)),
        format!("{:.0}", average_outstanding(points, 4)),
        format!("{:.0}", average_vault_peak(points, 2)),
        format!("{:.0}", average_vault_peak(points, 4)),
    ]);
    t
}

/// Mean vault-resident peak across sizes for the given bank count.
pub(crate) fn average_vault_peak(points: &[Fig14Point], banks: u8) -> f64 {
    let vals: Vec<f64> = points
        .iter()
        .filter(|p| p.banks == banks)
        .map(|p| p.vault_peak as f64)
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    #[test]
    fn outstanding_grows_with_bank_count_and_caps_at_tags() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 14,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let points = run(&ctx);
        let two = average_outstanding(&points, 2);
        let four = average_outstanding(&points, 4);
        // The paper's inference: more banks → proportionally more resident
        // requests (288 → 535, a 1.86× ratio). In the reproduction the
        // Little's-law estimate grows more weakly (shared buffers dilute
        // it; see EXPERIMENTS.md) but must still grow, and both stay under
        // the tag ceiling.
        assert!(four > two * 1.05, "no occupancy growth: {two} → {four}");
        assert!(two < 600.0 && four < 600.0, "outstanding exceeds tag pool");
        assert!(two > 100.0, "2-bank occupancy too small: {two}");
        // The white-box view shows the per-bank queue structure directly:
        // vault-resident peaks scale nearly 2× from 2 to 4 banks.
        let peak2 = average_vault_peak(&points, 2);
        let peak4 = average_vault_peak(&points, 4);
        assert!(
            peak4 > peak2 * 1.55,
            "vault occupancy must scale with bank count: {peak2} → {peak4}"
        );
        assert_eq!(render(&points).len(), 5);
    }
}
