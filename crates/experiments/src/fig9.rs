//! Figure 9: quality of service under vault sharing. Four stream ports
//! access four vaults; three stay pinned to one vault while the fourth
//! sweeps every vault. The maximum observed latency spikes when the
//! sweeping port collides with the pinned vault.

use hmc_sim::prelude::*;

use crate::common::{paper_sizes, stream_run, ExpContext};

/// One point of Figure 9: the maximum latency observed with the fourth
/// port on `sweep_vault`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Point {
    /// The vault the fourth port accessed.
    pub sweep_vault: u8,
    /// Request size.
    pub size: PayloadSize,
    /// Maximum latency across all four ports, µs.
    pub max_latency_us: f64,
}

/// Runs the sweep with three ports pinned to `pinned_vault` (the paper
/// shows vault 1 and vault 5).
pub(crate) fn run(ctx: &ExpContext, pinned_vault: u8) -> Vec<Fig9Point> {
    assert!(pinned_vault < 16, "vault out of range");
    let mut jobs = Vec::new();
    for sweep in 0..16u8 {
        for size in paper_sizes() {
            jobs.push((sweep, size));
        }
    }
    let ctx = ctx.clone();
    ctx.clone().par_map(jobs, move |&(sweep, size)| {
        let reads = ctx.stream_reads();
        let map = AddressMap::hmc_gen2_default();
        let base = ctx.seed_for(
            "fig9",
            u64::from(pinned_vault) << 24 | u64::from(sweep) << 8 | u64::from(size.bytes()),
        );
        let mut traces = Vec::new();
        for port in 0..4u64 {
            let vault = if port < 3 { pinned_vault } else { sweep };
            traces.push(random_reads_in_vaults(
                &map,
                &[VaultId(vault)],
                size,
                reads,
                base.wrapping_add(port),
            ));
        }
        let report = stream_run(&ctx, base, traces);
        Fig9Point {
            sweep_vault: sweep,
            size,
            max_latency_us: report.max_latency_us(),
        }
    })
}

/// Renders one max-latency column per size, one row per swept vault.
pub(crate) fn render(points: &[Fig9Point]) -> Table {
    let sizes = paper_sizes();
    let mut headers = vec!["4th port vault".to_owned()];
    headers.extend(sizes.iter().map(|s| format!("{s} max latency (us)")));
    let mut t = Table::new(headers);
    for sweep in 0..16u8 {
        let mut row = vec![sweep.to_string()];
        for size in sizes {
            let p = points
                .iter()
                .find(|p| p.sweep_vault == sweep && p.size == size)
                .expect("grid is complete");
            row.push(format!("{:.3}", p.max_latency_us));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's headline number: how much higher the maximum latency is
    /// when the fourth port collides with the pinned vault, relative to the
    /// mean of the non-colliding positions.
    fn collision_penalty(points: &[Fig9Point], pinned_vault: u8, size: PayloadSize) -> f64 {
        let colliding = points
            .iter()
            .find(|p| p.sweep_vault == pinned_vault && p.size == size)
            .expect("collision point")
            .max_latency_us;
        let others: Vec<f64> = points
            .iter()
            .filter(|p| p.sweep_vault != pinned_vault && p.size == size)
            .map(|p| p.max_latency_us)
            .collect();
        let baseline = others.iter().sum::<f64>() / others.len() as f64;
        colliding / baseline
    }
    use crate::common::Scale;

    #[test]
    fn collision_raises_max_latency() {
        // Quick scale: the collision penalty is a queue-growth effect at
        // ~96% vault utilization, which needs a few hundred requests per
        // port to emerge from noise.
        let ctx = ExpContext {
            scale: Scale::Quick,
            seed: 9,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let pinned = 5;
        let points = run(&ctx, pinned);
        // Section IV-C: "the maximum observed latency increases up to 40%
        // relative to other accesses" — *up to*, i.e. the large sizes show
        // the full penalty while small packets vary less (~10% at 16 B in
        // Figure 9a). Require a clear penalty for the largest size, no
        // anti-penalty anywhere, and a strong maximum across sizes.
        // In our reproduction the penalty peaks near 10–15% rather than
        // 40%: the modelled stream ports drain responses at 3 GB/s, which
        // keeps even four colliding ports just at the vault's capacity
        // (EXPERIMENTS.md discusses the gap). The structure is what we
        // assert: no anti-penalty anywhere and a clear peak.
        let mut max_penalty: f64 = 0.0;
        for size in paper_sizes() {
            let penalty = collision_penalty(&points, pinned, size);
            // Small packets barely stress the shared vault, so their
            // collision ratio is 1.0 within noise.
            assert!(penalty > 0.95, "anti-penalty for {size}: ratio {penalty}");
            max_penalty = max_penalty.max(penalty);
        }
        assert!(max_penalty > 1.06, "peak penalty too weak: {max_penalty}");
        assert_eq!(render(&points).len(), 16);
    }
}
