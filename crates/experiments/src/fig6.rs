//! Figure 6: read latency vs bidirectional bandwidth for structural
//! access patterns and request sizes under high contention (9 GUPS ports).

use hmc_sim::prelude::*;

use crate::common::{gups_sim, paper_sizes, ExpContext};

/// One point of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Point {
    /// Pattern label ("1 bank" … "16 vaults").
    pub pattern: String,
    /// Request size.
    pub size: PayloadSize,
    /// Counted bidirectional bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Mean read latency, µs.
    pub latency_us: f64,
}

/// Runs the 9 patterns × 4 sizes sweep with all nine ports active.
pub fn run(ctx: &ExpContext) -> Vec<Fig6Point> {
    let mut jobs = Vec::new();
    for pattern in AccessPattern::paper_sweep() {
        for size in paper_sizes() {
            jobs.push((pattern, size));
        }
    }
    let ctx = ctx.clone();
    ctx.clone().par_map(jobs, move |&(pattern, size)| {
        let report = ctx.run_gups(sim(&ctx, pattern, size));
        Fig6Point {
            pattern: pattern.label(),
            size,
            bandwidth_gbs: report.total_bandwidth_gbs(),
            latency_us: report.mean_latency_us(),
        }
    })
}

/// Builds one point of the sweep, unrun: nine GUPS ports reading `size`
/// blocks under `pattern`, on the point's derived seed.
pub fn sim(ctx: &ExpContext, pattern: AccessPattern, size: PayloadSize) -> FabricSim {
    let seed = ctx.seed_for(
        "fig6",
        pattern.total_banks(&AddressMap::hmc_gen2_default()) as u64 * 1000
            + u64::from(size.bytes()),
    );
    gups_sim(seed, pattern, GupsOp::Read(size), 9)
}

/// Renders the sweep as the paper's (bandwidth, latency) series.
pub fn render(points: &[Fig6Point]) -> Table {
    let mut t = Table::new(["pattern", "size", "bandwidth (GB/s)", "latency (us)"]);
    for p in points {
        t.row([
            p.pattern.clone(),
            p.size.to_string(),
            format!("{:.2}", p.bandwidth_gbs),
            format!("{:.3}", p.latency_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{gups_run, Scale};

    /// A reduced Figure 6 (the five points the assertions need) checking
    /// the paper's orderings at smoke scale.
    #[test]
    fn orderings_match_paper() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 42,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let point = |pattern: AccessPattern, bytes: u32| {
            let size = PayloadSize::new(bytes).unwrap();
            let seed = ctx.seed_for("fig6-test", u64::from(bytes));
            let report = gups_run(&ctx, seed, pattern, GupsOp::Read(size), 9);
            (report.total_bandwidth_gbs(), report.mean_latency_us())
        };
        let v16 = AccessPattern::Vaults { count: 16 };
        let v1 = AccessPattern::Vaults { count: 1 };
        let b1 = AccessPattern::Banks {
            vault: VaultId(0),
            count: 1,
        };
        let (bw16_16, lat16_16) = point(v16, 16);
        let (bw16_128, lat16_128) = point(v16, 128);
        let (bw1v_128, _) = point(v1, 128);
        let (bwb1_128, latb1_128) = point(b1, 128);
        // Larger requests move more bandwidth and suffer more latency.
        assert!(bw16_128 > bw16_16);
        assert!(lat16_128 > lat16_16);
        // Less distributed accesses are slower and narrower.
        assert!(latb1_128 > 2.0 * lat16_128);
        assert!(bwb1_128 < 0.5 * bw16_128);
        // The most distributed 128 B pattern reaches the ~23 GB/s link
        // ceiling (±20%); one vault caps well below it.
        assert!(
            (18.0..=28.0).contains(&bw16_128),
            "link ceiling off: {bw16_128}"
        );
        assert!(bw1v_128 < 0.65 * bw16_128);
    }

    #[test]
    fn render_has_one_row_per_point() {
        let points = vec![Fig6Point {
            pattern: "1 bank".to_owned(),
            size: PayloadSize::B16,
            bandwidth_gbs: 1.0,
            latency_us: 2.0,
        }];
        let t = render(&points);
        assert_eq!(t.len(), 1);
        assert!(t.to_ascii().contains("1 bank"));
    }
}
