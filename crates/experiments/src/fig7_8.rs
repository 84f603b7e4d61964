//! Figures 7 and 8: low-contention average latency as a function of the
//! number of read requests in a stream, for each request size.
//!
//! The stream firmware replays `n` random reads confined to the 16 banks
//! of one vault; the experiment repeats this for each vault and reports
//! the average latency across vaults (Section IV-B).

use hmc_sim::prelude::*;

use crate::common::{paper_sizes, stream_run, ExpContext};

/// One point of Figure 7/8.
#[derive(Debug, Clone, PartialEq)]
pub struct LowLoadPoint {
    /// Requests in the stream.
    pub n_requests: usize,
    /// Request size.
    pub size: PayloadSize,
    /// Mean latency across sampled vaults, µs.
    pub latency_us: f64,
}

/// Runs the sweep for `n ∈ {1, 1+step, …, max_n}` (1 is always included).
/// Figure 7 is `run(ctx, 55)`; Figure 8 is `run(ctx, 350)`.
pub(crate) fn run(ctx: &ExpContext, max_n: usize) -> Vec<LowLoadPoint> {
    let step = ctx.request_count_step(max_n);
    let mut counts = vec![1usize];
    let mut n = step;
    while n <= max_n {
        if n > 1 {
            counts.push(n);
        }
        n += step;
    }
    let mut jobs = Vec::new();
    for &n in &counts {
        for size in paper_sizes() {
            jobs.push((n, size));
        }
    }
    let ctx = ctx.clone();
    ctx.clone().par_map(jobs, move |&(n, size)| {
        let vaults: Vec<u8> = (0..16u8).step_by(ctx.vault_stride()).collect();
        let mut acc = 0.0;
        for &v in &vaults {
            let seed = ctx.seed_for(
                "fig7_8",
                (n as u64) << 16 | u64::from(size.bytes()) << 8 | u64::from(v),
            );
            let map = AddressMap::hmc_gen2_default();
            let trace = random_reads_in_banks(&map, VaultId(v), 16, size, n, seed);
            let report = stream_run(&ctx, seed, vec![trace]);
            acc += report.mean_latency_us();
        }
        LowLoadPoint {
            n_requests: n,
            size,
            latency_us: acc / vaults.len() as f64,
        }
    })
}

/// Renders one latency column per size, one row per request count.
pub(crate) fn render(points: &[LowLoadPoint]) -> Table {
    let sizes = paper_sizes();
    let mut headers = vec!["requests".to_owned()];
    headers.extend(sizes.iter().map(|s| format!("{s} latency (us)")));
    let mut t = Table::new(headers);
    let mut counts: Vec<usize> = points.iter().map(|p| p.n_requests).collect();
    counts.sort_unstable();
    counts.dedup();
    for n in counts {
        let mut row = vec![n.to_string()];
        for size in sizes {
            let p = points
                .iter()
                .find(|p| p.n_requests == n && p.size == size)
                .expect("grid is complete");
            row.push(format!("{:.3}", p.latency_us));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    #[test]
    fn figure7_shape_holds() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 7,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let points = run(&ctx, 55);
        let at = |n: usize, bytes: u32| {
            points
                .iter()
                .find(|p| p.n_requests == n && p.size.bytes() == bytes)
                .expect("point exists")
                .latency_us
        };
        // A single request sees the no-load round trip (~0.7 µs),
        // independent of size (±15%).
        for bytes in [16, 32, 64, 128] {
            let lat = at(1, bytes);
            assert!((0.55..=0.85).contains(&lat), "no-load {bytes}B = {lat}");
        }
        // Latency grows with stream depth, faster for larger requests.
        let n = points.iter().map(|p| p.n_requests).max().unwrap();
        assert!(at(n, 16) > at(1, 16));
        assert!(at(n, 128) > at(n, 16), "big requests queue longer");
        // Paper anchors: ≈1.1 µs for 16 B and ≈2.2 µs for 128 B at n=55;
        // accept a generous band since n is sampled.
        assert!((0.8..=1.6).contains(&at(n, 16)), "16B end {}", at(n, 16));
        assert!((1.2..=3.2).contains(&at(n, 128)), "128B end {}", at(n, 128));
    }

    #[test]
    fn figure8_saturates_after_linear_region() {
        let ctx = ExpContext {
            scale: Scale::Smoke,
            seed: 8,
            threads: 0,
            domains: 1,
            stats: Default::default(),
        };
        let points = run(&ctx, 350);
        let series: Vec<&LowLoadPoint> = points.iter().filter(|p| p.size.bytes() == 128).collect();
        let first = series.first().unwrap().latency_us;
        let last = series.last().unwrap().latency_us;
        assert!(last > 2.0 * first, "latency must rise under load");
        // Saturation: the last two sampled points differ by <15%, while
        // the first interval grows much faster.
        let n = series.len();
        let tail_growth = series[n - 1].latency_us / series[n - 2].latency_us;
        assert!(tail_growth < 1.15, "tail still rising: {tail_growth}");
    }
}
