//! # hmc-experiments
//!
//! Experiment runners that regenerate every table and figure of the
//! reproduced paper (and two extensions), on top of the [`hmc_sim`]
//! full-system simulator. Each module documents which figure it
//! reproduces and what workload the paper used; `EXPERIMENTS` lists the
//! runnable names consumed by the `repro` binary.
//!
//! ```no_run
//! use hmc_experiments::{run_by_name, ExpContext};
//!
//! let outcome = run_by_name("table1", &ExpContext::quick(0)).expect("known name");
//! for (title, table) in &outcome.tables {
//!     println!("# {title}\n{table}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod ext;
pub mod ext_fabric;
pub mod ext_faults;
pub mod ext_intercube;
pub mod ext_mixed;
pub mod ext_offload;
pub mod ext_scale;
pub mod ext_timeline;
pub mod fig10_12;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod probe_chase;
pub mod table1;

pub use common::{ExpContext, Scale};
use hmc_sim::prelude::*;

/// The result of one experiment: named tables ready to print or dump.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Canonical experiment name.
    pub name: &'static str,
    /// Titled tables (one per rendered panel).
    pub tables: Vec<(String, Table)>,
}

/// Canonical experiment names, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10-12",
    "fig13",
    "fig14",
    "ext-ddr",
    "ext-rw",
    "ext-chain",
    "ext-star",
    "probe-chase",
    "ext-offload",
    "ext-intercube",
    "ext-mixed",
    "ext-timeline",
    "ext-faults",
    "ext-scale",
];

/// Resolves aliases (`fig10`, `fig11`, `fig12` share one sweep;
/// underscores work everywhere dashes do).
pub fn canonical_name(name: &str) -> Option<&'static str> {
    let name = name.to_ascii_lowercase().replace('_', "-");
    match name.as_str() {
        "fig10" | "fig11" | "fig12" | "fig10-12" => Some("fig10-12"),
        "fig7-8" | "fig78" => Some("fig7"),
        other => EXPERIMENTS.iter().find(|&&e| e == other).copied(),
    }
}

/// Runs one experiment by (possibly aliased) name. Returns `None` for
/// unknown names.
pub fn run_by_name(name: &str, ctx: &ExpContext) -> Option<Outcome> {
    let canonical = canonical_name(name)?;
    // The tally covers exactly this experiment's simulations; the sums
    // are order-independent so the appended table is thread-invariant.
    ctx.stats.reset();
    let mut outcome = match canonical {
        "table1" => Outcome {
            name: "table1",
            tables: vec![(
                "Table I: HMC request/response read/write sizes (flits)".to_owned(),
                table1::render(),
            )],
        },
        "fig6" => {
            let points = fig6::run(ctx);
            Outcome {
                name: "fig6",
                tables: vec![(
                    "Figure 6: latency vs bidirectional bandwidth (9 ports, read-only)".to_owned(),
                    fig6::render(&points),
                )],
            }
        }
        "fig7" => {
            let points = fig7_8::run(ctx, 55);
            Outcome {
                name: "fig7",
                tables: vec![(
                    "Figure 7: low-load average latency, 1..55 requests".to_owned(),
                    fig7_8::render(&points),
                )],
            }
        }
        "fig8" => {
            let points = fig7_8::run(ctx, 350);
            Outcome {
                name: "fig8",
                tables: vec![(
                    "Figure 8: low-load average latency, 1..350 requests".to_owned(),
                    fig7_8::render(&points),
                )],
            }
        }
        "fig9" => {
            let a = fig9::run(ctx, 1);
            let b = fig9::run(ctx, 5);
            Outcome {
                name: "fig9",
                tables: vec![
                    (
                        "Figure 9a: max latency, 3 ports pinned to vault 1".to_owned(),
                        fig9::render(&a),
                    ),
                    (
                        "Figure 9b: max latency, 3 ports pinned to vault 5".to_owned(),
                        fig9::render(&b),
                    ),
                ],
            }
        }
        "fig10-12" => {
            let data: Vec<fig10_12::CombosData> = crate::common::paper_sizes()
                .iter()
                .map(|&size| fig10_12::run(ctx, size))
                .collect();
            let mut tables = Vec::new();
            for d in &data {
                tables.push((
                    format!(
                        "Figure 10 ({}): latency histogram per vault (normalized)",
                        d.size
                    ),
                    fig10_12::fig10_table(d),
                ));
            }
            tables.push((
                "Figure 11: average latency and std dev across vaults".to_owned(),
                fig10_12::fig11_summary(&data),
            ));
            for d in &data {
                tables.push((
                    format!(
                        "Figure 12 ({}): vault histogram per latency interval (row-normalized)",
                        d.size
                    ),
                    fig10_12::fig12_table(d),
                ));
            }
            Outcome {
                name: "fig10-12",
                tables,
            }
        }
        "fig13" => {
            let points = fig13::run(ctx);
            let tables = crate::common::paper_sizes()
                .iter()
                .map(|&size| {
                    (
                        format!("Figure 13 ({size}): bandwidth vs active ports (GB/s)"),
                        fig13::render(&points, size),
                    )
                })
                .collect();
            Outcome {
                name: "fig13",
                tables,
            }
        }
        "fig14" => {
            let points = fig14::run(ctx);
            Outcome {
                name: "fig14",
                tables: vec![(
                    "Figure 14: estimated outstanding requests (Little's law)".to_owned(),
                    fig14::render(&points),
                )],
            }
        }
        "ext-ddr" => Outcome {
            name: "ext-ddr",
            tables: vec![(
                "Ext-A: DDR4 channel vs HMC stack".to_owned(),
                ext::ddr_comparison(ctx),
            )],
        },
        "ext-rw" => Outcome {
            name: "ext-rw",
            tables: vec![(
                "Ext-B: read/write mix vs per-direction bandwidth".to_owned(),
                ext::rw_mix_table(&ext::rw_mix(ctx)),
            )],
        },
        "ext-chain" => Outcome {
            name: "ext-chain",
            tables: vec![(
                "Ext-C: chained cubes — latency/bandwidth vs hop count".to_owned(),
                ext_fabric::chain_table(&ext_fabric::chain(ctx)),
            )],
        },
        "ext-star" => Outcome {
            name: "ext-star",
            tables: vec![(
                "Ext-D: star of 4 cubes — near/far vault locality".to_owned(),
                ext_fabric::star_table(&ext_fabric::star(ctx)),
            )],
        },
        "probe-chase" => Outcome {
            name: "probe-chase",
            tables: vec![
                (
                    "Probe-chase A: dependent-read latency vs chain hop count (1 walker)"
                        .to_owned(),
                    probe_chase::chain_table(&probe_chase::chain(ctx)),
                ),
                (
                    "Probe-chase B: latency/throughput vs concurrent walkers (1 cube)".to_owned(),
                    probe_chase::walker_table(&probe_chase::walkers(ctx)),
                ),
            ],
        },
        "ext-intercube" => Outcome {
            name: "ext-intercube",
            tables: vec![(
                "Ext-intercube: blocked vs interleaved cube maps (CUB from the address)".to_owned(),
                ext_intercube::table(&ext_intercube::run(ctx)),
            )],
        },
        "ext-faults" => Outcome {
            name: "ext-faults",
            tables: vec![(
                "Ext-faults: BER sweep and degraded links on a saturated interleaved ring"
                    .to_owned(),
                ext_faults::table(&ext_faults::run(ctx)),
            )],
        },
        "ext-scale" => Outcome {
            name: "ext-scale",
            tables: vec![(
                "Ext-scale: 8..64-cube chain/ring/mesh under interleaved GUPS (6-bit CUB)"
                    .to_owned(),
                ext_scale::table(&ext_scale::run(ctx)),
            )],
        },
        "ext-mixed" => Outcome {
            name: "ext-mixed",
            tables: vec![(
                "Ext-mixed: pointer-chase walkers under GUPS background load".to_owned(),
                ext_mixed::table(&ext_mixed::run(ctx)),
            )],
        },
        "ext-timeline" => {
            let points = ext_timeline::run(ctx);
            Outcome {
                name: "ext-timeline",
                tables: vec![
                    (
                        "Ext-timeline A: epoch bandwidth/latency timelines at the fig6 knee"
                            .to_owned(),
                        ext_timeline::timeline_table(&points),
                    ),
                    (
                        "Ext-timeline B: round-trip latency percentiles per port and per cube"
                            .to_owned(),
                        ext_timeline::percentile_table(&points),
                    ),
                ],
            }
        }
        "ext-offload" => Outcome {
            name: "ext-offload",
            tables: vec![
                (
                    "Ext-offload A: NOM-style copy bandwidth vs chain hop count".to_owned(),
                    ext_offload::table(&ext_offload::chain(ctx), false),
                ),
                (
                    "Ext-offload B: copy on the hub vs leaves of a 4-cube star".to_owned(),
                    ext_offload::table(&ext_offload::star(ctx), true),
                ),
                (
                    "Ext-offload C: copy bandwidth vs outstanding-pair window (1 cube)".to_owned(),
                    ext_offload::table(&ext_offload::windows(ctx), false),
                ),
            ],
        },
        _ => unreachable!("canonical names are exhaustive"),
    };
    outcome.tables.push((
        "Engine: event-core counters over this experiment's runs".to_owned(),
        engine_stats_table(ctx),
    ));
    Some(outcome)
}

/// The event-engine counter tally as a one-row table.
fn engine_stats_table(ctx: &ExpContext) -> Table {
    let (runs, stats) = ctx.stats.snapshot();
    let mut t = Table::new([
        "runs",
        "dispatched",
        "wake_fires",
        "wake_cancels",
        "scratch_spills",
    ]);
    t.row([
        runs.to_string(),
        stats.dispatched.to_string(),
        stats.wake_fires.to_string(),
        stats.wake_cancels.to_string(),
        stats.scratch_spills.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve() {
        assert_eq!(canonical_name("FIG11"), Some("fig10-12"));
        assert_eq!(canonical_name("fig6"), Some("fig6"));
        assert_eq!(canonical_name("probe_chase"), Some("probe-chase"));
        assert_eq!(canonical_name("EXT-OFFLOAD"), Some("ext-offload"));
        assert_eq!(canonical_name("nope"), None);
    }

    #[test]
    fn table1_runs_instantly() {
        let out = run_by_name("table1", &ExpContext::quick(0)).unwrap();
        // The figure table plus the appended engine-counter table.
        assert_eq!(out.tables.len(), 2);
        assert!(out.tables[0].1.to_ascii().contains("2~9 flits"));
        assert!(out.tables[1].0.contains("Engine"));
    }
}
