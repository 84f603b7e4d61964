//! The golden digest of every `repro` table and of perfgate's
//! single-domain points.
//!
//! `golden.txt` holds one line per table that the 19 experiments render
//! at `Scale::Smoke`, seed 2018: the experiment, the table's title and the
//! 64-bit FNV-1a hash of the table's JSON, tab-separated. Tables print
//! rounded cells, so a change that moves a latency by less than one
//! printed digit can keep every table; the file therefore ends with one
//! `exact` line per single-domain perfgate point, built at the same scale
//! and seed by the builder its sweep calls: the FNV-1a hash of the run's
//! whole `RunReport` (`{:?}`, every picosecond and counter) and the
//! engine's event counters. Any change that moves a table or a run fails
//! this test, which names each line that moved and prints the regenerated
//! file. A named model change commits that printed file as its diff of
//! the outputs; nothing rewrites it automatically.

use std::collections::{BTreeMap, BTreeSet};

use hmc_experiments::{
    ext_fabric, ext_intercube, ext_offload, fig13, fig6, probe_chase, run_by_name, ExpContext,
    Scale, EXPERIMENTS,
};
use hmc_sim::prelude::*;

const GOLDEN: &str = include_str!("golden.txt");

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// perfgate's single-domain basket: name, builder, and whether the point
/// is a closed-loop GUPS run (`false`: finite streams run to completion).
type Point = (&'static str, fn(&ExpContext) -> FabricSim, bool);

const POINTS: &[Point] = &[
    (
        "fig13-1bank-16B-1port",
        |ctx| {
            let one_bank = AccessPattern::Banks {
                vault: VaultId(0),
                count: 1,
            };
            fig13::sim(ctx, one_bank, PayloadSize::B16, 1)
        },
        true,
    ),
    (
        "fig6-sat",
        |ctx| fig6::sim(ctx, AccessPattern::Vaults { count: 16 }, PayloadSize::B128),
        true,
    ),
    (
        "ext-chain-4",
        |ctx| ext_fabric::chain_loaded_sim(ctx, 4),
        true,
    ),
    ("probe-chase", |ctx| probe_chase::walkers_sim(ctx, 8), false),
    ("ext-offload", |ctx| ext_offload::window_sim(ctx, 8), false),
    (
        "ext-intercube-8-sat",
        |ctx| ext_intercube::sim(ctx, Topology::Chain, 8, CubePolicy::Interleaved),
        true,
    ),
];

/// The `exact` line of one point: its report's hash and event counters.
fn exact_line(ctx: &ExpContext, (name, build, gups): &Point) -> String {
    let mut sim = build(ctx);
    let report = if *gups {
        sim.run_gups(ctx.gups_warmup(), ctx.gups_measure())
    } else {
        sim.run_streams()
    };
    let e = sim.engine_stats();
    format!(
        "exact\t{name}\treport={:016x} dispatched={} pending={} wake_fires={} wake_cancels={}\n",
        fnv64(format!("{report:?}").as_bytes()),
        e.dispatched,
        e.pending,
        e.wake_fires,
        e.wake_cancels,
    )
}

/// The golden file's text for this build.
fn render() -> String {
    let ctx = ExpContext {
        scale: Scale::Smoke,
        ..ExpContext::quick(2018)
    };
    let mut seen = BTreeSet::new();
    let mut out = String::new();
    for &name in EXPERIMENTS {
        let outcome = run_by_name(name, &ctx).expect("listed experiments run");
        for (title, table) in &outcome.tables {
            assert!(
                seen.insert((name, title.clone())),
                "{name} renders two tables titled {title:?}"
            );
            let hash = fnv64(table.to_json().as_bytes());
            out.push_str(&format!("{name}\t{title}\t{hash:016x}\n"));
        }
    }
    for point in POINTS {
        out.push_str(&exact_line(&ctx, point));
    }
    out
}

/// `experiment\ttitle` → hash, for every line of a golden file.
fn digests(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .filter_map(|line| {
            let (key, hash) = line.rsplit_once('\t')?;
            Some((key, hash))
        })
        .collect()
}

#[test]
fn every_repro_table_matches_its_golden_digest() {
    let current = render();
    if current == GOLDEN {
        return;
    }
    let (was, now) = (digests(GOLDEN), digests(&current));
    let mut moved = Vec::new();
    for (key, hash) in &now {
        match was.get(key) {
            Some(old) if old == hash => {}
            Some(_) => moved.push(format!("  moved: {key}")),
            None => moved.push(format!("  new:   {key}")),
        }
    }
    moved.extend(
        was.keys()
            .filter(|key| !now.contains_key(*key))
            .map(|key| format!("  gone:  {key}")),
    );
    if moved.is_empty() {
        moved.push("  (same digests, different order)".to_owned());
    }
    panic!(
        "{} of {} lines differ from tests/golden.txt:\n{}\n\
         regenerated tests/golden.txt:\n{current}",
        moved.len(),
        now.len(),
        moved.join("\n").replace('\t', " / "),
    );
}
