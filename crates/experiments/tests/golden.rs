//! The golden digest of every `repro` table.
//!
//! `golden.txt` holds one line per table that the 19 experiments render
//! at `Scale::Smoke`, seed 2018: the experiment, the table's title and the
//! 64-bit FNV-1a hash of the table's JSON, tab-separated. Any change that
//! moves a table fails this test, which names each table that moved and
//! prints the regenerated file. A named model change commits that printed
//! file as its diff of the outputs; nothing rewrites it automatically.

use std::collections::{BTreeMap, BTreeSet};

use hmc_experiments::{run_by_name, ExpContext, Scale, EXPERIMENTS};

const GOLDEN: &str = include_str!("golden.txt");

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
        "{} of {} tables differ from tests/golden.txt:\n{}\n\
         regenerated tests/golden.txt:\n{current}",
        moved.len(),
        now.len(),
        moved.join("\n").replace('\t', " / "),
    );
}
