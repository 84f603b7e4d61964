//! CLI robustness and output contract for `perfgate`: bad invocations
//! exit nonzero with a one-line message instead of panicking, and a
//! smoke run's document carries what CI's jq gates read.

use std::process::Command;

use hmc_sim::stats::validate_json;

fn perfgate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .output()
        .expect("spawn perfgate")
}

/// Runs `perfgate --smoke --reps 1 --out <per-process file>` and returns
/// the document it wrote.
fn smoke() -> String {
    let out_path = std::env::temp_dir().join(format!("perfgate_cli_{}.json", std::process::id()));
    let args = [
        "--smoke",
        "--reps",
        "1",
        "--out",
        out_path.to_str().unwrap(),
    ];
    let out = perfgate(&args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "perfgate {args:?} failed: {err}");
    let doc = std::fs::read_to_string(&out_path).expect("perfgate wrote --out");
    std::fs::remove_file(&out_path).ok();
    assert!(validate_json(&doc).is_ok(), "invalid JSON: {doc}");
    doc
}

/// The document's entries as `(name, the entry's JSON text)`.
fn entries(doc: &str) -> Vec<(&str, &str)> {
    doc.split("{\"name\":\"")
        .skip(1)
        .map(|chunk| (&chunk[..chunk.find('"').unwrap()], chunk))
        .collect()
}

/// The raw token after `"key":` in one entry, if present.
fn field<'a>(entry: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &entry[entry.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

const NAMES: [&str; 9] = [
    "fig13-1bank-16B-1port",
    "fig6-sat",
    "ext-chain-4",
    "probe-chase",
    "ext-offload",
    "ext-intercube-8-sat",
    "ext-intercube-8-sat-d4",
    "ext-scale-64-mesh",
    "ext-scale-64-mesh-d8",
];

#[test]
fn bad_flags_exit_nonzero_without_panicking() {
    for args in [
        &["--reps", "0"][..],
        &["--reps", "abc"][..],
        &["--baseline", "x"][..],
        &["--no-such-flag"][..],
    ] {
        let out = perfgate(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
        if args[0] != "--reps" {
            assert!(err.contains("unknown flag"), "args {args:?}: {err}");
        }
    }
}

/// The tier-1 mirror of CI's perfgate gates on one smoke run.
#[test]
fn smoke_documents_carry_what_the_ci_gates_read() {
    let doc = smoke();
    assert!(doc.contains("\"mode\":\"smoke\""), "{doc}");
    let entries = entries(&doc);
    for name in NAMES {
        let n = entries.iter().filter(|(n, _)| *n == name).count();
        assert_eq!(n, 1, "{name} appears {n} times");
    }
    assert_eq!(entries.len(), NAMES.len(), "{doc}");
    let get = |name: &str, key: &str| {
        let (_, entry) = entries.iter().find(|(n, _)| *n == name).unwrap();
        field(entry, key).unwrap_or_else(|| panic!("{name} has no {key}"))
    };
    for name in NAMES {
        let accesses: u64 = get(name, "accesses").parse().unwrap();
        assert!(accesses > 0, "{name} moved no traffic");
        let iters: u64 = get(name, "iters").parse().unwrap();
        assert!(iters >= 1, "{name}");
        let best: f64 = get(name, "wall_s_best").parse().unwrap();
        let median: f64 = get(name, "wall_s_median").parse().unwrap();
        let max: f64 = get(name, "wall_s_max").parse().unwrap();
        assert!(
            best <= median && median <= max,
            "{name}: spread out of order"
        );
    }
    for (serial, parallel) in [
        ("ext-intercube-8-sat", "ext-intercube-8-sat-d4"),
        ("ext-scale-64-mesh", "ext-scale-64-mesh-d8"),
    ] {
        for key in ["events", "wake_fires", "sim_ns", "accesses"] {
            assert_eq!(get(serial, key), get(parallel, key), "{parallel} {key}");
        }
    }
    let d4 = |key: &str| -> u64 { get("ext-intercube-8-sat-d4", key).parse().unwrap() };
    assert!(d4("sched_rounds") > 0);
    assert_eq!(d4("sched_window_events"), d4("events"));
}
