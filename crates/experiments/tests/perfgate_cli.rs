//! CLI robustness and output contract for `perfgate`: bad invocations
//! exit nonzero with a one-line message instead of panicking, and a
//! smoke run's documents carry what CI's jq gates read.

use std::path::PathBuf;
use std::process::Command;

use hmc_sim::stats::validate_json;

fn perfgate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .output()
        .expect("spawn perfgate")
}

/// A per-process scratch path for one document.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perfgate_cli_{tag}_{}.json", std::process::id()))
}

/// Runs `perfgate --smoke --reps 1 --out <tag>` plus `extra` and returns
/// the document it wrote and its stderr.
fn smoke(tag: &str, extra: &[&str]) -> (String, String) {
    let out_path = scratch(tag);
    let mut args = vec![
        "--smoke",
        "--reps",
        "1",
        "--out",
        out_path.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = perfgate(&args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "perfgate {args:?} failed: {err}");
    let doc = std::fs::read_to_string(&out_path).expect("perfgate wrote --out");
    std::fs::remove_file(&out_path).ok();
    assert!(validate_json(&doc).is_ok(), "invalid JSON: {doc}");
    (doc, err)
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
fn missing_baseline_file_exits_nonzero_with_one_line_error() {
    let out = perfgate(&[
        "--baseline",
        "/nonexistent/perfgate-baseline.json",
        "--smoke",
    ]);
    assert!(!out.status.success(), "missing baseline must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read baseline"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
    // The gate must fail *before* burning time on the basket.
    assert!(
        !err.contains("rep 1"),
        "baseline errors must precede any measurement: {err}"
    );
}

#[test]
fn bad_flags_exit_nonzero_without_panicking() {
    for args in [
        &["--reps", "0"][..],
        &["--reps", "abc"][..],
        &["--baseline"][..],
        &["--no-such-flag"][..],
    ] {
        let out = perfgate(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
    }
}

/// The tier-1 mirror of CI's perfgate gates: a smoke run, then a second
/// run against the first as its baseline.
#[test]
fn smoke_documents_carry_what_the_ci_gates_read() {
    let (a, _) = smoke("a", &[]);
    let a_path = scratch("a-baseline");
    std::fs::write(&a_path, &a).unwrap();
    let (b, _) = smoke("b", &["--baseline", a_path.to_str().unwrap()]);
    std::fs::remove_file(&a_path).ok();

    for doc in [&a, &b] {
        assert!(doc.contains("\"mode\":\"smoke\""), "{doc}");
        let entries = entries(doc);
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
    for (name, entry) in entries(&b) {
        assert!(
            field(entry, "speedup_vs_baseline").is_some(),
            "{name} has no speedup against a baseline of the same run"
        );
    }
}

/// A baseline entry that ran a different number of events is not
/// compared: no ratio between two different workloads.
#[test]
fn baseline_with_other_events_yields_no_speedup() {
    let base_path = scratch("other-events");
    std::fs::write(
        &base_path,
        "{\"schema\":\"hmc-perfgate-v1\",\"experiments\":[\
         {\"name\":\"fig6-sat\",\"events\":1,\"events_per_sec\":1000}]}",
    )
    .unwrap();
    let (doc, err) = smoke("c", &["--baseline", base_path.to_str().unwrap()]);
    std::fs::remove_file(&base_path).ok();
    let (_, entry) = entries(&doc)
        .into_iter()
        .find(|(n, _)| *n == "fig6-sat")
        .unwrap();
    assert!(field(entry, "speedup_vs_baseline").is_none(), "{entry}");
    assert!(field(entry, "baseline_events_per_sec").is_none(), "{entry}");
    assert!(
        err.lines()
            .any(|l| l.starts_with("note [fig6-sat]: baseline ran 1 events")),
        "{err}"
    );
}
