//! CLI robustness: bad invocations must exit nonzero with a one-line
//! message — never panic, never succeed silently.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn conflicting_scale_flags_exit_nonzero_with_one_line_error() {
    let out = repro(&["--full", "--quick", "table1"]);
    assert!(!out.status.success(), "conflicting flags must fail");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("conflicting flags --full and --quick"),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    // Order-independent.
    let out = repro(&["--quick", "--full", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    // A repeated flag is not a conflict.
    let out = repro(&["--quick", "--quick", "table1"]);
    assert!(out.status.success(), "repeating one scale flag is fine");
}

#[test]
fn bad_flag_values_exit_nonzero_without_panicking() {
    for args in [
        &["--seed", "notanumber", "table1"][..],
        &["--threads", "-1", "table1"][..],
        &["--seed"][..],
        &["--no-such-flag"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
    }
}

#[test]
fn unknown_experiment_exits_nonzero_and_list_names_the_new_ones() {
    let out = repro(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");

    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["ext-intercube", "ext-mixed", "probe-chase"] {
        assert!(stdout.lines().any(|l| l == name), "missing {name}");
    }
}

#[test]
fn trace_and_validate_flags_are_checked() {
    // --trace-sample must be a positive count.
    for args in [
        &["--trace-sample", "0", "fig6"][..],
        &["--trace-sample", "x", "fig6"][..],
        &["--trace-out"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }

    // --trace-sample only shapes a --trace-out run; alone it is a usage
    // error, not a silently ignored flag.
    let out = repro(&["--trace-sample", "32", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors, ["error: --trace-sample needs --trace-out"], "{err}");
    assert!(out.stdout.is_empty(), "nothing runs");

    // --validate-json accepts exactly well-formed documents.
    let dir = std::env::temp_dir();
    let good = dir.join(format!("repro_cli_good_{}.json", std::process::id()));
    let bad = dir.join(format!("repro_cli_bad_{}.json", std::process::id()));
    std::fs::write(&good, "{\"traceEvents\":[{\"ph\":\"X\"}]}").unwrap();
    std::fs::write(&bad, "{\"traceEvents\":[").unwrap();
    let out = repro(&["--validate-json", good.to_str().unwrap()]);
    assert!(out.status.success(), "well-formed JSON must validate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid JSON"), "{stdout}");
    let out = repro(&["--validate-json", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "truncated JSON must fail");
    let out = repro(&["--validate-json", "/no/such/file.json"]);
    assert!(!out.status.success(), "missing file must fail");
    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&bad).ok();

    let out = repro(&["--list"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "ext-timeline"));
    assert!(stdout.lines().any(|l| l == "ext-faults"));
}

#[test]
fn unwritable_trace_path_fails_fast_with_one_line_error() {
    // The path check runs before any experiment: a bad path must fail in
    // milliseconds, not after the sweep.
    let start = std::time::Instant::now();
    let out = repro(&["--trace-out", "/no/such/dir/trace.json", "fig6"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: cannot create trace file"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "path validation must not wait for the experiment"
    );
}

#[test]
fn deadline_flag_is_validated() {
    for args in [
        &["--deadline", "0", "table1"][..],
        &["--deadline", "soon", "table1"][..],
        &["--deadline"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
    }
    // A deadline past the clock's range never fires; arming it must not
    // panic the timer thread. fig7 runs long enough for the timer thread
    // to start (table1 exits first).
    let out = repro(&["--deadline", "18446744073709551615", "fig7"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn exceeded_deadline_trips_the_watchdog_and_exits_3() {
    // `all` at quick scale runs for well over a second; a 1 s deadline
    // must end the process from the watchdog's callback, with the
    // progress diagnostic. --domains 2 makes the scheduler count real
    // rendezvous rounds for that diagnostic.
    let out = repro(&["--deadline", "1", "--domains", "2", "--json", "all"]);
    assert_eq!(out.status.code(), Some(3), "watchdog exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--deadline 1s exceeded; watchdog tripped after"),
        "{err}"
    );
    assert!(err.contains("scheduler rounds"), "{err}");
    assert!(err.contains("lookahead windows"), "{err}");
}

#[test]
fn aliases_of_one_experiment_run_it_once() {
    // `fig78` and `fig7-8` name `fig7`; each experiment runs once, in
    // order of first mention.
    let out = repro(&["--json", "fig7", "fig78", "fig7-8", "table1", "fig7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout
        .split("{\"name\":\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    assert_eq!(names, ["fig7", "table1"], "{stdout}");
}
