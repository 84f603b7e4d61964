//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--json] [--seed N] [--threads N] [--domains N] [--out DIR] <experiment...|all|--list>
//! ```
//!
//! By default each experiment's tables print as ASCII. With `--json` the
//! run emits one JSON document on stdout — an array of experiment
//! outcomes, each table as `{"title", "headers", "rows"}` — so results
//! can be consumed by scripts without scraping. `--out DIR` additionally
//! writes one CSV per table (plus one JSON file per experiment when
//! `--json` is given).

use std::path::PathBuf;
use std::process::ExitCode;

use hmc_experiments::{canonical_name, run_by_name, ExpContext, Outcome, Scale, EXPERIMENTS};
use hmc_sim::stats::json_escape;

struct Args {
    scale: Scale,
    seed: u64,
    /// Worker threads for parallel sweeps (`0` = all cores). Results are
    /// thread-count-invariant; this only trades wall-clock for cores.
    threads: usize,
    /// Engine domains per multi-cube simulation (`1` = serial). Results
    /// are domain-count-invariant; the CI determinism smoke diffs them.
    domains: usize,
    out: Option<PathBuf>,
    names: Vec<String>,
    list: bool,
    json: bool,
    /// Write a Chrome `trace_event` JSON of one designated traced run.
    trace_out: Option<PathBuf>,
    /// Trace every Nth issued request of the designated run.
    trace_sample: u64,
    /// Validate a JSON file (e.g. an exported trace) and exit.
    validate_json: Option<PathBuf>,
    /// Wall-clock watchdog: if the run outlives this many seconds, exit 3
    /// with a progress diagnostic.
    deadline: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Quick,
        seed: 2018,
        threads: 0,
        domains: 1,
        out: None,
        names: Vec::new(),
        list: false,
        json: false,
        trace_out: None,
        trace_sample: 64,
        validate_json: None,
        deadline: None,
    };
    let mut scale_flag: Option<&'static str> = None;
    let mut set_scale = |args: &mut Args, flag: &'static str, scale| -> Result<(), String> {
        if let Some(prev) = scale_flag.replace(flag) {
            if prev != flag {
                return Err(format!("conflicting flags {prev} and {flag}"));
            }
        }
        args.scale = scale;
        Ok(())
    };
    let mut sample_flag = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => set_scale(&mut args, "--full", Scale::Full)?,
            "--quick" => set_scale(&mut args, "--quick", Scale::Quick)?,
            "--list" => args.list = true,
            "--json" => args.json = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--domains" => {
                let v = it.next().ok_or("--domains needs a value")?;
                args.domains = v.parse().map_err(|e| format!("bad domain count: {e}"))?;
                if args.domains == 0 {
                    return Err("--domains must be >= 1".to_owned());
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                args.out = Some(PathBuf::from(v));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                args.trace_out = Some(PathBuf::from(v));
            }
            "--trace-sample" => {
                let v = it.next().ok_or("--trace-sample needs a value")?;
                args.trace_sample = v.parse().map_err(|e| format!("bad sample rate: {e}"))?;
                if args.trace_sample == 0 {
                    return Err("--trace-sample must be >= 1".to_owned());
                }
                sample_flag = true;
            }
            "--deadline" => {
                let v = it.next().ok_or("--deadline needs a value in seconds")?;
                args.deadline = Some(v.parse().map_err(|e| format!("bad deadline: {e}"))?);
                if args.deadline == Some(0) {
                    return Err("--deadline must be >= 1 second".to_owned());
                }
            }
            "--validate-json" => {
                let v = it.next().ok_or("--validate-json needs a path")?;
                args.validate_json = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            name if !name.starts_with('-') => args.names.push(name.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if sample_flag && args.trace_out.is_none() {
        return Err("--trace-sample needs --trace-out".to_owned());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: repro [--full] [--json] [--seed N] [--threads N] [--domains N] [--out DIR] \
         [--deadline SECS] [--trace-out PATH [--trace-sample N]] <experiment...|all|--list>"
    );
    eprintln!("       repro --validate-json PATH");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    eprintln!("aliases: fig10 fig11 fig12 (one combined sweep)");
    eprintln!("--threads N: worker threads for sweeps (0 = all cores; results are identical)");
    eprintln!(
        "--domains N: conservative-parallel engine domains per multi-cube simulation \
         (default 1 = serial; results are identical)"
    );
    eprintln!(
        "--trace-out PATH: export one designated traced run as Chrome trace_event JSON \
         (open in chrome://tracing or Perfetto); --trace-sample N traces every Nth request \
         (default 64)"
    );
    eprintln!("--validate-json PATH: check that PATH holds one well-formed JSON value and exit");
    eprintln!(
        "--deadline SECS: wall-clock watchdog; a run that outlives it is tripped \
         and exits 3 with a progress diagnostic"
    );
}

fn sanitize(title: &str) -> String {
    title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// One experiment outcome as a JSON object.
fn outcome_json(outcome: &Outcome) -> String {
    let tables: Vec<String> = outcome
        .tables
        .iter()
        .map(|(title, table)| {
            // Splice the table's own {"headers":...,"rows":...} fields
            // into an object that also carries the title.
            let body = table.to_json();
            format!(
                "{{\"title\":\"{}\",{}",
                json_escape(title),
                body.strip_prefix('{').expect("table JSON is an object")
            )
        })
        .collect();
    format!(
        "{{\"name\":\"{}\",\"tables\":[{}]}}",
        json_escape(outcome.name),
        tables.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    if args.list {
        for name in EXPERIMENTS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.validate_json {
        let doc = match std::fs::read_to_string(path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match hmc_sim::stats::validate_json(&doc) {
            Ok(()) => {
                println!("{}: valid JSON ({} bytes)", path.display(), doc.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    if args.names.is_empty() && args.trace_out.is_none() {
        usage();
        return ExitCode::from(2);
    }
    // Aliases name one experiment (`fig10`..`fig12` are one sweep), so
    // each canonical name runs once, at its first mention.
    let mut names: Vec<&'static str> = Vec::new();
    for n in &args.names {
        let expanded: &[&'static str] = if n == "all" {
            EXPERIMENTS
        } else if let Some(name) = canonical_name(n) {
            &[name]
        } else {
            eprintln!("error: unknown experiment {n:?}");
            usage();
            return ExitCode::from(2);
        };
        for &name in expanded {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    // Fail fast on an unwritable trace path: better a one-line error now
    // than after minutes of sweeps.
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("error: cannot create trace file {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    // The watchdog guard lives for the rest of main; the drop on a normal
    // exit disarms it.
    let _watchdog = args.deadline.map(|secs| {
        hmc_sim::fabric::watchdog::Deadline::arm(std::time::Duration::from_secs(secs), move || {
            let (rounds, windows) = hmc_sim::fabric::watchdog::progress();
            eprintln!(
                "error: --deadline {secs}s exceeded; watchdog tripped after \
                 {rounds} scheduler rounds / {windows} lookahead windows"
            );
            std::process::exit(3);
        })
    });
    let ctx = ExpContext {
        scale: args.scale,
        seed: args.seed,
        threads: args.threads,
        domains: args.domains,
        stats: Default::default(),
    };
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut json_outcomes: Vec<String> = Vec::new();
    for name in names {
        let start = std::time::Instant::now();
        let outcome = run_by_name(name, &ctx).expect("validated above");
        if args.json {
            let doc = outcome_json(&outcome);
            if let Some(dir) = &args.out {
                let path = dir.join(format!("{}.json", outcome.name));
                if let Err(e) = std::fs::write(&path, &doc) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            json_outcomes.push(doc);
        } else {
            for (title, table) in &outcome.tables {
                println!("## {title}\n");
                println!("{table}");
            }
        }
        if let Some(dir) = &args.out {
            for (title, table) in &outcome.tables {
                let path = dir.join(format!("{}_{}.csv", outcome.name, sanitize(title)));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!(
            "[{}] done in {:.1}s",
            outcome.name,
            start.elapsed().as_secs_f64()
        );
    }
    if args.json {
        println!("[{}]", json_outcomes.join(","));
    }
    if let Some(path) = &args.trace_out {
        // One extra, designated traced run — tracing never perturbs the
        // sweeps above.
        let start = std::time::Instant::now();
        let (doc, slices) = hmc_experiments::ext_timeline::traced_run(&ctx, args.trace_sample);
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[trace] {} slices (1/{} sampling) -> {} in {:.1}s",
            slices,
            args.trace_sample,
            path.display(),
            start.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
