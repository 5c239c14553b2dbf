//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! firal-benchmark run --workload W --seed S --seconds X --trace 0|1
//!     one workload in this process; the last line of stdout is the result
//!     object the driver reads
//! firal-benchmark run [--seed S] [--seconds X] [--repeat R] [--quick] [--out F]
//!     every workload, each run in a child process, one result file
//! firal-benchmark compare A.json B.json
//! ```

pub mod compare;
pub mod json;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::process::ExitCode;

use workloads::{Ctx, Outcome};

/// Seed used when none is given. The hold-out seed for checking a claim on
/// inputs it was not developed against is 29 (see the README).
const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Where result and trace files go, relative to the repo root the command
/// is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed `run` options.
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat: usize,
    pub out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 3,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (one of {:?})",
                        spec::WORKLOADS
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(value("a file path")?),
            "--quick" => parsed.quick = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(parsed)
}

/// Rounds at the start of every timed loop whose selections are hashed and
/// whose exact counts are taken; `--quick` stops there. Fixed, so that both
/// repeat exactly, and small, so that a quick pass over all five workloads
/// finishes in under 25 s.
fn counted_rounds(workload: &str) -> usize {
    match workload {
        "relax_bound" => 2,
        "round_bound" => 1,
        "mesh_p2" => 2,
        "serve_churn" => 60,
        _ => 100,
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "relax_bound" => workloads::batch::relax_bound(ctx),
        "round_bound" => workloads::batch::round_bound(ctx),
        "mesh_p2" => workloads::mesh::run(ctx),
        "serve_churn" => workloads::serve::run(ctx),
        "stream_churn" => workloads::stream::run(ctx),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// One workload in this process.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    // Every kernel pool is one thread wide: the host has two cores and the
    // multi-rank workloads already put one runnable thread on each.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .map_err(|_| "the global kernel pool was already built".to_string())?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        counted_rounds: counted_rounds(name),
        quick: args.quick,
        trace: args.trace,
        setup_reps: if args.trace || args.quick { 1 } else { 5 },
        probe_seconds: if args.quick { 0.01 } else { 0.05 },
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let outcome = run_workload(name, &ctx);
    let record = report::RunRecord::new(name, args.seed, args.seconds, args.quick, &outcome);
    for why in &outcome.failures {
        eprintln!("check failed: {why}");
    }
    if args.trace {
        let threads: Vec<_> = outcome
            .traces
            .iter()
            .map(|(who, rec)| (who.as_str(), rec))
            .collect();
        let path = format!("{OUT_DIR}/trace_{name}.json");
        report::write_file(&path, &trace::to_json(&threads).pretty())?;
    }
    if let Some(path) = &args.out {
        report::write_file(path, &record.to_json().pretty())?;
    }
    record.print_metrics(args.trace);
    println!("{}", record.driver_line(args.trace).compact());
    Ok(outcome.failed == 0)
}

/// The command line: `args` without the program name.
pub fn run_cli(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|parsed| match &parsed.workload {
            Some(name) => run_one(name, &parsed),
            None => report::run_all(&parsed),
        }),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(
            "usage: firal-benchmark run [--workload W] [--seed S] [--seconds X] \
                  [--trace [0|1]] [--repeat R] [--quick] [--out F]\n       \
                  firal-benchmark compare A.json B.json"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
