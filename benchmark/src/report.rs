//! Result records: what one run writes, what the all-workloads command
//! gathers from its child processes, and how both are printed.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{peak_rss_mb, Outcome};
use crate::{RunArgs, OUT_DIR};

type Metric = (&'static str, f64, &'static str);

/// Everything one run of one workload measured, by metric name.
pub struct RunRecord {
    workload: String,
    seed: u64,
    seconds: f64,
    quick: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order of `spec::END_TO_END` and
    /// `spec::PER_LAYER`.
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    selection_hash: u64,
    shape: Vec<(&'static str, f64)>,
}

impl RunRecord {
    pub fn new(workload: &str, seed: u64, seconds: f64, quick: bool, out: &Outcome) -> Self {
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "op_ms_p50" => median(&out.op_ms),
                    "ops_per_s" => out.ops as f64 / out.wall_s,
                    "peak_rss_mb" => peak_rss_mb(),
                    "setup_s" => median(&out.setup_s),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m.name, value, m.unit)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "bench.op_samples" => out.op_ms.len() as f64,
                    "bench.op_ms_p90" => percentile(&out.op_ms, 90.0),
                    _ => out.layer.get(name).copied().unwrap_or(0.0),
                };
                (name, value, unit)
            })
            .collect();
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            quick,
            attempted: out.attempted.max(1),
            failed: out.failed,
            end_to_end,
            per_layer,
            selection_hash: out.selection_hash,
            shape: out.shape.clone(),
        }
    }

    fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The object the driver reads from the last line of stdout.
    pub fn driver_line(&self, traced: bool) -> Json {
        let metrics = self.metrics(traced).iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric of this run by name, with its unit, for people.
    pub fn print_metrics(&self, traced: bool) {
        println!(
            "workload {} seed {} ({} checked, {} failed)",
            self.workload, self.seed, self.attempted, self.failed
        );
        for &(name, value, unit) in self.metrics(traced) {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    pub fn to_json(&self) -> Json {
        let pairs = |items: &[Metric]| {
            Json::obj(
                items
                    .iter()
                    .map(|&(name, value, _)| (name, Json::Num(value))),
            )
        };
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("end_to_end", pairs(&self.end_to_end)),
            ("per_layer", pairs(&self.per_layer)),
            (
                "selection_hash",
                Json::str(format!("{:016x}", self.selection_hash)),
            ),
            (
                "shape",
                Json::obj(self.shape.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ])
    }
}

pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// First line of a tool's output, or "unknown" (the checkout the driver
/// runs in is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers depend on besides the code: recorded in every result
/// file so two files can be told apart.
fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FIRAL_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        // With one CPU the two ranks of mesh_p2, serve_churn and
        // stream_churn time-share it: core.scaling_eff_p2 and every comm.*
        // latency then measure the scheduler, not the code.
        ("scaling_columns_meaningful", Json::Bool(nproc >= 2)),
        ("simd_tier", Json::str(firal_linalg::active_tier().name())),
        ("cpu_features", Json::str(firal_linalg::cpu_features())),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("env", Json::Obj(env)),
    ])
}

/// Run one workload in a child process (so that `peak_rss_mb` is its own)
/// and read back the record it wrote.
fn child(workload: &str, seed: u64, args: &RunArgs, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let record_path = format!("{OUT_DIR}/run_{workload}.json");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--out", &record_path])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::null());
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
    // Exit code 1 is "ran, but a check failed": the record says which.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{workload} (seed {seed}) ended with {status}"));
    }
    let record = read_json(&record_path)?;
    let _ = std::fs::remove_file(&record_path);
    Ok(record)
}

fn number(record: &Json, group: &str, name: &str) -> Result<f64, String> {
    record
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("run record lacks {group}.{name}"))
}

/// Every workload: `repeat` untraced runs at seeds `seed, seed+1, ...` (the
/// way the acceptance check varies them) for the end-to-end metrics, then
/// one traced run at `seed` for the per-layer metrics. `--quick` makes the
/// single traced run supply both.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        if !args.quick {
            for r in 0..args.repeat {
                runs.push(child(workload, args.seed + r as u64, args, false)?);
            }
        }
        let traced = child(workload, args.seed, args, true)?;
        if args.quick {
            runs.push(traced.clone());
        }

        let mut attempted = 0.0;
        let mut failed = 0.0;
        for run in runs.iter().chain(std::iter::once(&traced)) {
            attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        }
        all_correct &= failed == 0.0;

        println!("{workload}: {attempted} checked, {failed} failed");
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let values = runs
                .iter()
                .map(|run| number(run, "end_to_end", m.name))
                .collect::<Result<Vec<f64>, String>>()?;
            let mut entry = vec![
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(median(&values))),
                ("samples", Json::Num(values.len() as f64)),
            ];
            if values.len() >= 2 {
                let (q1, q3) = quartiles(&values);
                entry.push(("q1", Json::Num(q1)));
                entry.push(("q3", Json::Num(q3)));
            }
            println!(
                "  {:<40} {:>16.6} {:<6} (median of {})",
                m.name,
                median(&values),
                m.unit,
                values.len()
            );
            entry.push(("values", Json::nums(&values)));
            end_to_end.push((m.name, Json::obj(entry)));
        }
        let mut per_layer = Vec::new();
        let mut counts = Vec::new();
        for &(name, unit) in &PER_LAYER {
            let value = number(&traced, "per_layer", name)?;
            println!("  {name:<40} {value:>16.6} {unit}");
            per_layer.push((
                name,
                Json::obj([("unit", Json::str(unit)), ("value", Json::Num(value))]),
            ));
            if EXACT_COUNTS.contains(&name) {
                counts.push((name, Json::Num(value)));
            }
        }
        workloads.push((
            workload,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("fail_ratio", Json::Num(failed / attempted.max(1.0))),
                ("shape", traced.get("shape").cloned().unwrap_or(Json::Null)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
                ("counts", Json::obj(counts)),
                (
                    "selection_hash",
                    traced.get("selection_hash").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }

    let bounds = END_TO_END.iter().map(|m| {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        (
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("better", Json::str(better)),
                ("bound", Json::Num(m.bound)),
            ]),
        )
    });
    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("host", host()),
        ("bounds", Json::obj(bounds)),
        ("workloads", Json::obj(workloads)),
        // This benchmark measures; it does not claim.
        ("claim", Json::Null),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/result.json"));
    write_file(&path, &result.pretty())?;
    println!("result written to {path}");
    println!("\"claim\": null");
    Ok(all_correct)
}
