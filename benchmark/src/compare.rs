//! `compare A.json B.json`: is B worse than A by more than the benchmark's
//! bounds, on any workload × end-to-end metric?

use crate::json::Json;
use crate::report::read_json;
use crate::stats::{median, spread};

/// Verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound (or
    /// there are too few runs to know it), so "no worse" cannot be shown.
    Unresolved,
}

/// Judge `change` against `base`. `bound` is the share of the base median
/// the metric may worsen by.
pub fn judge(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if base.len() < 3 || change.len() < 3 || spread(base).max(spread(change)) > bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(base), median(change));
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(metric: &Json) -> Result<Vec<f64>, String> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .ok_or_else(|| "metric without values".to_string())
}

fn load(path: &str) -> Result<Json, String> {
    let doc = read_json(path)?;
    if doc.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a --quick result measures too little to compare"
        ));
    }
    Ok(doc)
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "seconds", "repeat"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two results were run with different --{key}"));
        }
    }
    let bounds = a
        .get("bounds")
        .and_then(Json::as_obj)
        .ok_or("result file without bounds")?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("result file without workloads")?;

    println!("base   A = {path_a}\nchange B = {path_b}");
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, in_a) in workloads {
        let in_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{path_b} lacks workload {workload}"))?;
        for (name, limits) in bounds {
            let metric = |side: &Json| {
                side.get("end_to_end")
                    .and_then(|m| m.get(name))
                    .ok_or_else(|| format!("{workload} lacks {name}"))
                    .and_then(values)
            };
            let (va, vb) = (metric(in_a)?, metric(in_b)?);
            let bound = limits.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = limits.get("better").and_then(Json::as_str) == Some("lower");
            let verdict = judge(&va, &vb, lower, bound);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<13} {:<12} {:>14.6} {:>14.6} {:>9.4} {:>7.3}  {}",
                workload,
                name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Exact counts and selections: equal for two runs of one commit.
        for key in ["counts", "selection_hash"] {
            let same = in_a.get(key) == in_b.get(key);
            println!(
                "{workload:<13} {key:<12} {}",
                if same { "equal" } else { "differ" }
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved (ratios are B/A, base A)");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.4, 100.1, 99.8];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&base, &same, true, 0.1), Verdict::Ok);
        assert_eq!(judge(&base, &slower, true, 0.1), Verdict::Regressed);
        // Higher is better: the same 20% rise is an improvement.
        assert_eq!(judge(&base, &slower, false, 0.1), Verdict::Ok);
        assert_eq!(judge(&slower, &base, false, 0.1), Verdict::Regressed);
        assert_eq!(judge(&base, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&base[..2], &same, true, 0.1), Verdict::Unresolved);
    }
}
