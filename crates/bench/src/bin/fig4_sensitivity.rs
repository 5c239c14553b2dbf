//! Fig. 4 — sensitivity of the fast RELAX solver to the number of
//! Rademacher probes `s` (top row) and the CG tolerance `cg_tol` (bottom
//! row): objective value vs mirror-descent iteration, against the exact
//! RELAX solver, on CIFAR-10-like and ImageNet-50-like round-1 problems.
//!
//! The paper's finding to reproduce: "RELAX does not demonstrate
//! sensitivity to either s or cg_tol" — all the approximate curves track
//! the exact one.
//!
//! Usage: cargo run --release -p firal-bench --bin fig4_sensitivity
//!   [--csv] [--iters N] [--preset cifar10|imagenet50]

use firal_bench::report::{arg_value, has_flag, Series, Table};
use firal_bench::workloads::selection_problem_from_dataset;
use firal_comm::SelfComm;
use firal_core::{exact_relax, Executor, MirrorDescentConfig, RelaxConfig, ShardedProblem};
use firal_data::{ExperimentPreset, PresetName};

fn main() {
    let csv = has_flag("--csv");
    let iters: usize = arg_value("--iters").unwrap_or(40);
    let only: Option<String> = arg_value("--preset");

    for (key, name, exact_ok) in [
        ("cifar10", PresetName::Cifar10, true),
        ("imagenet50", PresetName::ImageNet50, false),
    ] {
        if let Some(sel) = &only {
            if sel != key {
                continue;
            }
        }
        // Scale the pools down so the exact solver (dense ê×ê) is feasible
        // where it participates.
        let preset = ExperimentPreset::host_scaled(name).scale_down(2);
        let ds = preset.generate::<f64>(0);
        let problem = selection_problem_from_dataset(&ds);
        let b = preset.budget_per_round;
        eprintln!(
            "[fig4] {} — n={} d={} c={} (ê={}), b={b}",
            name.label(),
            problem.pool_size(),
            problem.dim(),
            problem.num_classes,
            problem.ehat()
        );

        let md = MirrorDescentConfig {
            max_iters: iters,
            obj_rel_tol: 0.0, // run the full trajectory for the plot
            ..Default::default()
        };

        let mut series: Vec<Series> = Vec::new();

        // Exact reference (feasible at CIFAR scale; ImageNet-50's ê is
        // beyond the dense solver on this host, as in the paper).
        if exact_ok {
            let (_, tel) = exact_relax(&problem, b, &md);
            series.push(Series::new(
                "Exact",
                (1..=tel.objective_history.len())
                    .map(|i| i as f64)
                    .collect(),
                tel.objective_history.clone(),
            ));
        }

        // Probe-count sweep at the paper's default cg_tol = 0.1.
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
        let exec = Executor::new(&comm, &shard);
        for s in [10usize, 20, 100] {
            let out = exec.relax(
                b,
                &RelaxConfig {
                    md,
                    probes: s,
                    cg_tol: 0.1,
                    seed: 1,
                    ..Default::default()
                },
            );
            series.push(Series::new(
                format!("Approx: s = {s}"),
                (1..=out.telemetry.objective_history.len())
                    .map(|i| i as f64)
                    .collect(),
                out.telemetry.objective_history.clone(),
            ));
        }

        // CG-tolerance sweep at the paper's default s = 10.
        for tol in [0.5, 0.1, 0.01, 0.001] {
            let out = exec.relax(
                b,
                &RelaxConfig {
                    md,
                    probes: 10,
                    cg_tol: tol,
                    seed: 1,
                    ..Default::default()
                },
            );
            series.push(Series::new(
                format!("Approx: cgtol = {tol}"),
                (1..=out.telemetry.objective_history.len())
                    .map(|i| i as f64)
                    .collect(),
                out.telemetry.objective_history.clone(),
            ));
        }

        if csv {
            for s in &series {
                print!("{}", s.to_csv());
            }
        } else {
            let mut table = Table::new(format!("Fig. 4 — {} RELAX objective f", name.label()), &{
                let mut h = vec!["iteration"];
                for s in &series {
                    h.push(&s.label);
                }
                h
            });
            let maxlen = series.iter().map(|s| s.y.len()).max().unwrap_or(0);
            for i in (0..maxlen).step_by(4) {
                let mut cells = vec![(i + 1).to_string()];
                for s in &series {
                    cells.push(
                        s.y.get(i)
                            .map(|v| format!("{v:.3}"))
                            .unwrap_or_else(|| "-".into()),
                    );
                }
                table.row(&cells);
            }
            println!("{}", table.render());
            // Summarize the paper's claim quantitatively: spread of final
            // objective across approximate settings.
            let finals: Vec<f64> = series
                .iter()
                .filter(|s| s.label.starts_with("Approx"))
                .filter_map(|s| s.y.last().copied())
                .collect();
            let lo = finals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "final-objective spread across approx settings: [{lo:.3}, {hi:.3}] ({:.1}%)",
                100.0 * (hi - lo) / lo.abs().max(1e-30)
            );
        }
    }
}
