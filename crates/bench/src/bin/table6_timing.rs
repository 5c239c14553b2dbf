//! Table VI — wall-clock comparison of Exact-FIRAL vs Approx-FIRAL, RELAX
//! and ROUND phases, on an ImageNet-50-like and a Caltech-101-like problem.
//!
//! The paper reports (single A100): ImageNet-50 RELAX 33.6 s → 1.3 s and
//! ROUND 34.8 s → 1.1 s (≈29× total); Caltech-101 RELAX 172.3 s → 1.9 s and
//! ROUND 945.3 s → 4.4 s (≈177× total). Absolute numbers are hardware-bound;
//! the *ratios* and their growth from the smaller to the larger
//! configuration are the reproduction target. Default sizes are scaled to
//! keep the dense exact path tractable on a laptop-class host (the paper's
//! own point is that Exact-FIRAL stops scaling); `--paper-scale` restores
//! Table V sizes if you have the hours.
//!
//! Usage: cargo run --release -p firal-bench --bin table6_timing
//!   [--csv] [--iters N (mirror-descent iterations, default 12)]

use firal_bench::report::{arg_value, fmt_secs, has_flag, Table};
use firal_bench::workloads::{selection_problem_from_dataset, timed};
use firal_comm::SelfComm;
use firal_core::{
    exact_relax, exact_round, EigSolver, Executor, MirrorDescentConfig, RelaxConfig, ShardedProblem,
};
use firal_data::SyntheticConfig;

struct Case {
    label: &'static str,
    classes: usize,
    dim: usize,
    pool: usize,
    budget: usize,
}

fn main() {
    let csv = has_flag("--csv");
    let iters: usize = arg_value("--iters").unwrap_or(12);
    let paper_scale = has_flag("--paper-scale");

    let cases = if paper_scale {
        vec![
            Case {
                label: "ImageNet-50",
                classes: 50,
                dim: 50,
                pool: 5000,
                budget: 50,
            },
            Case {
                label: "Caltech-101",
                classes: 101,
                dim: 100,
                pool: 1715,
                budget: 101,
            },
        ]
    } else {
        // Scaled so exact stays under a few minutes on 2 cores; the
        // exact/approx complexity *ratio* grows with (c, d) exactly as in
        // the paper's pair of rows.
        vec![
            Case {
                label: "ImageNet-50 (scaled c=20,d=25)",
                classes: 20,
                dim: 25,
                pool: 1500,
                budget: 20,
            },
            Case {
                label: "Caltech-101 (scaled c=30,d=30)",
                classes: 30,
                dim: 30,
                pool: 1200,
                budget: 30,
            },
        ]
    };

    let mut table = Table::new(
        "Table VI — Exact-FIRAL vs Approx-FIRAL wall-clock (seconds)",
        &["dataset", "phase", "Exact", "Approx", "speedup"],
    );

    for case in &cases {
        eprintln!(
            "[table6] {} — c={} d={} n={} b={} ({} MD iters)",
            case.label, case.classes, case.dim, case.pool, case.budget, iters
        );
        let ds = SyntheticConfig::new(case.classes, case.dim)
            .with_pool_size(case.pool)
            .with_initial_per_class(1)
            .with_eval_size(case.classes * 4)
            .with_separation(4.0)
            .with_normalize(true)
            .with_seed(0)
            .generate::<f64>();
        let problem = selection_problem_from_dataset(&ds);
        let eta = 4.0 * (problem.ehat() as f64).sqrt();
        // Fixed iteration counts so both solvers do identical optimization
        // work (the paper's stopping rule is iteration-count-matched here).
        let md = MirrorDescentConfig {
            max_iters: iters,
            obj_rel_tol: 0.0,
            ..Default::default()
        };

        let ((z_exact, _), t_exact_relax) = timed(|| exact_relax(&problem, case.budget, &md));
        let (_, t_exact_round) = timed(|| exact_round(&problem, &z_exact, case.budget, eta));

        let relax_cfg = RelaxConfig {
            md,
            ..Default::default()
        };
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
        let exec = Executor::new(&comm, &shard);
        let (out, t_approx_relax) = timed(|| exec.relax(case.budget, &relax_cfg));
        let (_, t_approx_round) =
            timed(|| exec.round(&out.z_local, case.budget, eta, EigSolver::Exact));

        for (phase, te, ta) in [
            ("RELAX", t_exact_relax, t_approx_relax),
            ("ROUND", t_exact_round, t_approx_round),
        ] {
            table.row(&[
                case.label.to_string(),
                phase.to_string(),
                fmt_secs(te),
                fmt_secs(ta),
                format!("{:.1}x", te / ta.max(1e-9)),
            ]);
        }
        table.row(&[
            case.label.to_string(),
            "TOTAL".to_string(),
            fmt_secs(t_exact_relax + t_exact_round),
            fmt_secs(t_approx_relax + t_approx_round),
            format!(
                "{:.1}x",
                (t_exact_relax + t_exact_round) / (t_approx_relax + t_approx_round).max(1e-9)
            ),
        ]);
    }

    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
        println!(
            "paper (A100): ImageNet-50 29x total, Caltech-101 177x total — the \
             speedup must GROW from the first row-pair to the second."
        );
    }
}
