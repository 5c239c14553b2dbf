//! Ablation (paper §V future work): replace the exact per-block eigensolve
//! in the ROUND step with a Lanczos Ritz-value estimate.
//!
//! For a sweep of Krylov dimensions, reports (a) selection fidelity vs the
//! exact ROUND, (b) the resulting Fisher-information objective, and (c)
//! the wall-clock of the eig phase — quantifying the trade the paper
//! anticipates ("could be replaced with sparsely preconditioned iterative
//! solvers to enhance both performance and scalability").
//!
//! Usage: cargo run --release -p firal-bench --bin ablation_lanczos
//!   [--csv] [--d D] [--c C] [--n N]

use firal_bench::report::{arg_value, fmt_secs, has_flag, Table};
use firal_bench::workloads::selection_problem_from_dataset;
use firal_comm::SelfComm;
use firal_core::objective::selection_objective_ridged;
use firal_core::{EigSolver, Executor, ShardedProblem};
use firal_data::SyntheticConfig;

fn main() {
    let csv = has_flag("--csv");
    let d: usize = arg_value("--d").unwrap_or(48);
    let c: usize = arg_value("--c").unwrap_or(12);
    let n: usize = arg_value("--n").unwrap_or(2000);
    let budget = 12;

    let ds = SyntheticConfig::new(c, d)
        .with_pool_size(n)
        .with_initial_per_class(1)
        .with_eval_size(c * 2)
        .with_separation(4.0)
        .with_normalize(true)
        .with_seed(0)
        .generate::<f64>();
    let problem = selection_problem_from_dataset(&ds);
    let z = vec![budget as f64 / n as f64; n];
    let eta = 4.0 * (problem.ehat() as f64).sqrt();

    let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
    let exec = Executor::new(&comm, &shard);
    let exact = exec.round(&z, budget, eta, EigSolver::Exact);
    let f_exact = selection_objective_ridged(&problem, &exact.selected, 1e-3);

    let mut table = Table::new(
        format!("Lanczos-ROUND ablation (n={n}, d={d}, c={c}, b={budget})"),
        &[
            "eig solver",
            "eig seconds",
            "selection overlap",
            "f(selection)",
            "f ratio vs exact",
        ],
    );
    table.row(&[
        "Exact (QL)".into(),
        fmt_secs(exact.timer.get("eig").as_secs_f64()),
        format!("{budget}/{budget}"),
        format!("{f_exact:.1}"),
        "1.00".into(),
    ]);

    for steps in [d / 8, d / 4, d / 2, d] {
        let steps = steps.max(2);
        let run = exec.round(&z, budget, eta, EigSolver::Lanczos { steps });
        let overlap = run
            .selected
            .iter()
            .filter(|i| exact.selected.contains(i))
            .count();
        let f = selection_objective_ridged(&problem, &run.selected, 1e-3);
        table.row(&[
            format!("Lanczos k={steps}"),
            fmt_secs(run.timer.get("eig").as_secs_f64()),
            format!("{overlap}/{budget}"),
            format!("{f:.1}"),
            format!("{:.2}", f / f_exact),
        ]);
    }

    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
        println!(
            "expected: overlap → b and f ratio → 1 as k grows; eig time \
             scales with k instead of d (the §V scalability win)."
        );
    }
}
