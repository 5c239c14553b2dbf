//! Fig. 5 — single-node wall-clock of the RELAX and ROUND phases vs the
//! feature dimension `d` and the class count `c`, each phase paired with
//! its theoretical peak-flops estimate (the paper's left/right column
//! pairs).
//!
//! The paper's formulas (§IV-B), reproduced here with the host-calibrated
//! peak in place of the A100's 19.5 TFLOP/s:
//!
//! * RELAX  precond  `c d³ + 2 c n d²`, CG `4·n_CG·n·c·s·d`,
//!   gradient `≈ 4·n·c·s·d`;
//! * ROUND  eigenvalues `300·c·d³` (the paper's fitted prefactor),
//!   objective `3 c d³ + 4 n c d²`.
//!
//! Defaults are host-scaled (paper: n=5e5/1.3e6, d up to 1022, c up to
//! 1000); `--n`, `--ncg`, `--s` override.
//!
//! `--threads T` sizes the kernel thread pool the single-node phases fan
//! out on (default: `FIRAL_NUM_THREADS`, else host parallelism) — the
//! single-node analogue of the paper's per-GPU parallelism; the `thr`
//! column records it per row.
//!
//! Usage: cargo run --release -p firal-bench --bin fig5_single_node [--csv]
//!   [--threads T]

use firal_bench::report::{arg_value, has_flag, Table};
use firal_bench::workloads::{selection_problem_from_dataset, FIG7_BUDGET};
use firal_comm::{CostModel, SelfComm};
use firal_core::{EigSolver, Executor, MirrorDescentConfig, RelaxConfig, ShardedProblem};
use firal_data::SyntheticConfig;

struct PhaseRow {
    label: String,
    relax_precond: (f64, f64), // (experiment, theoretical)
    relax_cg: (f64, f64),
    relax_grad: (f64, f64),
    round_eig: (f64, f64),
    round_obj: (f64, f64),
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    label: String,
    n: usize,
    d: usize,
    c: usize,
    ncg: usize,
    s: usize,
    budget: usize,
    model: &CostModel,
) -> PhaseRow {
    let ds = SyntheticConfig::new(c, d)
        .with_pool_size(n)
        .with_initial_per_class(1)
        .with_eval_size(c * 2)
        .with_separation(4.0)
        .with_normalize(true)
        .with_seed(1)
        .generate::<f32>();
    let problem = selection_problem_from_dataset(&ds);
    let cm1 = (c - 1) as f64;
    let (nf, df, sf) = (n as f64, d as f64, s as f64);

    // One mirror-descent iteration with a fixed CG iteration count
    // (cg_tol = 0 never triggers, so CG runs exactly `ncg` rounds).
    let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
    let exec = Executor::new(&comm, &shard);
    let relax_out = exec.relax(
        budget,
        &RelaxConfig {
            md: MirrorDescentConfig {
                max_iters: 1,
                obj_rel_tol: 0.0,
                ..Default::default()
            },
            probes: s,
            cg_tol: 0.0,
            cg_max_iter: ncg,
            seed: 2,
            ..Default::default()
        },
    );
    // One ROUND iteration (and the scoring pass that reads its ν).
    let round_out = exec.round(
        &relax_out.z_local,
        FIG7_BUDGET,
        4.0 * ((d * (c - 1)) as f32).sqrt(),
        EigSolver::Exact,
    );

    // Theoretical times (seconds) at the calibrated peak. CG runs twice per
    // iteration (lines 6 and 8), each with `ncg` panel matvecs.
    let th_precond = model.flop_time((cm1 * df * df * df + 2.0 * cm1 * nf * df * df) as u64);
    let th_cg = model.flop_time((2.0 * 4.0 * ncg as f64 * nf * cm1 * sf * df) as u64);
    let th_grad = model.flop_time((4.0 * nf * cm1 * sf * df) as u64);
    let th_eig = model.flop_time((300.0 * cm1 * df * df * df) as u64);
    // Per scoring pass: the block factors (c·d³) and two triangular pool
    // products (2ncd²).
    let th_obj = model
        .flop_time((FIG7_BUDGET as f64 * (cm1 * df * df * df + 2.0 * nf * cm1 * df * df)) as u64);

    PhaseRow {
        label,
        relax_precond: (relax_out.timer.get("precond").as_secs_f64(), th_precond),
        relax_cg: (relax_out.timer.get("cg").as_secs_f64(), th_cg),
        relax_grad: (relax_out.timer.get("gradient").as_secs_f64(), th_grad),
        round_eig: (round_out.timer.get("eig").as_secs_f64(), th_eig),
        round_obj: (round_out.timer.get("objective").as_secs_f64(), th_obj),
    }
}

fn main() {
    let csv = has_flag("--csv");
    let n: usize = arg_value("--n").unwrap_or(20_000);
    let ncg: usize = arg_value("--ncg").unwrap_or(20);
    let s: usize = arg_value("--s").unwrap_or(10);
    let budget = 10;
    if let Some(t) = arg_value::<usize>("--threads") {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .ok();
    }
    // lint: allow(thread-count) harness banner: reports the pool size the run was benchmarked at; results are thread-count-invariant by contract
    let threads = rayon::current_num_threads();

    let model = CostModel::calibrate_on_host(160);
    eprintln!(
        "[fig5] calibrated peak: {:.2} GFLOP/s, kernel threads: {threads}",
        model.peak_flops / 1e9
    );

    // (A)(C): d sweep at fixed c (paper: d ∈ {383, 766, 1022}, c = 1000;
    // host-scaled shape: doubling steps of d at c = 50).
    let mut rows = Vec::new();
    for d in [32usize, 64, 96] {
        rows.push(run_case(
            format!("d={d} (c=50)"),
            n,
            d,
            50,
            ncg,
            s,
            budget,
            &model,
        ));
    }
    // (B)(D): c sweep at fixed d (paper: c ∈ {100..1000}, d = 383).
    for c in [13usize, 25, 50, 100] {
        rows.push(run_case(
            format!("c={c} (d=48)"),
            n,
            48,
            c,
            ncg,
            s,
            budget,
            &model,
        ));
    }

    let mut table = Table::new(
        "Fig. 5 — single-node phase times, experiment|theoretical (seconds)",
        &[
            "config",
            "thr",
            "relax:precond",
            "relax:cg",
            "relax:gradient",
            "round:eig",
            "round:objective",
        ],
    );
    let cell = |p: (f64, f64)| format!("{:.3}|{:.3}", p.0, p.1);
    for r in &rows {
        table.row(&[
            r.label.clone(),
            threads.to_string(),
            cell(r.relax_precond),
            cell(r.relax_cg),
            cell(r.relax_grad),
            cell(r.round_eig),
            cell(r.round_obj),
        ]);
    }
    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
        // The paper's scaling factors for reference.
        println!(
            "expected shape: precond grows ≈d³ (then ≈linearly in c); CG ≈d \
             and ≈c; eig ≈d³ and ≈c; objective ≈d² and ≈c \
             (paper quotes 4.72x/1.7x per d-doubling and ≈2x per c-doubling)."
        );
        for pair in rows.windows(2).take(2) {
            let a = &pair[0];
            let b = &pair[1];
            println!(
                "{} → {}: precond {:.2}x, cg {:.2}x, eig {:.2}x, obj {:.2}x",
                a.label,
                b.label,
                b.relax_precond.0 / a.relax_precond.0.max(1e-9),
                b.relax_cg.0 / a.relax_cg.0.max(1e-9),
                b.round_eig.0 / a.round_eig.0.max(1e-9),
                b.round_obj.0 / a.round_obj.0.max(1e-9),
            );
        }
    }
}
