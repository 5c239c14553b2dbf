//! Fig. 7 — strong and weak scaling of the ROUND step (time to select ONE
//! point: a full iteration of Algorithm 3 and the scoring pass that reads
//! its `ν`, `firal_bench::workloads::FIG7_BUDGET`), phase breakdown
//! (objective / eigenvalues / other), paper-model theoretical columns.
//!
//! Paper observations to reproduce: strong-scaling speedup ≈ 11x at 12
//! ranks; weak-scaling time *decreases* slightly with p because the
//! per-block eigensolves are distributed across ranks (more pronounced for
//! the 1000-class dataset than for CIFAR-10's 10 classes).
//!
//! `--backend thread` (default) runs shared-memory ranks;
//! `--backend socket` runs the same rank bodies over the localhost-TCP
//! `SocketComm` mesh. For one-process-per-rank execution use
//! `spmd_launch` (`--bin spmd_launch -- -p N fig7`).
//!
//! `--threads T` gives each rank its own T-worker kernel sub-pool
//! (default 1: ranks stay the only parallelism so the rank-scaling shape
//! is measured cleanly).
//!
//! `--eta-groups G` switches the measured body from one fixed-η ROUND to
//! the §IV-A η-grid sweep distributed over `G` sub-communicator groups
//! (the 2D geometry `p = p_shard × p_eta`): the table then carries one row
//! per group — the `grp` column — with that group's own `CommStats`, and
//! rank counts `G` does not divide are skipped. `G = 1` (the default)
//! keeps the historical fixed-η single-point measurement (its rows read
//! `grp = 0`).
//!
//! Usage: cargo run --release -p firal-bench --bin fig7_round_scaling
//!   [--csv] [--n N] [--per-rank N] [--backend thread|socket]
//!   [--threads T] [--eta-groups G]

use firal_bench::report::{arg_value, comm_cells, has_flag, Table, COMM_HEADERS};
use firal_bench::workloads::{fig7_eta_sweep_rank_body, fig7_rank_body, scaling_problem};
use firal_comm::{launch_backend, Backend, CostModel};

const RANKS: [usize; 5] = [1, 2, 3, 6, 12];

#[allow(clippy::too_many_arguments)]
fn scaling_table(
    title: &str,
    c: usize,
    d: usize,
    strong_n: usize,
    per_rank: usize,
    extended: bool,
    threads: usize,
    eta_groups: usize,
    backend: Backend,
    model: &CostModel,
    csv: bool,
) {
    let mut headers = vec![
        "p",
        "thr",
        "grp",
        "mode",
        "backend",
        "objective",
        "eig",
        "other",
    ];
    headers.extend(COMM_HEADERS);
    headers.extend(["total", "th:compute"]);
    let mut table = Table::new(title.to_string(), &headers);
    for mode in ["strong", "weak"] {
        for p in RANKS {
            if !p.is_multiple_of(eta_groups) {
                eprintln!("skipping p={p} ({mode}): --eta-groups {eta_groups} does not divide it");
                continue;
            }
            let n = if mode == "strong" {
                strong_n
            } else {
                per_rank * p
            };
            let problem = scaling_problem(c, d, n, extended, 9, 10);
            // Theoretical compute (§III-C) of the measured body (one full
            // ROUND iteration plus the next scoring pass, `FIG7_BUDGET`) at
            // a group size of p_shard ranks: two triangular scoring passes
            // of 2·n/p_shard·c·d² each, one distributed eigensolve
            // (c/p_shard)·300·d³, replicated block factors c·d³. With η
            // groups each group runs its slice of the grid, so the model
            // scales by the longest slice.
            let p_shard = p / eta_groups;
            let grid_len = if eta_groups == 1 {
                1 // fixed-η body: exactly one ROUND run
            } else {
                firal_core::RoundConfig::<f32>::default().eta_grid.len()
            };
            let slice_len = firal_comm::shard_range(grid_len, 0, eta_groups).len();
            let cm1 = (c - 1) as f64;
            let (nf, df) = ((n as f64) / p_shard as f64, d as f64);
            let flops = (4.0 * nf * cm1 * df * df
                + 300.0 * (cm1 / p_shard as f64) * df * df * df
                + cm1 * df * df * df)
                * slice_len as f64;
            let th_compute = model.flop_time(flops as u64);

            // One (grp, timer, per-group stats) tuple per emitted row.
            let rows: Vec<(usize, firal_core::PhaseTimer, firal_comm::CommStats)> =
                if eta_groups == 1 {
                    let results =
                        launch_backend(backend, p, |comm| fig7_rank_body(&problem, threads, comm));
                    let (timer, stats) = results[0].clone();
                    vec![(0, timer, stats)]
                } else {
                    let results = launch_backend(backend, p, |comm| {
                        let rep = fig7_eta_sweep_rank_body(&problem, threads, eta_groups, comm);
                        (rep.group, rep.timer, rep.group_stats)
                    });
                    // Each group's shard-rank-0 endpoint is representative.
                    results.iter().step_by(p_shard).cloned().collect()
                };
            for (grp, timer, stats) in rows {
                let mut row = vec![
                    p.to_string(),
                    threads.to_string(),
                    grp.to_string(),
                    mode.to_string(),
                    backend.tag().to_string(),
                    format!("{:.4}", timer.get("objective").as_secs_f64()),
                    format!("{:.4}", timer.get("eig").as_secs_f64()),
                    format!("{:.4}", timer.get("other").as_secs_f64()),
                ];
                row.extend(comm_cells(&stats));
                row.extend([
                    format!("{:.4}", timer.total().as_secs_f64()),
                    format!("{th_compute:.4}"),
                ]);
                table.row(&row);
            }
        }
    }
    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}

fn main() {
    let csv = has_flag("--csv");
    let threads: usize = arg_value("--threads").unwrap_or(1);
    let eta_groups: usize = arg_value("--eta-groups").unwrap_or(1).max(1);
    let n_imagenet: usize = arg_value("--n").unwrap_or(24_000);
    let per_rank: usize = arg_value("--per-rank").unwrap_or(2_000);
    let backend: Backend = arg_value::<String>("--backend")
        .map(|s| s.parse().expect("bad --backend"))
        .unwrap_or_default();
    // Calibrate the peak inside a pool of the same size each rank's kernels
    // will use, so the theoretical columns compare like with like;
    // communication at the paper's IB-HDR constants so the comm shape
    // matches Fig. 6/7.
    let host = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("calibration pool")
        .install(|| CostModel::calibrate_on_host(160));
    eprintln!(
        "calibrated peak ({threads} thr): {:.2} GFLOP/s",
        host.peak_flops / 1e9
    );
    let model = CostModel {
        peak_flops: host.peak_flops,
        ..CostModel::paper_a100()
    };

    scaling_table(
        "Fig. 7 — ROUND scaling, ImageNet-1k-like (c=100, d=96)",
        100,
        96,
        n_imagenet,
        per_rank,
        false,
        threads,
        eta_groups,
        backend,
        &model,
        csv,
    );
    scaling_table(
        "Fig. 7 — ROUND scaling, extended CIFAR-10-like (c=10, d=128)",
        10,
        128,
        2 * n_imagenet,
        2 * per_rank,
        true,
        threads,
        eta_groups,
        backend,
        &model,
        csv,
    );
}
