//! SPMD process launcher: fork `p` ranks of this binary and run a
//! registered workload over the [`SocketComm`] TCP mesh.
//!
//! The parent re-executes itself `p` times with the rendezvous env vars
//! set ([`firal_comm::socket_comm::ENV_RANK`] / `ENV_SIZE` / `ENV_ADDR`);
//! each child joins the process group via [`SocketComm`]`::from_env` and
//! runs the selected workload. Any rank exiting non-zero fails the whole
//! launch (remaining ranks are killed so a dead peer cannot hang the
//! mesh).
//!
//! Usage: `spmd_launch [-p N] [workload] [workload options]`
//!
//! Workloads:
//! * `firal` (default) — Approx-FIRAL end-to-end over SocketComm on a
//!   seeded synthetic problem; every rank verifies the selected indices
//!   against the serial `SelfComm` reference computed in-process and that
//!   real wire time was measured. Non-zero exit on any divergence — this
//!   is the multi-process consistency gate CI runs at `-p 2`.
//! * `fig6` — the Fig. 6 RELAX scaling row (strong + weak) at the launched
//!   rank count, sharing [`firal_bench::workloads::fig6_rank_body`] with
//!   the thread-backend figure binary. Options: `--n`, `--per-rank`,
//!   `--ncg`, `--csv`.
//! * `fig7` — the Fig. 7 ROUND scaling row at the launched rank count.
//!   Options: `--n`, `--per-rank`, `--csv`, `--threads`, and
//!   `--eta-groups G` (distribute the §IV-A η grid over `G`
//!   sub-communicator groups of the process mesh — `G` must divide `-p` —
//!   and print one `grp` row per group with that group's own `CommStats`).
//! * `scaling` — the `distributed_scaling` example's measurement row at
//!   the launched rank count.
//! * `strat` — the strategy consistency gate + scaling rows: every
//!   registered selection strategy named by `--strategy` (comma-separated;
//!   default `upal,bayes-batch`) runs distributed over the process mesh
//!   via the executor-generic `DistStrategy` path and is verified against
//!   the serial `SelfComm` selection of the same seeded problem; one table
//!   row per strategy (`strategy` column + per-rank `CommStats`). Options:
//!   `--strategy`, `--n`, `--budget`, `--seed`, `--threads`. Non-zero exit
//!   on any divergence — CI runs this at `-p 2`.
//! * `serve` — **active-learning-as-a-service**: hold the warm rank mesh
//!   open as a persistent selection server (`firal-serve`). Rank 0 binds
//!   `--addr` (default `127.0.0.1:7700`) and accepts selection clients
//!   (see the `serve_load` binary); batches of requests run concurrently
//!   on disjoint sub-communicators. Options: `--addr`, `--min-batch N`
//!   (hold rounds until N requests are queued). Runs until a client sends
//!   a shutdown request; exits 45 if the mesh degraded instead.
//! * `stream` — the **streaming round-state** latency row: a persistent
//!   `StreamingState` is advanced by update batches of growing `Δpool`
//!   (capped at 1% of the pool) and each commit + post-commit selection is
//!   timed against the from-scratch rebuild baseline, demonstrating the
//!   `O(Δpool)` maintenance cost. Rank 0 writes `BENCH_stream.json`
//!   (override with `--out`). Options: `--n`, `--budget`, `--out`.
//!   Non-zero exit if ranks' replicated fingerprints or selections
//!   diverge.
//!
//! Examples:
//! ```text
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4 fig6 --n 8000
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 2 scaling
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 2 strat --strategy upal,bayes-batch,approx-firal
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4 serve --addr 127.0.0.1:7700
//! ```

use std::time::Duration;

use firal_bench::report::{arg_value, comm_cells, has_flag, Table, COMM_HEADERS};
use firal_bench::workloads::{
    fig6_rank_body, fig7_eta_sweep_rank_body, fig7_rank_body, scaling_problem,
    selection_problem_from_dataset, strategy_rank_body,
};
use firal_comm::{comm_catch, fork_self, CommStats, Communicator, SelfComm, SocketComm};
use firal_core::{
    select_serial, strategy_by_name, EigSolver, Executor, MirrorDescentConfig, RelaxConfig,
    ShardedProblem,
};
use firal_data::SyntheticConfig;

const WORKLOADS: [&str; 7] = [
    "firal", "fig6", "fig7", "scaling", "strat", "serve", "stream",
];

/// Rank count from `-p`/`--ranks` (default 2); a malformed value is fatal,
/// not silently replaced by the default.
fn ranks_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len().saturating_sub(1) {
        if args[i] == "-p" || args[i] == "--ranks" {
            return args[i + 1]
                .parse()
                .unwrap_or_else(|_| panic!("bad rank count {:?}", args[i + 1]));
        }
    }
    2
}

/// First positional (non-flag) argument = the workload name.
fn workload_name() -> String {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-p" | "--ranks" | "--n" | "--per-rank" | "--ncg" | "--threads" | "--eta-groups"
            | "--strategy" | "--budget" | "--seed" | "--addr" | "--min-batch" | "--out" => i += 2,
            a if a.starts_with('-') => i += 1,
            a => return a.to_string(),
        }
    }
    "firal".to_string()
}

fn main() {
    if has_flag("--help") || has_flag("-h") {
        println!(
            "Usage: spmd_launch [-p N] [{}] [options]",
            WORKLOADS.join("|")
        );
        println!("Runs N processes of this binary over the SocketComm TCP mesh.");
        return;
    }

    // Child mode: the launcher's env coordinates are set.
    if let Some(comm) = SocketComm::from_env() {
        let comm = match comm {
            Ok(c) => c,
            Err(e) => {
                eprintln!("spmd rendezvous failed: {e}");
                std::process::exit(3);
            }
        };
        // A panicking rank (e.g. a verifier mismatch abort) broadcasts its
        // diagnostic so peers fail with RemoteAbort instead of hanging.
        comm.install_panic_abort();
        let name = workload_name();
        let code = match name.as_str() {
            "firal" => workload_firal(&comm),
            "fig6" => workload_fig6(&comm),
            "fig7" => workload_fig7(&comm),
            "scaling" => workload_scaling(&comm),
            "strat" => workload_strategies(&comm),
            "serve" => workload_serve(&comm),
            "stream" => workload_stream(&comm),
            other => {
                eprintln!("unknown workload {other:?}; known: {WORKLOADS:?}");
                2
            }
        };
        std::process::exit(code);
    }

    // Parent mode: fork the ranks and propagate their status.
    let p = ranks_arg();
    let name = workload_name();
    eprintln!("spmd_launch: {p} process ranks, workload {name:?}");
    let code = fork_self(p).expect("failed to spawn SPMD ranks");
    if code != 0 {
        eprintln!("spmd_launch: workload {name:?} FAILED (exit {code})");
    }
    std::process::exit(code);
}

/// The CI consistency gate: Approx-FIRAL over the socket mesh must select
/// the identical batch as the serial SelfComm run of the same seeded
/// problem, with real wire time measured on every rank.
fn workload_firal(comm: &SocketComm) -> i32 {
    let ds = SyntheticConfig::new(4, 6)
        .with_pool_size(240)
        .with_initial_per_class(2)
        .with_seed(42)
        .generate::<f64>();
    let problem = selection_problem_from_dataset(&ds);
    let budget = 8;
    let eta = 6.0 * (problem.ehat() as f64).sqrt();
    let cfg = RelaxConfig {
        seed: 11,
        md: MirrorDescentConfig {
            max_iters: 8,
            ..Default::default()
        },
        ..Default::default()
    };

    // This rank's share of the distributed run, under a `comm_catch`
    // boundary: a peer failure is reported as a structured error and a
    // clean exit, not a hung mesh or an opaque panic.
    let shard = ShardedProblem::shard(&problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard);
    let (relax, round) = match comm_catch(|| {
        let relax = exec.relax(budget, &cfg);
        let round = exec.round(&relax.z_local, budget, eta, EigSolver::Exact);
        (relax, round)
    }) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("rank {}: {e}", comm.rank());
            return 4;
        }
    };
    let mut stats = relax.comm_stats;
    stats.merge(&round.comm_stats);

    // Serial reference — the SelfComm instantiation of the same code —
    // computed once on rank 0 and broadcast, not duplicated on every rank.
    let mut ref_buf = vec![0.0f64; budget];
    if comm.rank() == 0 {
        let self_comm = SelfComm::new();
        let full = ShardedProblem::replicate(&problem);
        let ref_exec = Executor::new(&self_comm, &full);
        let ref_relax = ref_exec.relax(budget, &cfg);
        let ref_run = ref_exec.round(&ref_relax.z_local, budget, eta, EigSolver::Exact);
        for (slot, &idx) in ref_buf.iter_mut().zip(&ref_run.selected) {
            *slot = idx as f64;
        }
    }
    comm.bcast_f64(&mut ref_buf, 0);
    let ref_selected: Vec<usize> = ref_buf.iter().map(|&v| v as usize).collect();

    let selection_ok = round.selected == ref_selected;
    if !selection_ok {
        eprintln!(
            "rank {}: selection diverged from the serial reference: {:?} vs {:?}",
            comm.rank(),
            round.selected,
            ref_selected
        );
    }
    let wire_ok = comm.size() == 1 || stats.time > Duration::ZERO;
    if !wire_ok {
        eprintln!("rank {}: expected nonzero measured wire time", comm.rank());
    }

    // Per-rank report, gathered over the mesh itself.
    let ok = selection_ok && wire_ok;
    let row = [
        stats.time.as_secs_f64(),
        stats.total_bytes() as f64,
        stats.total_calls() as f64,
        if ok { 1.0 } else { 0.0 },
    ];
    let all = comm.allgatherv_f64(&row);
    if comm.rank() == 0 {
        println!(
            "Approx-FIRAL over SocketComm: p={} pool n={} d={} c={} budget={}",
            comm.size(),
            problem.pool_size(),
            problem.dim(),
            problem.num_classes,
            budget
        );
        println!("selected (all ranks): {:?}", round.selected);
        println!(
            "serial SelfComm reference: {:?} -> {}",
            ref_selected,
            if selection_ok { "MATCH" } else { "MISMATCH" }
        );
        let mut table = Table::new(
            "per-rank communication",
            &["rank", "comm s", "MB", "calls", "verified"],
        );
        for (r, chunk) in all.chunks_exact(row.len()).enumerate() {
            table.row(&[
                r.to_string(),
                format!("{:.4}", chunk[0]),
                format!("{:.3}", chunk[1] / 1e6),
                format!("{}", chunk[2] as u64),
                if chunk[3] == 1.0 { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
        println!("{}", table.render());
    }
    // Every rank also fails if any peer failed, so the launch status is
    // unambiguous regardless of which child the shell reports.
    let all_ok = all.chunks_exact(row.len()).all(|c| c[3] == 1.0);
    i32::from(!(ok && all_ok))
}

fn scaling_row_table(
    title: &str,
    comm: &SocketComm,
    phase_headers: &[&str],
    rows: Vec<(String, Vec<String>, CommStats)>,
) {
    if comm.rank() != 0 {
        return;
    }
    let mut headers = vec!["p", "mode", "backend"];
    headers.extend_from_slice(phase_headers);
    headers.extend(COMM_HEADERS);
    let mut table = Table::new(title.to_string(), &headers);
    for (mode, phases, stats) in rows {
        let mut row = vec![comm.size().to_string(), mode, "socket-proc".to_string()];
        row.extend(phases);
        row.extend(comm_cells(&stats));
        table.row(&row);
    }
    if has_flag("--csv") {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}

/// Fig. 6 RELAX scaling rows (strong + weak) at the launched rank count.
fn workload_fig6(comm: &SocketComm) -> i32 {
    let ncg: usize = arg_value("--ncg").unwrap_or(10);
    let strong_n: usize = arg_value("--n").unwrap_or(24_000);
    let per_rank: usize = arg_value("--per-rank").unwrap_or(2_000);
    let p = comm.size();
    let mut rows = Vec::new();
    for mode in ["strong", "weak"] {
        let n = if mode == "strong" {
            strong_n
        } else {
            per_rank * p
        };
        let problem = scaling_problem(100, 96, n, false, 7, 8);
        let threads: usize = arg_value("--threads").unwrap_or(1);
        let (timer, stats) = fig6_rank_body(&problem, ncg, threads, comm);
        rows.push((
            mode.to_string(),
            vec![
                format!("{:.3}", timer.get("precond").as_secs_f64()),
                format!("{:.3}", timer.get("cg").as_secs_f64()),
                format!("{:.3}", timer.get("gradient").as_secs_f64()),
                format!("{:.3}", timer.total().as_secs_f64()),
            ],
            stats,
        ));
    }
    scaling_row_table(
        "Fig. 6 — RELAX scaling over SocketComm processes (c=100, d=96)",
        comm,
        &["precond", "cg", "gradient", "total"],
        rows,
    );
    0
}

/// Fig. 7 ROUND scaling rows (strong + weak) at the launched rank count.
/// With `--eta-groups G > 1` the measured body becomes the distributed
/// η-grid sweep and the table carries one `grp` row per group with that
/// group's own per-process `CommStats`.
fn workload_fig7(comm: &SocketComm) -> i32 {
    let strong_n: usize = arg_value("--n").unwrap_or(24_000);
    let per_rank: usize = arg_value("--per-rank").unwrap_or(2_000);
    let threads: usize = arg_value("--threads").unwrap_or(1);
    let eta_groups: usize = arg_value("--eta-groups").unwrap_or(1).max(1);
    let p = comm.size();
    if !p.is_multiple_of(eta_groups) {
        eprintln!("--eta-groups {eta_groups} must divide the rank count {p}");
        return 2;
    }
    if eta_groups > 1 {
        return workload_fig7_eta_groups(comm, strong_n, per_rank, threads, eta_groups);
    }
    let mut rows = Vec::new();
    for mode in ["strong", "weak"] {
        let n = if mode == "strong" {
            strong_n
        } else {
            per_rank * p
        };
        let problem = scaling_problem(100, 96, n, false, 9, 10);
        let (timer, stats) = fig7_rank_body(&problem, threads, comm);
        rows.push((
            mode.to_string(),
            vec![
                format!("{:.4}", timer.get("objective").as_secs_f64()),
                format!("{:.4}", timer.get("eig").as_secs_f64()),
                format!("{:.4}", timer.get("other").as_secs_f64()),
                format!("{:.4}", timer.total().as_secs_f64()),
            ],
            stats,
        ));
    }
    scaling_row_table(
        "Fig. 7 — ROUND scaling over SocketComm processes (c=100, d=96)",
        comm,
        &["objective", "eig", "other", "total"],
        rows,
    );
    0
}

/// The η-grid variant of [`workload_fig7`]: every process joins the 2D
/// geometry, the winning (η★, selection) is cross-checked for rank
/// agreement over the mesh, and rank 0 prints one row per (mode, group)
/// from each group's shard-rank-0 process.
fn workload_fig7_eta_groups(
    comm: &SocketComm,
    strong_n: usize,
    per_rank: usize,
    threads: usize,
    eta_groups: usize,
) -> i32 {
    let p = comm.size();
    let p_shard = p / eta_groups;
    let mut headers = vec!["p", "grp", "mode", "backend", "objective", "eig", "other"];
    headers.extend(COMM_HEADERS);
    headers.push("total");
    let mut table = Table::new(
        format!(
            "Fig. 7 — η grid over {eta_groups} SocketComm process groups \
             (p = {p_shard}×{eta_groups}, c=100, d=96)"
        ),
        &headers,
    );
    let mut consistent = true;
    for mode in ["strong", "weak"] {
        let n = if mode == "strong" {
            strong_n
        } else {
            per_rank * p
        };
        let problem = scaling_problem(100, 96, n, false, 9, 10);
        let rep = fig7_eta_sweep_rank_body(&problem, threads, eta_groups, comm);

        // All ranks must agree on (η★, selection); verify over the mesh.
        let mut row = vec![rep.eta_star as f64];
        row.extend(rep.selected.iter().map(|&i| i as f64));
        let gathered = comm.allgatherv_f64(&row);
        let ok = gathered.chunks_exact(row.len()).all(|c| c == row);
        if !ok {
            eprintln!(
                "rank {}: ranks disagreed on the η sweep winner",
                comm.rank()
            );
            consistent = false;
        }

        // Per-rank report row, gathered so rank 0 can print each group's
        // shard-rank-0 process.
        let s = &rep.group_stats;
        let report = [
            rep.group as f64,
            rep.timer.get("objective").as_secs_f64(),
            rep.timer.get("eig").as_secs_f64(),
            rep.timer.get("other").as_secs_f64(),
            rep.timer.total().as_secs_f64(),
            s.allreduce_calls as f64,
            s.bcast_calls as f64,
            s.allgather_calls as f64,
            s.total_bytes() as f64,
            s.time.as_secs_f64(),
        ];
        let all = comm.allgatherv_f64(&report);
        if comm.rank() == 0 {
            // Each group's shard-rank-0 endpoint is representative.
            for (g, chunk) in all.chunks(report.len()).step_by(p_shard).enumerate() {
                table.row(&[
                    p.to_string(),
                    format!("{g}"),
                    mode.to_string(),
                    "socket-proc".to_string(),
                    format!("{:.4}", chunk[1]),
                    format!("{:.4}", chunk[2]),
                    format!("{:.4}", chunk[3]),
                    format!(
                        "{}/{}/{}",
                        chunk[5] as u64, chunk[6] as u64, chunk[7] as u64
                    ),
                    format!("{:.2}", chunk[8] / 1e6),
                    format!("{:.3}", chunk[9]),
                    format!("{:.4}", chunk[4]),
                ]);
            }
        }
    }
    if comm.rank() == 0 {
        if has_flag("--csv") {
            println!("{}", table.to_csv());
        } else {
            println!("{}", table.render());
        }
    }
    i32::from(!consistent)
}

/// The strategy consistency gate: every requested registry strategy runs
/// distributed over the process mesh through the executor-generic
/// `DistStrategy` path, all ranks must agree on the batch, and the batch
/// must equal the serial `SelfComm` selection of the same seeded problem
/// (computed once on rank 0 and broadcast). One fig-style table row per
/// strategy, with the `strategy` column and this mesh's per-rank comm
/// record.
fn workload_strategies(comm: &SocketComm) -> i32 {
    let n: usize = arg_value("--n").unwrap_or(240);
    let budget: usize = arg_value("--budget").unwrap_or(8);
    let seed: u64 = arg_value("--seed").unwrap_or(5);
    let threads: usize = arg_value("--threads").unwrap_or(1);
    let names: String =
        arg_value::<String>("--strategy").unwrap_or_else(|| "upal,bayes-batch".to_string());

    let ds = SyntheticConfig::new(4, 6)
        .with_pool_size(n)
        .with_initial_per_class(2)
        .with_seed(17)
        .generate::<f64>();
    let problem = selection_problem_from_dataset(&ds);

    let mut headers = vec!["p", "strategy", "backend", "select s"];
    headers.extend(COMM_HEADERS);
    headers.push("verified");
    let mut table = Table::new(
        format!(
            "Selection strategies over SocketComm processes (pool n={n} d={} c={}, budget={budget})",
            problem.dim(),
            problem.num_classes
        ),
        &headers,
    );
    let mut all_ok = true;
    for name in names.split(',').filter(|s| !s.is_empty()) {
        let rep = strategy_rank_body(&problem, name, budget, seed, threads, comm);

        // Serial reference on rank 0, broadcast over the mesh.
        let mut ref_buf = vec![0.0f64; budget];
        if comm.rank() == 0 {
            let serial = strategy_by_name::<f64>(name)
                .and_then(|s| select_serial(s.as_ref(), &problem, budget, seed))
                .unwrap_or_else(|e| panic!("serial {name}: {e}"));
            for (slot, &idx) in ref_buf.iter_mut().zip(&serial.selected) {
                *slot = idx as f64;
            }
        }
        comm.bcast_f64(&mut ref_buf, 0);
        let reference: Vec<usize> = ref_buf.iter().map(|&v| v as usize).collect();

        // Every rank checks itself AND gathers peer agreement, so one exit
        // code covers both rank-divergence and serial-divergence.
        let ok = rep.selected == reference;
        if !ok {
            eprintln!(
                "rank {}: strategy {name}: {:?} diverged from serial {:?}",
                comm.rank(),
                rep.selected,
                reference
            );
        }
        let row = [rep.seconds, if ok { 1.0 } else { 0.0 }];
        let gathered = comm.allgatherv_f64(&row);
        let peers_ok = gathered.chunks_exact(row.len()).all(|c| c[1] == 1.0);
        all_ok &= ok && peers_ok;
        if comm.rank() == 0 {
            let mut cells = vec![
                comm.size().to_string(),
                name.to_string(),
                "socket-proc".to_string(),
                format!("{:.4}", rep.seconds),
            ];
            cells.extend(comm_cells(&rep.comm_stats));
            cells.push(if ok && peers_ok { "ok" } else { "FAIL" }.to_string());
            table.row(&cells);
        }
    }
    if comm.rank() == 0 {
        if has_flag("--csv") {
            println!("{}", table.to_csv());
        } else {
            println!("{}", table.render());
        }
    }
    i32::from(!all_ok)
}

/// Active-learning-as-a-service: hold the warm mesh open as a persistent
/// selection server until a client requests shutdown. Exit codes: 0 clean
/// shutdown, 45 the mesh degraded mid-service (a request's sub-group
/// failed and the server wound down reporting it), 4 the serve control
/// plane itself failed.
fn workload_serve(comm: &SocketComm) -> i32 {
    let addr: String = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let min_batch: usize = arg_value("--min-batch").unwrap_or(1);
    let config = firal_serve::ServeConfig::new(addr.clone()).with_min_batch(min_batch);
    if comm.rank() == 0 {
        eprintln!(
            "serve: {}-rank mesh listening on {addr} (min batch {min_batch})",
            comm.size()
        );
    }
    match firal_serve::run(comm, &config) {
        Ok(summary) => {
            if comm.rank() == 0 {
                println!(
                    "serve: {} rounds, {} ok / {} err requests{}",
                    summary.rounds,
                    summary.requests_ok,
                    summary.requests_err,
                    match &summary.degraded {
                        Some(why) => format!(", DEGRADED: {why}"),
                        None => String::new(),
                    }
                );
            }
            i32::from(summary.degraded.is_some()) * 45
        }
        Err(e) => {
            eprintln!("rank {}: serve failed: {e}", comm.rank());
            4
        }
    }
}

/// The streaming round-state latency row: advance a persistent
/// [`firal_core::StreamingState`] by update batches of growing `Δpool` (capped at 1%
/// of the pool), timing each collective commit and the post-commit
/// selection against the from-scratch rebuild baseline. Rank 0 emits
/// `BENCH_stream.json`; every rank cross-checks the replicated fingerprint
/// and the selection over the mesh and the launch fails on divergence.
fn workload_stream(comm: &SocketComm) -> i32 {
    use firal_core::{FiralConfig, PoolUpdate, StreamingState};
    use std::fmt::Write as _;
    use std::time::Instant;

    let n: usize = arg_value("--n").unwrap_or(4_000);
    let budget: usize = arg_value("--budget").unwrap_or(4);
    let out_path: String = arg_value("--out").unwrap_or_else(|| "BENCH_stream.json".to_string());

    let ds = SyntheticConfig::new(3, 16)
        .with_pool_size(n)
        .with_initial_per_class(2)
        .with_seed(19)
        .generate::<f64>();
    let problem = selection_problem_from_dataset(&ds);
    let d = problem.dim();
    let cm1 = problem.nblocks();
    let weights: Vec<f64> = (0..n).map(|i| 0.04 + 0.01 * (i % 5) as f64).collect();
    let cfg = FiralConfig {
        // The measurement wants pure incremental commits; the rebuild
        // baseline is timed explicitly below instead of on a cadence.
        refactor_interval: usize::MAX,
        ..Default::default()
    };
    let mut st = StreamingState::new(comm, &problem, &weights, &cfg);
    let eta = 6.0 * (st.live() as f64).sqrt();

    // Δpool ladder, capped at 1% of the pool.
    let cap = (n / 100).max(1);
    let mut deltas: Vec<usize> = [1, cap / 8, cap / 4, cap / 2, cap]
        .into_iter()
        .filter(|&v| v > 0)
        .collect();
    deltas.dedup();

    let mut ok = true;
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for (step, &delta) in deltas.iter().enumerate() {
        // Scripted adds: identical on every rank, sized to the ladder rung.
        let batch: Vec<PoolUpdate<f64>> = (0..delta)
            .map(|i| PoolUpdate::Add {
                x: (0..d)
                    .map(|j| 0.05 * ((step * 13 + i * 7 + j * 3) % 17) as f64 - 0.4)
                    .collect(),
                h: (0..cm1)
                    .map(|k| 0.15 + 0.04 * ((i + k) % 5) as f64)
                    .collect(),
                weight: 0.03 + 0.005 * (i % 4) as f64,
            })
            .collect();
        let t0 = Instant::now();
        st.commit(comm, &batch);
        let mut commit_s = [t0.elapsed().as_secs_f64()];
        comm.allreduce_f64(&mut commit_s, firal_comm::ReduceOp::Max);

        let t0 = Instant::now();
        let run = st.select(comm, budget, eta, EigSolver::Exact);
        let mut select_s = [t0.elapsed().as_secs_f64()];
        comm.allreduce_f64(&mut select_s, firal_comm::ReduceOp::Max);

        // Cross-rank gate: replicated fingerprint halves + selection.
        let fp = st.fingerprint();
        let mut row: Vec<f64> = vec![(fp >> 32) as f64, (fp & 0xffff_ffff) as f64];
        row.extend(run.selected.iter().map(|&i| i as f64));
        let gathered = comm.allgatherv_f64(&row);
        if !gathered.chunks_exact(row.len()).all(|c| c == row) {
            eprintln!(
                "rank {}: Δ={delta}: ranks diverged (fingerprint or selection)",
                comm.rank()
            );
            ok = false;
        }
        rows.push((delta, commit_s[0], select_s[0]));
    }

    // The baseline an incremental commit replaces: a from-scratch rebuild
    // of the full O(n) round state.
    let t0 = Instant::now();
    st.refactor(comm);
    let mut rebuild_s = [t0.elapsed().as_secs_f64()];
    comm.allreduce_f64(&mut rebuild_s, firal_comm::ReduceOp::Max);

    if comm.rank() == 0 {
        let mut table = Table::new(
            format!(
                "Streaming round state over SocketComm (p={}, pool n={n}, d={d}, c={}): \
                 commit latency vs Δpool (rebuild baseline {:.4}s)",
                comm.size(),
                problem.num_classes,
                rebuild_s[0]
            ),
            &["Δpool", "commit s", "select s"],
        );
        for &(delta, commit, select) in &rows {
            table.row(&[
                delta.to_string(),
                format!("{commit:.5}"),
                format!("{select:.4}"),
            ]);
        }
        println!("{}", table.render());

        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"p\": {},", comm.size());
        let _ = writeln!(json, "  \"pool_n\": {n},");
        let _ = writeln!(json, "  \"d\": {d},");
        let _ = writeln!(json, "  \"c\": {},", problem.num_classes);
        let _ = writeln!(json, "  \"budget\": {budget},");
        let _ = writeln!(json, "  \"rebuild_s\": {:.6},", rebuild_s[0]);
        json.push_str("  \"rows\": [\n");
        for (i, &(delta, commit, select)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{\"delta\": {delta}, \"commit_s\": {commit:.6}, \
                 \"select_s\": {select:.6}}}{comma}"
            );
        }
        json.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&out_path, json) {
            eprintln!("failed to write {out_path}: {e}");
            return 4;
        }
        eprintln!("stream: wrote {out_path}");
    }
    i32::from(!ok)
}

/// The `distributed_scaling` example's measurement at the launched rank
/// count, over real processes (`examples/distributed_scaling.rs` runs the
/// in-process backends; this is its multi-process counterpart).
fn workload_scaling(comm: &SocketComm) -> i32 {
    let ds = SyntheticConfig::new(8, 24)
        .with_pool_size(4000)
        .with_initial_per_class(2)
        .with_seed(3)
        .generate::<f32>();
    let problem = selection_problem_from_dataset(&ds);
    let budget = 8;
    let eta = 8.0 * (problem.ehat() as f32).sqrt();
    let cfg = RelaxConfig {
        seed: 1,
        md: MirrorDescentConfig {
            max_iters: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let shard = ShardedProblem::shard(&problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard);
    let relax = exec.relax(budget, &cfg);
    let round = exec.round(&relax.z_local, budget, eta, EigSolver::Exact);
    let mut stats = relax.comm_stats;
    stats.merge(&round.comm_stats);

    // All ranks must agree on the selection; verify over the mesh.
    let sel_f64: Vec<f64> = round.selected.iter().map(|&i| i as f64).collect();
    let gathered = comm.allgatherv_f64(&sel_f64);
    let consistent = gathered.chunks_exact(budget).all(|c| c == sel_f64);
    if !consistent {
        eprintln!("rank {}: ranks disagreed on the selection", comm.rank());
    }
    if comm.rank() == 0 {
        println!(
            "distributed_scaling over SocketComm processes: p={} pool n={} d={} c={}",
            comm.size(),
            problem.pool_size(),
            problem.dim(),
            problem.num_classes
        );
        println!(
            "relax precond {:.3}s cg {:.3}s gradient {:.3}s | round {:.3}s | comm {:.4}s over {} calls / {:.2} MB",
            relax.timer.get("precond").as_secs_f64(),
            relax.timer.get("cg").as_secs_f64(),
            relax.timer.get("gradient").as_secs_f64(),
            round.timer.total().as_secs_f64(),
            stats.time.as_secs_f64(),
            stats.total_calls(),
            stats.total_bytes() as f64 / 1e6,
        );
        println!("selected: {:?}", round.selected);
    }
    i32::from(!consistent)
}
