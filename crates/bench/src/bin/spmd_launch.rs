//! SPMD process launcher: fork `p` ranks of this binary and run a
//! registered workload over the [`SocketComm`] TCP mesh — or, for
//! `paper`, run the paper ledger in this process.
//!
//! The parent re-executes itself `p` times with the rendezvous env vars
//! set ([`firal_comm::socket_comm::ENV_RANK`] / `ENV_SIZE` / `ENV_ADDR`);
//! each child joins the process group via [`SocketComm`]`::from_env` and
//! runs the selected workload. Any rank exiting non-zero fails the whole
//! launch (remaining ranks are killed so a dead peer cannot hang the
//! mesh). A malformed option value exits 2 naming the flag.
//!
//! Usage: `spmd_launch [-p N] [workload] [workload options]`
//!
//! Workloads:
//! * `firal` (default) — Approx-FIRAL end-to-end over SocketComm on a
//!   seeded synthetic problem; every rank verifies the selected indices
//!   against the serial `SelfComm` reference computed in-process and that
//!   real wire time was measured. Non-zero exit on any divergence — this
//!   is the multi-process consistency gate CI runs at `-p 2`.
//! * `fig7` — the §IV-A η-grid sweep (budget
//!   [`firal_bench::workloads::FIG7_BUDGET`]) distributed over
//!   `--eta-groups G` sub-communicator groups of the process mesh (`G`
//!   must divide `-p`; default 1), strong (`--n`) and weak (`--per-rank`)
//!   pools; every rank cross-checks (η★, selection) over the mesh and
//!   rank 0 prints one `grp` row per group with that group's own
//!   `CommStats`. Options: `--n`, `--per-rank`, `--threads`,
//!   `--eta-groups`. CI runs it at `-p 4 --eta-groups 2`.
//! * `strat` — the strategy consistency gate: every registered selection
//!   strategy named by `--strategy` (comma-separated; default
//!   `upal,bayes-batch`) runs distributed over the process mesh via the
//!   executor-generic `DistStrategy` path and is verified against the
//!   serial `SelfComm` selection of the same seeded problem; one table row
//!   per strategy (`strategy` column + per-rank `CommStats`). Options:
//!   `--strategy`, `--n`, `--budget`, `--seed`, `--threads`. Non-zero exit
//!   on any divergence — CI runs this at `-p 2`.
//! * `serve` — **active-learning-as-a-service**: hold the warm rank mesh
//!   open as a persistent selection server (`firal-serve`). Rank 0 binds
//!   `--addr` (default `127.0.0.1:7700`) and accepts selection clients
//!   (`firal_serve::ServeClient`; `tests/serve_soak.rs` drives one);
//!   batches of requests run concurrently on disjoint sub-communicators.
//!   Options: `--addr`, `--min-batch N` (hold rounds until N requests are
//!   queued). Runs until a client sends a shutdown request; exits 45 if
//!   the mesh degraded instead.
//! * `paper` — the paper ledger ([`firal_bench::paper`]), run here
//!   without forking (`-p` is ignored; rows that need p > 1 use
//!   in-process `ThreadComm` ranks): rewrites `BENCH_paper.json`, or with
//!   `--check FILE` re-runs it and exits 1 naming every claim whose
//!   verdict differs from `FILE`'s.
//!
//! Examples:
//! ```text
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4 fig7 --eta-groups 2 --n 400 --per-rank 100
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 2 strat --strategy upal,bayes-batch,approx-firal
//! cargo run --release -p firal-bench --bin spmd_launch -- -p 4 serve --addr 127.0.0.1:7700
//! cargo run --release -p firal-bench --bin spmd_launch -- paper --check BENCH_paper.json
//! ```

use std::time::Duration;

use firal_bench::args::{has_flag, opt};
use firal_bench::workloads::{
    fig7_eta_sweep_rank_body, scaling_problem, selection_problem_from_dataset, strategy_rank_body,
};
use firal_comm::{comm_catch, fork_self, CommStats, Communicator, SelfComm, SocketComm};
use firal_core::{
    select_serial, strategy_by_name, EigSolver, Executor, MirrorDescentConfig, RelaxConfig,
    ShardedProblem,
};
use firal_data::SyntheticConfig;

const WORKLOADS: [&str; 5] = ["firal", "fig7", "strat", "serve", "paper"];

/// Options that take a value (so the value is not read as the workload).
const VALUE_OPTIONS: &str =
    "-p --ranks --n --per-rank --threads --eta-groups --strategy --budget --seed --addr --min-batch --check";

/// First positional (non-flag) argument = the workload name.
fn workload_name(args: &[String]) -> String {
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            a if VALUE_OPTIONS.split(' ').any(|o| o == a) => i += 2,
            a if a.starts_with('-') => i += 1,
            a => return a.to_string(),
        }
    }
    "firal".to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if has_flag(&args, "--help") || has_flag(&args, "-h") {
        println!(
            "Usage: spmd_launch [-p N] [{}] [options]",
            WORKLOADS.join("|")
        );
        println!("Runs N processes of this binary over the SocketComm TCP mesh.");
        return;
    }
    let name = workload_name(&args);
    if name == "paper" {
        std::process::exit(firal_bench::paper::main(&args));
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
        let code = match name.as_str() {
            "firal" => workload_firal(&comm),
            "fig7" => workload_fig7(&comm, &args),
            "strat" => workload_strategies(&comm, &args),
            "serve" => workload_serve(&comm, &args),
            other => {
                eprintln!("unknown workload {other:?}; known: {WORKLOADS:?}");
                2
            }
        };
        std::process::exit(code);
    }

    // Parent mode: fork the ranks and propagate their status.
    let p: usize = opt(&args, "-p")
        .or_else(|| opt(&args, "--ranks"))
        .unwrap_or(2);
    eprintln!("spmd_launch: {p} process ranks, workload {name:?}");
    let code = fork_self(p).expect("failed to spawn SPMD ranks");
    if code != 0 {
        eprintln!("spmd_launch: workload {name:?} FAILED (exit {code})");
    }
    std::process::exit(code);
}

/// Column headers matching [`comm_cells`]: per-collective call counts,
/// total megabytes contributed to collectives, and measured seconds spent
/// inside them.
const COMM_HEADERS: [&str; 3] = ["coll calls (ar/bc/ag)", "coll MB", "comm s"];

/// Render one rank's [`CommStats`] as table cells (pairs with
/// [`COMM_HEADERS`]). Byte counts are this rank's contributions; on
/// symmetric SPMD runs rank 0 is representative.
fn comm_cells(stats: &CommStats) -> [String; 3] {
    [
        format!(
            "{}/{}/{}",
            stats.allreduce_calls, stats.bcast_calls, stats.allgather_calls
        ),
        format!("{:.2}", stats.total_bytes() as f64 / 1e6),
        format!("{:.3}", stats.time.as_secs_f64()),
    ]
}

/// A simple aligned-text table for the gates' rank-0 reports.
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            padded.join("  ").trim_end().to_string() + "\n"
        };
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&line(&self.headers));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
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

/// The distributed η-grid gate: every process joins the 2D geometry
/// `p = p_shard × G`, the winning (η★, selection) is cross-checked for
/// rank agreement over the mesh, and rank 0 prints one row per (mode,
/// group) from each group's shard-rank-0 process.
fn workload_fig7(comm: &SocketComm, args: &[String]) -> i32 {
    let strong_n: usize = opt(args, "--n").unwrap_or(24_000);
    let per_rank: usize = opt(args, "--per-rank").unwrap_or(2_000);
    let threads: usize = opt(args, "--threads").unwrap_or(1);
    let eta_groups: usize = opt(args, "--eta-groups").unwrap_or(1).max(1);
    let p = comm.size();
    if !p.is_multiple_of(eta_groups) {
        eprintln!("--eta-groups {eta_groups} must divide the rank count {p}");
        return 2;
    }
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
        let problem = scaling_problem(100, 96, n, 9);
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
        println!("{}", table.render());
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
fn workload_strategies(comm: &SocketComm, args: &[String]) -> i32 {
    let n: usize = opt(args, "--n").unwrap_or(240);
    let budget: usize = opt(args, "--budget").unwrap_or(8);
    let seed: u64 = opt(args, "--seed").unwrap_or(5);
    let threads: usize = opt(args, "--threads").unwrap_or(1);
    let names: String = opt(args, "--strategy").unwrap_or_else(|| "upal,bayes-batch".to_string());

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
        println!("{}", table.render());
    }
    i32::from(!all_ok)
}

/// Active-learning-as-a-service: hold the warm mesh open as a persistent
/// selection server until a client requests shutdown. Exit codes: 0 clean
/// shutdown, 45 the mesh degraded mid-service (a request's sub-group
/// failed and the server wound down reporting it), 4 the serve control
/// plane itself failed.
fn workload_serve(comm: &SocketComm, args: &[String]) -> i32 {
    let addr: String = opt(args, "--addr").unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let min_batch: usize = opt(args, "--min-batch").unwrap_or(1);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["longer-name".into(), "1".into()]);
        t.row(&["x".into(), "22".into()]);
        let text = t.render();
        assert!(text.starts_with("== demo ==\n"));
        assert!(text.contains("name         value\n"));
        assert!(text.contains("x            22\n"));
    }

    #[test]
    fn comm_cells_render_counts_and_megabytes() {
        let stats = CommStats {
            allreduce_calls: 3,
            allreduce_bytes: 1_500_000,
            bcast_calls: 2,
            bcast_bytes: 500_000,
            allgather_calls: 1,
            allgather_bytes: 0,
            time: std::time::Duration::from_millis(250),
        };
        let cells = comm_cells(&stats);
        assert_eq!(cells[0], "3/2/1");
        assert_eq!(cells[1], "2.00");
        assert_eq!(cells[2], "0.250");
        assert_eq!(cells.len(), COMM_HEADERS.len());
    }

    #[test]
    fn workload_is_the_first_positional_argument() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert_eq!(workload_name(&args("spmd_launch -p 4")), "firal");
        assert_eq!(
            workload_name(&args("spmd_launch -p 4 fig7 --eta-groups 2")),
            "fig7"
        );
        assert_eq!(
            workload_name(&args("spmd_launch --check BENCH_paper.json paper")),
            "paper"
        );
    }
}
