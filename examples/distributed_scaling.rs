//! Mini Figs. 6–7: SPMD Approx-FIRAL on simulated ranks, timed per phase
//! against the paper's analytic communication model.
//!
//! Runs one RELAX mirror-descent solve and a short ROUND on p = 1, 2, 4
//! ranks, printing each phase's seconds (taken around the call) and RELAX's
//! CG iterations next to the cost model's prediction. Ranks default to
//! shared-memory `ThreadComm` threads; with `--socket` the same rank bodies
//! run over the real localhost-TCP `SocketComm` mesh, so the measured comm
//! column is actual wire time.
//!
//! Run with: `cargo run --release --example distributed_scaling [--socket]`
//!
//! For one OS process per rank, the fault-free probe of
//! `tests/fault_matrix.rs` runs RELAX, ROUND and the §IV-A η sweep over a
//! 4-process `SocketComm` mesh: `cargo test --release --test fault_matrix`.

use std::time::Instant;

use firal::comm::{launch_backend, Backend, CostModel};
use firal::core::{Executor, RelaxConfig, SelectionProblem, ShardedProblem};
use firal::data::SyntheticConfig;
use firal::logreg::LogisticRegression;

fn build_problem() -> SelectionProblem<f32> {
    let ds = SyntheticConfig::new(8, 24)
        .with_pool_size(4000)
        .with_initial_per_class(2)
        .with_seed(3)
        .generate::<f32>();
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels)
        .expect("train failed");
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        ds.num_classes,
    )
}

fn main() {
    let backend = if std::env::args().any(|a| a == "--socket") {
        Backend::Socket
    } else {
        Backend::Thread
    };
    let problem = build_problem();
    let budget = 8;
    let eta = 8.0 * (problem.ehat() as f32).sqrt();
    let cost = CostModel::paper_a100();

    println!(
        "pool n={} d={} c={} (ê={}), backend={}",
        problem.pool_size(),
        problem.dim(),
        problem.num_classes,
        problem.ehat(),
        backend.tag(),
    );
    println!(
        "\n{:<6} {:>10} {:>10} {:>8} {:>14} {:>9} {:>12} {:>14}",
        "ranks",
        "relax",
        "round",
        "cg iters",
        "calls ar/bc/ag",
        "coll MB",
        "comm (meas)",
        "comm (model)"
    );

    for p in [1usize, 2, 4] {
        let prob = problem.clone();
        let cfg = RelaxConfig {
            seed: 1,
            md: firal::core::MirrorDescentConfig {
                max_iters: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let results = launch_backend(backend, p, move |comm| {
            let shard = ShardedProblem::shard(&prob, comm.rank(), comm.size());
            let exec = Executor::new(comm, &shard);
            let stats0 = comm.stats();
            let t0 = Instant::now();
            let relax = exec.relax(budget, &cfg);
            let t1 = Instant::now();
            let round = exec.round(&relax.z_local, budget, eta);
            let secs = (t1 - t0, t1.elapsed());
            let stats = comm.stats().since(&stats0);
            (secs, relax.total_cg_iters, stats, round.selected)
        });

        // Report rank 0's numbers (ranks are symmetric).
        let ((relax_secs, round_secs), cg_iters, stats, selected) = &results[0];
        let comm_predicted = cost.predict_comm(stats, p);
        println!(
            "{:<6} {:>9.3}s {:>9.3}s {:>8} {:>14} {:>9.2} {:>11.3}s {:>13.6}s",
            p,
            relax_secs.as_secs_f64(),
            round_secs.as_secs_f64(),
            cg_iters,
            format!(
                "{}/{}/{}",
                stats.allreduce_calls, stats.bcast_calls, stats.allgather_calls
            ),
            stats.total_bytes() as f64 / 1e6,
            stats.time.as_secs_f64(),
            comm_predicted,
        );
        // Sanity: every rank agrees on the selection.
        for (_, _, _, sel) in &results[1..] {
            assert_eq!(sel, selected, "ranks disagreed on the selection!");
        }
    }

    println!(
        "\nNote: this host oversubscribes ranks onto a few cores, so measured \
         times flatten beyond the physical core count; the model column shows \
         what the paper's IB-HDR/A100 constants predict for the same message \
         pattern (see ARCHITECTURE.md § Experiments)."
    );
}
