//! Mini Figs. 6–7: SPMD Approx-FIRAL on simulated ranks with per-phase
//! timing and the paper's analytic communication model.
//!
//! Runs one RELAX mirror-descent solve and a short ROUND on p = 1, 2, 4
//! ranks, printing the measured phase breakdown next to the cost model's
//! prediction. Ranks default to shared-memory `ThreadComm` threads; with
//! `--socket` the same rank bodies run over the real localhost-TCP
//! `SocketComm` mesh, so the measured comm column is actual wire time.
//!
//! Run with: `cargo run --release --example distributed_scaling [--socket]
//! [--eta-groups G]`
//!
//! With `--eta-groups G > 1` a second table follows: the full pipeline
//! (RELAX + the §IV-A η-grid sweep) over the 2D rank geometry
//! `p = p_shard × G`, one row per η group with that group's own
//! communication counters.
//!
//! For one OS process per rank, the fault-free probe of
//! `tests/fault_matrix.rs` runs the same η-grouped sweep over a 4-process
//! `SocketComm` mesh: `cargo test --release --test fault_matrix`.

use firal::comm::{launch_backend, Backend, CostModel};
use firal::core::{
    EtaGroupGeometry, Executor, RelaxConfig, RoundConfig, SelectionProblem, ShardedProblem,
};
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
        "\n{:<6} {:>10} {:>10} {:>10} {:>10} {:>14} {:>9} {:>12} {:>14}",
        "ranks",
        "precond",
        "cg",
        "gradient",
        "round",
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
            let relax = exec.relax(budget, &cfg);
            let round = exec.round(&relax.z_local, budget, eta);
            let mut stats = relax.comm_stats;
            stats.merge(&round.comm_stats);
            (relax.timer, round.timer, stats, round.selected)
        });

        // Report rank 0's timers (ranks are symmetric).
        let (relax_timer, round_timer, stats, selected) = &results[0];
        let comm_predicted = cost.predict_comm(stats, p);
        println!(
            "{:<6} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>14} {:>9.2} {:>11.3}s {:>13.6}s",
            p,
            relax_timer.get("precond").as_secs_f64(),
            relax_timer.get("cg").as_secs_f64(),
            relax_timer.get("gradient").as_secs_f64(),
            round_timer.total().as_secs_f64(),
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

    // Optional second act: distribute the η grid over sub-communicator
    // groups (the ranks × η-groups tier).
    let eta_groups: usize = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--eta-groups")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
    };
    if eta_groups > 1 {
        println!(
            "\nη grid distributed over {eta_groups} groups (grid {:?}·√ê, backend {}):",
            RoundConfig::<f32>::default().eta_grid,
            backend.tag(),
        );
        println!(
            "{:<10} {:>4} {:>10} {:>16} {:>10} {:>10} {:>16}",
            "p", "grp", "eta*", "grp calls", "grp MB", "grp comm", "cross ar/bc/ag"
        );
        for p in [1usize, 2, 4]
            .into_iter()
            .filter(|p| p.is_multiple_of(eta_groups))
        {
            let prob = problem.clone();
            let cfg = RelaxConfig {
                seed: 1,
                md: firal::core::MirrorDescentConfig {
                    max_iters: 3,
                    ..Default::default()
                },
                ..Default::default()
            };
            let grid = RoundConfig::<f32>::default().eta_grid;
            let results = launch_backend(backend, p, move |world| {
                // RELAX inside each group on its p_shard-way partition
                // (every group computes bit-identical z⋄), then the η grid
                // distributed across the groups.
                let geometry = EtaGroupGeometry::new(world.size(), eta_groups);
                let (group_comm, cross_comm) = geometry.split(world);
                let shard = ShardedProblem::shard(&prob, group_comm.rank(), geometry.p_shard);
                let exec = Executor::new(&*group_comm, &shard);
                let relax = exec.relax(budget, &cfg);
                let round = exec.select_eta_grouped(&relax.z_local, budget, &grid, &*cross_comm);
                (
                    cross_comm.rank(),
                    round.eta,
                    round.selected,
                    group_comm.stats(),
                    cross_comm.stats(),
                )
            });
            // One row per group (its shard-rank-0 endpoint), plus a
            // cross-rank agreement check.
            let p_shard = p / eta_groups;
            for (g, (group, eta_star, selected, grp, cross)) in
                results.iter().step_by(p_shard).enumerate()
            {
                assert_eq!(*group, g);
                assert_eq!(
                    selected, &results[0].2,
                    "groups disagreed on the winning selection!"
                );
                println!(
                    "{:<10} {:>4} {:>10.3} {:>16} {:>10.2} {:>9.3}s {:>16}",
                    format!("{}={}x{}", p, p_shard, eta_groups),
                    g,
                    eta_star,
                    format!(
                        "{}/{}/{}",
                        grp.allreduce_calls, grp.bcast_calls, grp.allgather_calls
                    ),
                    grp.total_bytes() as f64 / 1e6,
                    grp.time.as_secs_f64(),
                    format!(
                        "{}/{}/{}",
                        cross.allreduce_calls, cross.bcast_calls, cross.allgather_calls
                    ),
                );
            }
        }
    }

    println!(
        "\nNote: this host oversubscribes ranks onto a few cores, so measured \
         times flatten beyond the physical core count; the model column shows \
         what the paper's IB-HDR/A100 constants predict for the same message \
         pattern (see EXPERIMENTS.md)."
    );
}
