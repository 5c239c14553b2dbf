//! Workload builders shared by the paper ledger, the `spmd_launch`
//! process-mesh gates and `kernel_bench`.
//!
//! The per-rank bodies are communicator-generic: the ledger's Fig. 6/7
//! rows run them over in-process `ThreadComm` ranks, the `fig7` / `strat`
//! gates over one `SocketComm` process per rank.

use firal_comm::{CommScalar, CommStats, Communicator};
use firal_core::{
    dispatch_select, EigSolver, EtaGroupGeometry, Executor, MirrorDescentConfig, PhaseTimer,
    RelaxConfig, RoundConfig, SelectRequest, SelectionProblem, ShardedProblem,
};
use firal_data::{Dataset, SyntheticConfig};
use firal_linalg::{Matrix, Scalar};
use firal_logreg::{LogisticRegression, TrainConfig};

/// Deterministic LCG-filled matrix in `[-1, 1)` for benchmark operands (no
/// RNG dependency) for `kernel_bench`.
pub fn lcg_matrix<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

/// Train the round-0 classifier on the initial labeled set and assemble the
/// selection problem the way the driver does for the first round.
pub fn selection_problem_from_dataset<T: Scalar>(ds: &Dataset<T>) -> SelectionProblem<T> {
    let model = LogisticRegression::fit(
        &ds.initial_features,
        &ds.initial_labels,
        ds.num_classes,
        &TrainConfig::default(),
    )
    .expect("initial classifier training failed");
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        ds.num_classes,
    )
}

/// Wall-clock a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The Figs. 5–7 pool: an embedding-style synthetic set of `n` points,
/// one initial label per class; `seed` pins the dataset per figure.
pub fn scaling_problem(c: usize, d: usize, n: usize, seed: u64) -> SelectionProblem<f32> {
    let ds = SyntheticConfig::new(c, d)
        .with_pool_size(n)
        .with_initial_per_class(1)
        .with_eval_size(c * 2)
        .with_separation(4.0)
        .with_normalize(true)
        .with_seed(seed)
        .generate::<f32>();
    selection_problem_from_dataset(&ds)
}

/// Fig. 6 per-rank body: one RELAX mirror-descent iteration (the paper
/// reports time per iteration) of exactly 10 CG steps with s = 10 probes
/// on this rank's shard, on one kernel thread so ranks are the only
/// parallelism. Returns the rank's phase breakdown and communication
/// counters.
pub fn fig6_rank_body(
    problem: &SelectionProblem<f32>,
    comm: &dyn Communicator,
) -> (PhaseTimer, CommStats) {
    let cfg = RelaxConfig {
        md: MirrorDescentConfig {
            max_iters: 1,
            obj_rel_tol: 0.0,
            ..Default::default()
        },
        probes: 10,
        cg_tol: 0.0,
        cg_max_iter: 10,
        seed: 3,
        ..Default::default()
    };
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let out = Executor::new(comm, &shard).with_threads(1).relax(10, &cfg);
    (out.timer, out.comm_stats)
}

/// Budget of the Fig. 7 bodies: the smallest that runs every line of
/// Algorithm 3. Pick 1 is the paper's select-one-point iteration (Lines
/// 7–11); pick 2 adds only the scoring pass that consumes its `ν` — after
/// the last pick Lines 9–11 would feed nothing and are not run.
pub const FIG7_BUDGET: usize = 2;

/// Fig. 7 per-rank body: time for one full ROUND iteration (the paper's
/// select-one-point metric, see [`FIG7_BUDGET`]) on this rank's shard, on
/// one kernel thread like [`fig6_rank_body`].
pub fn fig7_rank_body(
    problem: &SelectionProblem<f32>,
    comm: &dyn Communicator,
) -> (PhaseTimer, CommStats) {
    let budget = FIG7_BUDGET;
    let eta = 4.0 * (problem.ehat() as f32).sqrt();
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let z_local = vec![budget as f32 / problem.pool_size() as f32; shard.local_n()];
    let out =
        Executor::new(comm, &shard)
            .with_threads(1)
            .round(&z_local, budget, eta, EigSolver::Exact);
    (out.timer, out.comm_stats)
}

/// Per-rank report of the distributed η-grid sweep workload
/// ([`fig7_eta_sweep_rank_body`]): the winning η and selection plus this
/// rank's group and its η-group traffic, so the gate can print one `grp`
/// row per η group with that group's own [`CommStats`].
pub struct EtaSweepReport {
    /// This rank's η group in the 2D geometry.
    pub group: usize,
    /// Winning η (identical on every rank).
    pub eta_star: f32,
    /// Winning selection (identical on every rank).
    pub selected: Vec<usize>,
    /// This rank's sweep phase breakdown (its slice of the grid).
    pub timer: PhaseTimer,
    /// Collectives issued on the η-group communicator.
    pub group_stats: CommStats,
}

/// Fig. 7's η-grid counterpart: the §IV-A grid sweep (default grid,
/// budget [`FIG7_BUDGET`] — the paper's select-one-point metric) distributed over
/// `eta_groups` sub-communicator groups of the 2D geometry
/// `p = p_shard × p_eta`. `eta_groups` must divide the world size;
/// `eta_groups = 1` is the sequential sweep on the full group. Identical
/// on every backend.
pub fn fig7_eta_sweep_rank_body(
    problem: &SelectionProblem<f32>,
    threads: usize,
    eta_groups: usize,
    comm: &dyn Communicator,
) -> EtaSweepReport {
    let geometry = EtaGroupGeometry::new(comm.size(), eta_groups);
    let (group_comm, cross_comm) = geometry.split(comm);

    let budget = FIG7_BUDGET;
    let grid = RoundConfig::<f32>::default().eta_grid;
    let shard = ShardedProblem::shard(problem, group_comm.rank(), geometry.p_shard);
    let z_local = vec![budget as f32 / problem.pool_size() as f32; shard.local_n()];
    let out = Executor::new(&*group_comm, &shard)
        .with_threads(threads)
        .select_eta_grouped(&z_local, budget, &grid, &*cross_comm);
    EtaSweepReport {
        group: cross_comm.rank(),
        eta_star: out.eta,
        selected: out.selected,
        timer: out.timer,
        group_stats: group_comm.stats(),
    }
}

/// Per-rank report of one distributed strategy selection
/// ([`strategy_rank_body`]): what was picked, how long this rank spent,
/// and the collective traffic it issued — one `strategy` table row.
pub struct StrategyReport {
    /// Selected global pool indices (identical on every rank).
    pub selected: Vec<usize>,
    /// Seconds this rank spent inside the selection.
    pub seconds: f64,
    /// Collectives this rank issued during the selection.
    pub comm_stats: CommStats,
}

/// The `spmd_launch strat` gate's per-rank body (and, in the tests, over
/// `ThreadComm` ranks): dispatch the request through the shared [`dispatch_select`] metering
/// layer (the same entry point `firal-serve` bills client requests
/// through). Panics on unknown names or invalid budgets — harness
/// misconfiguration, not a measurement.
pub fn strategy_rank_body<T: CommScalar>(
    problem: &SelectionProblem<T>,
    name: &str,
    budget: usize,
    seed: u64,
    threads: usize,
    comm: &dyn Communicator,
) -> StrategyReport {
    let req = SelectRequest::new(name, budget)
        .with_seed(seed)
        .with_threads(threads);
    let run =
        dispatch_select(comm, problem, &req).unwrap_or_else(|e| panic!("strategy {name:?}: {e}"));
    StrategyReport {
        selected: run.selected,
        seconds: run.seconds,
        comm_stats: run.comm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firal_comm::SelfComm;

    #[test]
    fn problem_builder_shapes() {
        let _counters = crate::COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let ds = firal_data::SyntheticConfig::new(3, 4)
            .with_pool_size(30)
            .with_seed(1)
            .generate::<f64>();
        let p = selection_problem_from_dataset(&ds);
        assert_eq!(p.pool_size(), 30);
        assert_eq!(p.num_classes, 3);
        assert_eq!(p.pool_h.cols(), 2);
    }

    #[test]
    fn timed_returns_value() {
        let (v, secs) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }

    #[test]
    fn scaling_bodies_run_on_one_rank() {
        let _counters = crate::COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let p = scaling_problem(3, 4, 40, 7);
        let comm = SelfComm::new();
        let (timer6, stats6) = fig6_rank_body(&p, &comm);
        assert!(timer6.total().as_secs_f64() >= 0.0);
        assert!(stats6.allreduce_calls > 0);
        let (_, stats7) = fig7_rank_body(&p, &comm);
        assert!(stats7.allgather_calls > 0);
    }

    #[test]
    fn strategy_body_matches_serial_selection_across_thread_ranks() {
        let _counters = crate::COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let ds = firal_data::SyntheticConfig::new(3, 4)
            .with_pool_size(36)
            .with_initial_per_class(2)
            .with_seed(5)
            .generate::<f64>();
        let p = selection_problem_from_dataset(&ds);
        for name in ["upal", "bayes-batch"] {
            let comm = SelfComm::new();
            let serial = strategy_rank_body(&p, name, 4, 7, 1, &comm);
            assert_eq!(serial.selected.len(), 4);
            let dist = firal_comm::launch(2, |comm| {
                strategy_rank_body(&p, name, 4, 7, 1, comm).selected
            });
            for sel in &dist {
                assert_eq!(sel, &serial.selected, "{name}");
            }
        }
    }

    #[test]
    fn eta_sweep_body_single_rank_matches_grouped_layout() {
        let _counters = crate::COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        // p = 1, one group: the sweep body must agree with the same sweep
        // distributed over (p_shard, p_eta) = (1, 2) thread ranks.
        let p = scaling_problem(3, 4, 40, 7);
        let comm = SelfComm::new();
        let serial = fig7_eta_sweep_rank_body(&p, 1, 1, &comm);
        assert_eq!(serial.group, 0);
        assert_eq!(serial.selected.len(), FIG7_BUDGET);

        let grouped = firal_comm::launch(2, |comm| {
            let rep = fig7_eta_sweep_rank_body(&p, 1, 2, comm);
            (rep.group, rep.eta_star, rep.selected)
        });
        for (g, (group, eta, sel)) in grouped.into_iter().enumerate() {
            assert_eq!(group, g);
            assert_eq!(eta, serial.eta_star);
            assert_eq!(sel, serial.selected);
        }
    }
}
