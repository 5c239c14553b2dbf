//! Workload builders shared by the paper ledger and `kernel_bench`.
//!
//! The Fig. 6/7 per-rank bodies are communicator-generic; the ledger runs
//! them over in-process `ThreadComm` ranks.

use firal_comm::{CommStats, Communicator};
use firal_core::{Executor, MirrorDescentConfig, RelaxConfig, SelectionProblem, ShardedProblem};
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
/// parallelism. Returns the rank's seconds inside the `relax` call and the
/// collectives it issued there.
pub fn fig6_rank_body(
    problem: &SelectionProblem<f32>,
    comm: &dyn Communicator,
) -> (f64, CommStats) {
    let cfg = RelaxConfig {
        md: MirrorDescentConfig {
            max_iters: 1,
            obj_rel_tol: 0.0,
        },
        probes: 10,
        cg_tol: 0.0,
        cg_max_iter: 10,
        seed: 3,
    };
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard).with_threads(1);
    billed(comm, || exec.relax(10, &cfg))
}

/// Budget of the Fig. 7 bodies: the smallest that runs every line of
/// Algorithm 3. Pick 1 is the paper's select-one-point iteration (Lines
/// 7–11); pick 2 adds only the scoring pass that consumes its `ν` — after
/// the last pick Lines 9–11 would feed nothing and are not run.
pub const FIG7_BUDGET: usize = 2;

/// Fig. 7 per-rank body: time for one full ROUND iteration (the paper's
/// select-one-point metric, see [`FIG7_BUDGET`]) on this rank's shard, on
/// one kernel thread like [`fig6_rank_body`], timed and billed the same way.
pub fn fig7_rank_body(
    problem: &SelectionProblem<f32>,
    comm: &dyn Communicator,
) -> (f64, CommStats) {
    let budget = FIG7_BUDGET;
    let eta = 4.0 * (problem.ehat() as f32).sqrt();
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let z_local = vec![budget as f32 / problem.pool_size() as f32; shard.local_n()];
    let exec = Executor::new(comm, &shard).with_threads(1);
    billed(comm, || exec.round(&z_local, budget, eta))
}

/// Seconds and collectives of one call on this rank.
fn billed<R>(comm: &dyn Communicator, f: impl FnOnce() -> R) -> (f64, CommStats) {
    let stats0 = comm.stats();
    let (_, secs) = timed(f);
    (secs, comm.stats().since(&stats0))
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
        let (secs6, stats6) = fig6_rank_body(&p, &comm);
        assert!(secs6 > 0.0);
        assert!(stats6.allreduce_calls > 0);
        let (_, stats7) = fig7_rank_body(&p, &comm);
        assert!(stats7.allgather_calls > 0);
    }
}
