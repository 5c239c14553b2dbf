//! Request → [`DistStrategy`](crate::strategies::DistStrategy) dispatch:
//! the metering layer of the serving path.
//!
//! A [`SelectRequest`] is the wire-shaped description of one selection —
//! strategy registry name, budget, seed, intra-rank thread count — lifted
//! out of `spmd_launch`'s ad-hoc workload plumbing so a long-running server
//! (`firal-serve`), the bench binaries, and tests all resolve and account
//! requests through one entry point. [`dispatch_select`] resolves the name
//! via [`strategy_by_name`], shards the problem for the calling rank, runs
//! the **fallible** distributed path
//! ([`try_select_dist`](crate::strategies::DistStrategy::try_select_dist)),
//! and bills exactly the collectives the request issued on the given
//! communicator (a `stats()` delta, so a warm communicator carrying earlier
//! traffic is accounted correctly).
//!
//! Determinism: the strategy contract (`crates/core/src/strategies.rs`)
//! makes a dispatched request bitwise reproducible on any (sub-)communicator
//! of the same size, whatever the backend or kernel-thread count. Across
//! rank counts only the five replicated-state strategies are invariant;
//! Approx-FIRAL and Bayes-batch may select a different batch at a
//! different `p` (ROADMAP item 5).

use firal_comm::{CommScalar, CommStats, Communicator};

use crate::exec::{Executor, ShardedProblem};
use crate::problem::SelectionProblem;
use crate::strategies::{strategy_by_name, SelectError};

/// One selection request, as named by a client or a workload row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectRequest {
    /// Strategy registry name ([`crate::STRATEGY_NAMES`]).
    pub strategy: String,
    /// Batch size `b`.
    pub budget: usize,
    /// Seed for the strategy's internal randomness.
    pub seed: u64,
    /// This rank's private kernel thread-pool size (`0` inherits the
    /// ambient pool).
    pub threads: usize,
}

impl SelectRequest {
    /// A request with the default seed (0) and ambient thread pool.
    pub fn new(strategy: impl Into<String>, budget: usize) -> Self {
        Self {
            strategy: strategy.into(),
            budget,
            seed: 0,
            threads: 0,
        }
    }

    /// Replace the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the intra-rank kernel thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// What one dispatched request did: the selection plus its bill.
#[derive(Debug, Clone)]
pub struct SelectReport {
    /// Selected **global** pool indices, identical on every rank of the
    /// dispatching communicator.
    pub selected: Vec<usize>,
    /// Seconds this rank spent inside the selection.
    pub seconds: f64,
    /// Collectives this rank issued *for this request* (a delta over the
    /// communicator's counters, not its lifetime totals).
    pub comm: CommStats,
}

/// Run one [`SelectRequest`] on one rank of `comm`'s group, each rank
/// holding the identical full `problem` (sharded internally). Every rank of
/// the group must dispatch the same request collectively.
///
/// Failure taxonomy: an unregistered name is
/// [`SelectError::UnknownStrategy`] (resolved *before* any collective runs,
/// so a bad name never skews the group schedule); invalid budgets surface
/// as the strategy's own [`SelectError`] variants; and a communication
/// failure underneath the selection comes back as [`SelectError::Comm`]
/// through `try_select_dist` instead of aborting the rank.
pub fn dispatch_select<T: CommScalar>(
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    req: &SelectRequest,
) -> Result<SelectReport, SelectError> {
    let strategy = strategy_by_name::<T>(&req.strategy)?;
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard).with_threads(req.threads);
    let stats0 = comm.stats();
    let t0 = std::time::Instant::now();
    let selected = strategy.try_select_dist(&exec, req.budget, req.seed)?;
    Ok(SelectReport {
        selected,
        seconds: t0.elapsed().as_secs_f64(),
        comm: comm.stats().since(&stats0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tiny_problem;
    use crate::strategies::select_serial;
    use firal_comm::{launch, SelfComm};

    #[test]
    fn dispatch_matches_select_serial_bitwise_at_p1() {
        let problem = tiny_problem(3, 40, 4, 3);
        let comm = SelfComm::new();
        for name in ["random", "entropy", "approx-firal"] {
            let req = SelectRequest::new(name, 4).with_seed(11);
            let report = dispatch_select(&comm, &problem, &req).expect("dispatch");
            let strategy = strategy_by_name::<f64>(name).unwrap();
            let reference = select_serial(strategy.as_ref(), &problem, 4, 11).expect("serial");
            assert_eq!(report.selected, reference.selected, "{name}");
        }
    }

    #[test]
    fn dispatch_selects_identical_indices_across_rank_counts() {
        let problem = tiny_problem(5, 40, 4, 3);
        let req = SelectRequest::new("entropy", 5).with_seed(2);
        let serial = {
            let comm = SelfComm::new();
            dispatch_select(&comm, &problem, &req)
                .expect("serial")
                .selected
        };
        for p in [2usize, 3] {
            let runs = launch(p, |comm| {
                dispatch_select(comm, &problem, &req)
                    .expect("dist")
                    .selected
            });
            for run in runs {
                assert_eq!(run, serial, "p={p}");
            }
        }
    }

    #[test]
    fn dispatch_bills_a_stats_delta_not_lifetime_totals() {
        let problem = tiny_problem(7, 40, 4, 3);
        let comm = SelfComm::new();
        // Warm the communicator with unrelated traffic first.
        let warm = dispatch_select(&comm, &problem, &SelectRequest::new("approx-firal", 3))
            .expect("warm-up");
        assert!(
            warm.comm.total_calls() > 0,
            "approx-firal issues collectives"
        );
        let second = dispatch_select(&comm, &problem, &SelectRequest::new("approx-firal", 3))
            .expect("second");
        assert_eq!(
            second.comm.total_calls(),
            warm.comm.total_calls(),
            "identical requests must bill identical deltas on a warm comm"
        );
    }

    #[test]
    fn unknown_strategy_is_rejected_before_any_collective() {
        let problem = tiny_problem(1, 40, 4, 3);
        let comm = SelfComm::new();
        let err = dispatch_select(&comm, &problem, &SelectRequest::new("gradient-boost", 2))
            .expect_err("unregistered name");
        assert!(matches!(err, SelectError::UnknownStrategy { .. }));
        assert_eq!(comm.stats().total_calls(), 0, "no collective may have run");
    }

    #[test]
    fn invalid_budgets_surface_the_strategy_taxonomy() {
        let problem = tiny_problem(2, 40, 4, 3);
        let comm = SelfComm::new();
        let err = dispatch_select(&comm, &problem, &SelectRequest::new("random", 0))
            .expect_err("zero budget");
        assert!(matches!(err, SelectError::ZeroBudget));
        let err = dispatch_select(&comm, &problem, &SelectRequest::new("random", 10_000))
            .expect_err("budget beyond pool");
        assert!(matches!(err, SelectError::BudgetTooLarge { .. }));
    }
}
