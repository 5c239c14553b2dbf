//! SPMD entry points for Approx-FIRAL (§III-C) — thin wrappers.
//!
//! The distributed RELAX/ROUND math lives in [`crate::exec`]; this module
//! keeps the free-function entry points for callers that hold a
//! communicator and drive ranks directly (bench harnesses, examples,
//! integration tests): [`parallel_approx_firal`], its 2D-geometry form
//! [`parallel_approx_firal_grouped`], and the strategy-generic
//! [`parallel_select`] / [`parallel_select_by_name`]. Each constructs an
//! [`Executor`] for the calling rank and delegates — there is no second
//! copy of the algorithms here, and a bare RELAX or ROUND solve is an
//! [`Executor`] method, not a wrapper.
//!
//! These entry points are transport-agnostic: the communicator may be a
//! `SelfComm`, a `ThreadComm` thread endpoint, or a `SocketComm` process
//! endpoint (`firal_comm::socket_launch` in-process, or one OS process per
//! rank via the `spmd_launch` binary, which sets the `FIRAL_SPMD_*` env
//! vars and joins ranks with `SocketComm::from_env`).

use firal_comm::{CommScalar, CommStats, Communicator};

use crate::config::{FiralConfig, RelaxConfig};
use crate::exec::{EtaGroupGeometry, Executor, RelaxRun, RoundRun};
use crate::problem::SelectionProblem;
use crate::round::EigSolver;
use crate::strategies::{strategy_by_name, DistStrategy, SelectError};

pub use crate::exec::ShardedProblem;

/// Convenience: run the full distributed Approx-FIRAL (RELAX then ROUND)
/// on one rank of an SPMD group, given the *full* problem (each rank shards
/// it internally). Returns the selected global indices (identical on all
/// ranks).
pub fn parallel_approx_firal<T: CommScalar>(
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    budget: usize,
    config: &RelaxConfig<T>,
    eta: T,
) -> Vec<usize> {
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard);
    let relax = exec.relax(budget, config);
    exec.round(&relax.z_local, budget, eta, EigSolver::Exact)
        .selected
}

/// Per-rank result of [`parallel_select`]: the selection plus this rank's
/// collective record and wall-clock, so the scaling harnesses can print a
/// per-strategy row without re-instrumenting.
#[derive(Debug, Clone)]
pub struct ParallelSelectRun {
    /// Selected **global** pool indices, identical on all ranks.
    pub selected: Vec<usize>,
    /// Seconds this rank spent inside the selection.
    pub seconds: f64,
    /// Collectives this rank issued during the selection.
    pub comm_stats: CommStats,
}

/// Run any [`DistStrategy`] on one rank of an SPMD group, given the *full*
/// problem (each rank shards it internally, mirroring
/// [`parallel_approx_firal`]). `threads` sizes this rank's private kernel
/// sub-pool (`0` inherits the ambient pool). Every rank returns the
/// identical selection.
pub fn parallel_select<T: CommScalar>(
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    strategy: &dyn DistStrategy<T>,
    budget: usize,
    seed: u64,
    threads: usize,
) -> Result<ParallelSelectRun, SelectError> {
    let shard = ShardedProblem::shard(problem, comm.rank(), comm.size());
    let exec = Executor::new(comm, &shard).with_threads(threads);
    let stats0 = comm.stats();
    let t0 = std::time::Instant::now();
    let selected = strategy.select_dist(&exec, budget, seed)?;
    Ok(ParallelSelectRun {
        selected,
        seconds: t0.elapsed().as_secs_f64(),
        comm_stats: comm.stats().since(&stats0),
    })
}

/// [`parallel_select`] with the strategy resolved from the registry
/// ([`strategy_by_name`], default configuration). Fails with
/// [`SelectError::UnknownStrategy`] for unregistered names.
pub fn parallel_select_by_name<T: CommScalar>(
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    strategy: &str,
    budget: usize,
    seed: u64,
    threads: usize,
) -> Result<ParallelSelectRun, SelectError> {
    let resolved = strategy_by_name::<T>(strategy).ok_or_else(|| SelectError::UnknownStrategy {
        name: strategy.to_string(),
    })?;
    parallel_select(comm, problem, resolved.as_ref(), budget, seed, threads)
}

/// Per-rank result of [`parallel_approx_firal_grouped`]: the RELAX and
/// ROUND runs plus this rank's coordinates in the 2D geometry and the
/// per-sub-communicator traffic, so harnesses can bill communication to
/// the group and cross axes separately.
#[derive(Debug, Clone)]
pub struct GroupedFiralRun<T> {
    /// The RELAX solve over this rank's η-group communicator.
    pub relax: RelaxRun<T>,
    /// The winning ROUND run of the distributed η sweep (selection, η★,
    /// criterion identical on every rank).
    pub round: RoundRun<T>,
    /// The geometry the world was split into.
    pub geometry: EtaGroupGeometry,
    /// This rank's η group (= its contiguous grid-slice owner id).
    pub group: usize,
    /// Collectives this rank issued on the group communicator.
    pub group_stats: CommStats,
    /// Collectives this rank issued on the cross-group communicator.
    pub cross_stats: CommStats,
}

/// Full Approx-FIRAL over the 2D rank geometry `p = p_shard × p_eta`
/// (`config.eta_groups`; see [`EtaGroupGeometry`]) on one rank of an SPMD
/// group.
///
/// The world communicator splits into `p_eta` η-group communicators (color
/// = group) and `p_shard` cross-group communicators (color = shard rank);
/// RELAX runs inside each group on the group's `p_shard`-way pool partition
/// (every group computes bit-identical `z⋄` — the probe panels are seeded,
/// and group collectives reduce in rank order), then
/// [`Executor::select_eta_grouped`] distributes the η grid across the
/// groups. With `eta_groups ≤ 1` this degenerates to the sequential grid
/// sweep of [`Executor::select_eta`] on the whole world — same bits, one
/// code path.
///
/// A fixed `config.round.eta` skips the grid, making η groups pure
/// redundancy; this entry point therefore ignores `config.round.eta` and
/// always runs the §IV-A grid rule over `config.round.eta_grid`.
pub fn parallel_approx_firal_grouped<T: CommScalar>(
    world: &dyn Communicator,
    problem: &SelectionProblem<T>,
    budget: usize,
    config: &FiralConfig<T>,
) -> GroupedFiralRun<T> {
    let geometry = EtaGroupGeometry::new(world.size(), config.eta_groups);
    let group = geometry.group_of(world.rank());
    let shard_rank = geometry.shard_rank_of(world.rank());
    // Key = world rank: group ranks keep world order (shard r of the group
    // is world rank g·p_shard + r) and cross ranks are exactly the group
    // ids — the ordering select_eta_grouped's tie-breaking relies on.
    let group_comm = world.split(group, world.rank());
    let cross_comm = world.split(shard_rank, world.rank());

    let shard = ShardedProblem::shard(problem, shard_rank, geometry.p_shard);
    let exec = Executor::new(&*group_comm, &shard).with_threads(config.threads);
    let relax = exec.relax(budget, &config.relax);
    let round =
        exec.select_eta_grouped(&relax.z_local, budget, &config.round.eta_grid, &*cross_comm);
    GroupedFiralRun {
        relax,
        round,
        geometry,
        group,
        group_stats: group_comm.stats(),
        cross_stats: cross_comm.stats(),
    }
}
