//! The communicator-generic execution layer.
//!
//! RELAX (Algorithm 2) and ROUND (Algorithm 3) are written **once** here,
//! against the [`firal_comm::Communicator`] collectives. The paper's central
//! structural claim — Approx-FIRAL is *one* algorithm whose collectives
//! degenerate to no-ops at `p = 1` — is the code's shape: an [`Executor`]
//! over [`firal_comm::SelfComm`] and the trivial shard
//! ([`ShardedProblem::replicate`]: `offset = 0`, `local_n = n`) *is* the
//! serial solver, and the same executor over a real rank group —
//! [`firal_comm::ThreadComm`] OS threads in one process, or
//! [`firal_comm::SocketComm`] OS *processes* on a localhost TCP mesh
//! (launched by `spmd_launch` in `firal-bench`, joined via
//! `SocketComm::from_env`) — is the SPMD one. All backends implement the
//! identical rank-ordered deterministic reduction contract, so results are
//! interchangeable down to the bit for f64.
//!
//! Collective placement follows §III-C operation-for-operation:
//!
//! * RELAX: the probe panel is **Bcast** from rank 0; `B(Σ_z)` partial
//!   block sums and the two-GEMM matvec partial results are **Allreduce**d
//!   (the matvec reduction lives in
//!   [`firal_solvers::AllreduceOperator`], so the CG solver itself is
//!   communicator-agnostic); gradients are purely local; the mirror-descent
//!   normalizer is a scalar Allreduce;
//! * ROUND: the Eq. 17 argmax is an **Allreduce (MAXLOC)**; the winning
//!   point's `(x, h)` is **Bcast** from its owner; the per-block
//!   eigenvalue solves are distributed over ranks and **Allgather**ed.
//!
//! An [`Executor`] owns the run-wide context: the communicator endpoint,
//! this rank's shard geometry, probe-RNG seeding, the [`PhaseTimer`] phase
//! breakdown, and per-run [`CommStats`] deltas. Its methods call the
//! infallible collectives: a communication failure raises through the
//! stack, and a caller that wants it back as a value runs the phase under
//! the comm layer's catch boundary, as
//! [`crate::strategies::DistStrategy::try_select_dist`] does for a whole
//! selection.
//!
//! On top of the rank × thread tiers sits the **η-group tier**
//! ([`EtaGroupGeometry`], `p = p_shard × p_eta`): the §IV-A η grid — an
//! embarrassingly parallel sweep of independent ROUND runs — distributes
//! over sub-communicator groups carved out with
//! [`EtaGroupGeometry::split`]. Each group holds the full `p_shard`-way pool
//! partition, sweeps a contiguous slice of the grid via
//! [`Executor::select_eta_grouped`], and a single cross-group MAXLOC picks
//! the winning η — bitwise identical to the sequential sweep at every
//! layout, which is its `p_eta = 1` call ([`Executor::select_eta`]).

use firal_comm::{shard_range, CommScalar, CommStats, Communicator, ReduceOp, SelfComm};
use firal_linalg::{eigvalsh, BlockDiag, Cholesky, Matrix, Scalar};
use firal_solvers::{
    cg_solve_panel, lanczos_spectrum, rademacher_panel, AllreduceOperator, CgConfig, CgTelemetry,
    DenseOperator, LinearOperator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{FiralConfig, RelaxConfig};
use crate::exact::RelaxTelemetry;
use crate::hessian::{hutchinson_gradients_shared, probe_products_into, BlockJacobi, PoolHessian};
use crate::problem::SelectionProblem;
use crate::round::{pad_spectrum, EigSolver, WhitenedFtrl, Whitening};
use crate::timing::PhaseTimer;

/// One rank's shard of a selection problem.
///
/// The pool (`x_i`, `h_i`) is sharded evenly across ranks
/// ([`firal_comm::shard_range`]); the labeled panel and all `O(cd²)`
/// block-diagonal state are replicated. On a single rank the shard is
/// trivial: `offset = 0`, `local_n = n` (see [`ShardedProblem::replicate`]).
#[derive(Debug, Clone)]
pub struct ShardedProblem<T: Scalar> {
    /// Local pool features (`n_local × d`).
    pub local_x: Matrix<T>,
    /// Local pool probabilities (`n_local × (c-1)`).
    pub local_h: Matrix<T>,
    /// Replicated labeled features.
    pub labeled_x: Matrix<T>,
    /// Replicated labeled probabilities.
    pub labeled_h: Matrix<T>,
    /// Class count.
    pub num_classes: usize,
    /// Global pool size `n`.
    pub global_n: usize,
    /// Global index of the first local point.
    pub offset: usize,
}

impl<T: Scalar> ShardedProblem<T> {
    /// Take this rank's shard of a full problem (the §III-C "evenly
    /// distributing h_i and x_i of n points" decomposition).
    pub fn shard(problem: &SelectionProblem<T>, rank: usize, size: usize) -> Self {
        if size == 1 {
            return Self::replicate(problem);
        }
        let n = problem.pool_size();
        let d = problem.dim();
        let cm1 = problem.nblocks();
        let range = shard_range(n, rank, size);
        let mut local_x = Matrix::zeros(range.len(), d);
        let mut local_h = Matrix::zeros(range.len(), cm1);
        for (row, i) in range.clone().enumerate() {
            local_x.row_mut(row).copy_from_slice(problem.pool_x.row(i));
            local_h.row_mut(row).copy_from_slice(problem.pool_h.row(i));
        }
        Self {
            local_x,
            local_h,
            labeled_x: problem.labeled_x.clone(),
            labeled_h: problem.labeled_h.clone(),
            num_classes: problem.num_classes,
            global_n: n,
            offset: range.start,
        }
    }

    /// The trivial single-rank shard: the whole pool, `offset = 0`.
    pub fn replicate(problem: &SelectionProblem<T>) -> Self {
        Self {
            local_x: problem.pool_x.clone(),
            local_h: problem.pool_h.clone(),
            labeled_x: problem.labeled_x.clone(),
            labeled_h: problem.labeled_h.clone(),
            num_classes: problem.num_classes,
            global_n: problem.pool_size(),
            offset: 0,
        }
    }

    /// Local pool size.
    pub fn local_n(&self) -> usize {
        self.local_x.rows()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.local_x.cols()
    }

    /// Block count `c-1`.
    pub fn nblocks(&self) -> usize {
        self.num_classes - 1
    }

    /// Stacked order `ê`.
    pub fn ehat(&self) -> usize {
        self.dim() * self.nblocks()
    }
}

/// Per-rank result of a RELAX solve through the unified layer.
#[derive(Debug, Clone)]
pub struct RelaxRun<T> {
    /// This rank's shard of `z⋄ = b·z` (aligned with its local pool rows).
    pub z_local: Vec<T>,
    /// The full `z⋄` assembled with Allgather (identical on all ranks).
    pub z_diamond: Vec<T>,
    /// Objective history / convergence record (identical on all ranks).
    pub telemetry: RelaxTelemetry<T>,
    /// CG telemetry of the first mirror-descent iteration's first solve
    /// (the residual curves plotted in Fig. 1).
    pub first_cg: Vec<CgTelemetry<T>>,
    /// Phase timings (precond / cg / matvec / gradient / other).
    pub timer: PhaseTimer,
    /// Total CG iterations across the whole solve.
    pub total_cg_iters: usize,
    /// Collective calls/bytes/time this rank spent inside the solve.
    pub comm_stats: CommStats,
}

/// Per-rank result of a ROUND solve through the unified layer.
#[derive(Debug, Clone)]
pub struct RoundRun<T> {
    /// Selected **global** pool indices, identical on all ranks.
    pub selected: Vec<usize>,
    /// η used.
    pub eta: T,
    /// The §IV-A grid criterion `min_k λ_min((H)_k)` of the selection —
    /// `Some` when this run came from an η grid sweep
    /// ([`Executor::select_eta`] / [`Executor::select_eta_grouped`]),
    /// `None` for a fixed-η [`Executor::round`].
    pub criterion: Option<T>,
    /// Phase timings (objective / eig / other).
    pub timer: PhaseTimer,
    /// Collective calls/bytes/time this rank spent inside the solve.
    pub comm_stats: CommStats,
}

/// The 2D rank geometry `p = p_shard × p_eta` that distributes the §IV-A η
/// grid over sub-communicator groups.
///
/// World rank `r` maps to **η-group** `r / p_shard` and **shard rank**
/// `r % p_shard`: ranks split into `p_eta` contiguous groups, each group
/// holding the full `p_shard`-way pool partition and sweeping its
/// contiguous slice of the η grid ([`firal_comm::shard_range`] over grid
/// indices). Contiguous-by-group assignment is load-bearing: the final
/// cross-group `allreduce_maxloc` breaks criterion ties towards the lower
/// group, which is then guaranteed to own the lower grid index — exactly
/// the first-maximum rule of the sequential sweep, so the grouped winner is
/// bitwise the sequential winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtaGroupGeometry {
    /// Ranks per η group (the intra-group pool-shard dimension).
    pub p_shard: usize,
    /// Number of η groups (the grid dimension).
    pub p_eta: usize,
}

impl EtaGroupGeometry {
    /// Geometry for a world of `world_size` ranks split into `eta_groups`
    /// groups (`eta_groups = 0` is accepted as "off" and means one group).
    /// The world must factor exactly: `world_size = p_shard · p_eta`.
    pub fn new(world_size: usize, eta_groups: usize) -> Self {
        let p_eta = eta_groups.max(1);
        assert!(
            world_size.is_multiple_of(p_eta),
            "η-group geometry needs p_eta ({p_eta}) to divide the world size ({world_size})"
        );
        Self {
            p_shard: world_size / p_eta,
            p_eta,
        }
    }

    /// Total world size `p = p_shard · p_eta`.
    pub fn world_size(&self) -> usize {
        self.p_shard * self.p_eta
    }

    /// η group of a world rank (the `split` color of the group communicator).
    pub fn group_of(&self, world_rank: usize) -> usize {
        world_rank / self.p_shard
    }

    /// Shard rank of a world rank within its group (the `split` color of
    /// the cross-group communicator).
    pub fn shard_rank_of(&self, world_rank: usize) -> usize {
        world_rank % self.p_shard
    }

    /// The contiguous slice of grid indices owned by `group` (empty when
    /// there are more groups than grid points).
    pub fn grid_slice(&self, group: usize, grid_len: usize) -> std::ops::Range<usize> {
        shard_range(grid_len, group, self.p_eta)
    }

    /// Carve `world` into this geometry: returns `(group_comm, cross_comm)`
    /// — this rank's η group (color = [`EtaGroupGeometry::group_of`]) and
    /// the perpendicular communicator joining its shard rank across all
    /// groups (color = [`EtaGroupGeometry::shard_rank_of`]). Both splits key
    /// on the world rank, so group ranks keep world order (shard `r` of
    /// group `g` is world rank `g·p_shard + r`) and `cross_comm.rank()` *is*
    /// the group id — the ordering the cross-group MAXLOC tie-break of
    /// [`Executor::select_eta_grouped`] relies on. Collective over `world`.
    pub fn split(
        &self,
        world: &dyn Communicator,
    ) -> (Box<dyn Communicator>, Box<dyn Communicator>) {
        assert_eq!(
            world.size(),
            self.world_size(),
            "world does not match the geometry"
        );
        let rank = world.rank();
        (
            world.split(self.group_of(rank), rank),
            world.split(self.shard_rank_of(rank), rank),
        )
    }
}

/// η-independent per-`z⋄` ROUND state: `B(H_o)`, the assembled `Σ⋄` block
/// diagonal (one Allreduce), its per-block Cholesky factors, and the
/// `g_ik` panel. The η sweep builds this **once** and shares it across
/// every grid re-run instead of reassembling (and re-communicating) it per
/// value.
///
/// Since the streaming layer landed this state is **persistent**:
/// [`crate::stream::StreamingState`] advances it incrementally under point
/// add/remove/label mutations (rank-one Cholesky up/downdates plus a
/// delta-Allreduce of changed partial sums) instead of rebuilding it per
/// round. See ARCHITECTURE.md § "Streaming round state" for the ownership
/// and invalidation rules.
pub struct RoundState<T: Scalar> {
    pub(crate) bho: BlockDiag<T>,
    pub(crate) sigma: BlockDiag<T>,
    pub(crate) sigma_chol: Vec<Cholesky<T>>,
    pub(crate) gik: Matrix<T>,
}

impl<T: Scalar> RoundState<T> {
    /// The assembled `Σ⋄` block diagonal.
    pub fn sigma(&self) -> &BlockDiag<T> {
        &self.sigma
    }

    /// The labeled-set Hessian block diagonal `B(H_o)`.
    pub fn bho(&self) -> &BlockDiag<T> {
        &self.bho
    }

    /// The per-block Cholesky factors `(Σ⋄)_k = L_kL_kᵀ` (of
    /// `(Σ⋄)_k + 1e-8·I` for a block that is only semidefinite).
    pub fn sigma_chol(&self) -> &[Cholesky<T>] {
        &self.sigma_chol
    }
}

/// One rank's execution context: communicator endpoint + shard geometry +
/// optional intra-rank kernel pool.
///
/// All of Approx-FIRAL routes through here; `p = 1` callers pass a
/// [`SelfComm`] and the collectives reduce to no-ops. With
/// [`Executor::with_threads`] the rank owns a private kernel sub-pool and
/// the dense kernels fan out on it — the ranks × threads hybrid tier
/// mirroring the paper's GPU-per-rank layout. Kernel results are bitwise
/// independent of the thread count (see `firal_linalg::gemm`), so the
/// SPMD consistency guarantees are unaffected by the pool size.
pub struct Executor<'a, T: CommScalar> {
    comm: &'a dyn Communicator,
    shard: &'a ShardedProblem<T>,
    pool: Option<rayon::ThreadPool>,
}

impl<'a, T: CommScalar> Executor<'a, T> {
    /// Context for one rank of an SPMD group.
    pub fn new(comm: &'a dyn Communicator, shard: &'a ShardedProblem<T>) -> Self {
        assert!(
            shard.offset + shard.local_n() <= shard.global_n,
            "shard exceeds the global pool"
        );
        Self {
            comm,
            shard,
            pool: None,
        }
    }

    /// Give this rank its own kernel sub-pool of `threads` workers; the
    /// dense kernels inside every solve dispatched through this executor
    /// fan out on it. `0` removes the sub-pool (ambient pool applies).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = (threads > 0).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build the rank kernel pool")
        });
        self
    }

    /// Intra-rank kernel threads solves on this executor will use.
    pub fn threads(&self) -> usize {
        self.pool
            .as_ref()
            // lint: allow(thread-count) telemetry-only accessor: the value feeds logs and Fig. 5/7 table columns, never a kernel shape (chunking is shape-only)
            .map_or_else(rayon::current_num_threads, rayon::ThreadPool::threads)
    }

    /// Run `f` with this rank's sub-pool installed (no-op without one).
    /// Crate-visible so the distributed strategies scope their dense
    /// kernels on the same per-rank pool the solvers use.
    pub(crate) fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Group size `p`.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying communicator endpoint.
    pub fn comm(&self) -> &dyn Communicator {
        self.comm
    }

    /// This rank's shard.
    pub fn shard(&self) -> &ShardedProblem<T> {
        self.shard
    }

    /// Rank owning global pool index `i` under the even decomposition.
    pub(crate) fn owner_of(&self, i: usize) -> usize {
        (0..self.size())
            .find(|&r| shard_range(self.shard.global_n, r, self.size()).contains(&i))
            .expect("global index outside the pool")
    }

    /// Replicate the `(x, h)` rows of global pool index `i` on every rank:
    /// the owner fills the payload from its shard and broadcasts (the same
    /// Line-11 pattern ROUND uses). Returns `(x_i, h_i)` with the owner's
    /// exact bits on every rank.
    pub(crate) fn bcast_pool_point(&self, i: usize) -> (Vec<T>, Vec<T>) {
        let shard = self.shard;
        let d = shard.dim();
        let cm1 = shard.nblocks();
        let mut payload = vec![T::ZERO; d + cm1];
        let owner = self.owner_of(i);
        if let Some(l) = i.checked_sub(shard.offset).filter(|&l| l < shard.local_n()) {
            payload[..d].copy_from_slice(shard.local_x.row(l));
            payload[d..].copy_from_slice(shard.local_h.row(l));
        }
        T::bcast(self.comm, &mut payload, owner);
        let h = payload.split_off(d);
        (payload, h)
    }

    /// Allreduce-sum a block diagonal in place (the §III-C partial-sum
    /// pattern for `B(Σ_z)` and `(Σ⋄)_k`).
    fn allreduce_block_diag(&self, bd: &mut BlockDiag<T>) {
        let d = bd.dim();
        let cm1 = bd.nblocks();
        let mut flat: Vec<T> = Vec::with_capacity(cm1 * d * d);
        for k in 0..cm1 {
            flat.extend_from_slice(bd.block(k).as_slice());
        }
        T::allreduce(self.comm, &mut flat, ReduceOp::Sum);
        for k in 0..cm1 {
            bd.block_mut(k)
                .as_mut_slice()
                .copy_from_slice(&flat[k * d * d..(k + 1) * d * d]);
        }
    }

    /// Scalar allreduce through the f64 wire format.
    pub(crate) fn allreduce_scalar(&self, value: T, op: ReduceOp) -> T {
        let mut buf = [value.to_f64()];
        self.comm.allreduce_f64(&mut buf, op);
        T::from_f64(buf[0])
    }

    /// Algorithm 2 (RELAX), communicator-generic.
    ///
    /// Per mirror-descent iteration: Bcast a fresh `ê × s` Rademacher panel
    /// from rank 0; build and factor the block-Jacobi preconditioner
    /// `B(Σ_z)⁻¹` from Allreduced partial block sums; run batched
    /// preconditioned CG `W ← Σ_z⁻¹V`, `W ← H_pW`, `W ← Σ_z⁻¹W` with the
    /// matvec Allreduce inside [`AllreduceOperator`]; take purely local
    /// Hutchinson gradients; and close with the entropic mirror-descent
    /// update (global max-|g| and normalizer are scalar Allreduces). The
    /// objective estimate and its 1e-4 relative stopping rule are evaluated
    /// from replicated panels, so every rank decides identically.
    pub fn relax(&self, budget: usize, config: &RelaxConfig<T>) -> RelaxRun<T> {
        self.install(|| self.relax_impl(budget, config))
    }

    fn relax_impl(&self, budget: usize, config: &RelaxConfig<T>) -> RelaxRun<T> {
        let shard = self.shard;
        let n = shard.global_n;
        let ehat = shard.ehat();
        let b = T::from_usize(budget);
        let stats0 = self.comm.stats();
        let mut timer = PhaseTimer::new();

        let mut z_local = vec![T::ONE / T::from_usize(n); shard.local_n()];
        let cg_cfg = CgConfig {
            rel_tol: config.cg_tol,
            max_iter: config.cg_max_iter,
        };

        // B(H_o) is weight-independent: build once outside the loop. The
        // unweighted pool/labeled operators are also loop-invariant.
        let ho = PoolHessian::unweighted(&shard.labeled_x, &shard.labeled_h);
        let bho = timer.time("precond", || ho.block_diagonal());
        let hp_local = PoolHessian::unweighted(&shard.local_x, &shard.local_h);
        let hp = AllreduceOperator::new(self.comm, &hp_local, None);
        // X·V_wide of the iteration's probe panel (see Line 7).
        let mut xv = Matrix::zeros(shard.local_n(), shard.nblocks() * config.probes);

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut telemetry = RelaxTelemetry {
            objective_history: Vec::new(),
            iterations: 0,
            converged: false,
        };
        let mut first_cg: Vec<CgTelemetry<T>> = Vec::new();
        let mut total_cg_iters = 0usize;

        for t in 1..=config.md.max_iters {
            telemetry.iterations = t;

            // Line 4: probe panel drawn on rank 0, Bcast to the group.
            let mut v: Matrix<T> = if self.rank() == 0 {
                rademacher_panel(ehat, config.probes, &mut rng)
            } else {
                Matrix::zeros(ehat, config.probes)
            };
            T::bcast(self.comm, v.as_mut_slice(), 0);

            // Gradients are evaluated at the feasible point b·z of Eq. 5 (z
            // itself stays on the unit simplex for the multiplicative
            // update).
            let zb_local: Vec<T> = z_local.iter().map(|&v| v * b).collect();
            let local_hz = PoolHessian::weighted(&shard.local_x, &shard.local_h, zb_local);
            let sigma = AllreduceOperator::new(self.comm, &local_hz, Some(&ho));

            // Line 5: B(Σ_z) = B(H_o) + allreduce(B(H_{b·z})_local),
            // factored per block on every rank.
            let prec = timer.time("precond", || {
                let mut bsz = local_hz.block_diagonal();
                self.allreduce_block_diag(&mut bsz);
                bsz.add_scaled(T::ONE, &bho);
                if config.ridge > T::ZERO {
                    BlockJacobi::new_with_ridge(&bsz, config.ridge)
                } else {
                    BlockJacobi::new(&bsz).or_else(|_| {
                        // Lazy ridge fallback for numerically semidefinite
                        // blocks.
                        BlockJacobi::new_with_ridge(&bsz, T::from_f64(1e-8))
                    })
                }
                .expect("preconditioner factorization failed")
            });

            // Line 6: W ← Σ_z⁻¹ V.
            let (w1, tel1) = timer.time("cg", || cg_solve_panel(&sigma, &prec, &v, &cg_cfg));
            total_cg_iters += tel1.iter().map(|t| t.iterations).sum::<usize>();
            if t == 1 {
                first_cg = tel1;
            }

            // Line 7: W ← H_p W (plus H_p·V for the objective estimate).
            // X·V_wide is formed once: H_p·V sweeps over it here and Line 9
            // reads it again.
            let w2 = timer.time("matvec", || hp.apply_panel(&w1));
            timer.time("matvec", || {
                probe_products_into(&shard.local_x, &v, shard.nblocks(), &mut xv);
            });
            let hpv = timer.time("matvec", || {
                let mut y = hp_local.apply_products(&xv);
                T::allreduce(self.comm, y.as_mut_slice(), ReduceOp::Sum);
                y
            });

            // Line 8: W ← Σ_z⁻¹ W.
            let (w3, tel2) = timer.time("cg", || cg_solve_panel(&sigma, &prec, &w2, &cg_cfg));
            total_cg_iters += tel2.iter().map(|t| t.iterations).sum::<usize>();

            // Line 9: local Hutchinson gradients (no communication).
            let g = timer.time("gradient", || {
                hutchinson_gradients_shared(&shard.local_x, &shard.local_h, &xv, &w3)
            });

            // Lines 10–11: multiplicative update + simplex normalization,
            // with a √t-decaying magnitude-normalized step. The max |g| and
            // the normalizer are the two scalar collectives of the step.
            timer.time("other", || {
                let mut local_max = T::ZERO;
                for &gi in &g {
                    local_max = local_max.maxv(gi.abs());
                }
                let max_abs = self.allreduce_scalar(local_max, ReduceOp::Max);
                let beta =
                    config.md.beta0 / T::from_usize(t).sqrt() / max_abs.maxv(T::MIN_POSITIVE);
                let mut local_sum = T::ZERO;
                for (zi, &gi) in z_local.iter_mut().zip(g.iter()) {
                    // Gradients enter negated: g here is +(1/s)Σvᵀ H w, and
                    // the objective gradient is its negation, so ascent on g.
                    *zi *= (beta * gi).exp();
                    local_sum += *zi;
                }
                let total = self.allreduce_scalar(local_sum, ReduceOp::Sum);
                for zi in z_local.iter_mut() {
                    *zi /= total;
                }
            });

            // Objective estimate f ≈ (1/s) Σ_j (Σ⁻¹v_j)ᵀ(H_p v_j) from
            // replicated panels (identical on all ranks) and the stopping
            // rule on its relative change.
            let f_est = timer.time("other", || {
                let mut acc = T::ZERO;
                for j in 0..config.probes {
                    let mut col = T::ZERO;
                    for i in 0..ehat {
                        col += w1[(i, j)] * hpv[(i, j)];
                    }
                    acc += col;
                }
                acc / T::from_usize(config.probes)
            });
            if let Some(&prev) = telemetry.objective_history.last() {
                if ((f_est - prev) / prev.abs().maxv(T::MIN_POSITIVE)).abs() < config.md.obj_rel_tol
                {
                    telemetry.objective_history.push(f_est);
                    telemetry.converged = true;
                    break;
                }
            }
            telemetry.objective_history.push(f_est);
        }

        // Assemble the global z⋄ (Allgatherv in rank order = global order).
        let z_local: Vec<T> = z_local.iter().map(|&v| v * b).collect();
        let z_diamond = T::allgatherv(self.comm, &z_local);
        assert_eq!(z_diamond.len(), n, "allgathered z has wrong length");

        RelaxRun {
            z_local,
            z_diamond,
            telemetry,
            first_cg,
            timer,
            total_cg_iters,
            comm_stats: self.comm.stats().since(&stats0),
        }
    }

    /// Algorithm 3 (ROUND), communicator-generic.
    ///
    /// `z_local` is this rank's shard of `z⋄` (budget-scaled). Per
    /// selection: local Eq. 17 scores and a MAXLOC argmax; the owner Bcasts
    /// the winning `(x, h)`; the replicated FTRL state updates locally; the
    /// per-block generalized eigensolves (Line 9) are distributed over
    /// ranks and Allgathered before the `ν` bisection — after every
    /// selection but the last, whose `ν` nothing would read: `3·budget − 1`
    /// collectives in all.
    pub fn round(&self, z_local: &[T], budget: usize, eta: T, eig: EigSolver) -> RoundRun<T> {
        self.install(|| {
            let stats0 = self.comm.stats();
            let mut timer = PhaseTimer::new();
            let scratch = self.round_scratch(z_local, &mut timer);
            self.round_over(&scratch, budget, eta, eig, timer, stats0)
        })
    }

    /// Build the η-independent ROUND state (Line 3 of Algorithm 3 plus the
    /// `g_ik` panel) from scratch: one Allreduce, one Cholesky sweep.
    /// This is the **from-scratch rebuild** the streaming
    /// refactor boundary is defined against: at a refactor the incremental
    /// state must equal this build bitwise.
    pub fn build_round_state(&self, z_local: &[T]) -> RoundState<T> {
        let mut timer = PhaseTimer::new();
        self.install(|| self.round_scratch(z_local, &mut timer))
    }

    /// Run the FTRL selection loop of Algorithm 3 over a prebuilt (possibly
    /// incrementally maintained) [`RoundState`] — the persistent-state
    /// counterpart of [`Executor::round`]. The state must describe the same
    /// pool this executor's shard was materialized from. The [`Whitening`]
    /// prologue is not part of the persistent state: it is derived here,
    /// per call, from the factors the state carries.
    pub fn round_with_state(
        &self,
        state: &RoundState<T>,
        budget: usize,
        eta: T,
        eig: EigSolver,
    ) -> RoundRun<T> {
        self.install(|| {
            self.round_over(
                state,
                budget,
                eta,
                eig,
                PhaseTimer::new(),
                self.comm.stats(),
            )
        })
    }

    /// One fixed-η run over `state`: the whitening prologue, then the loop.
    /// `timer` and `stats0` are the caller's, so a from-scratch
    /// [`Executor::round`] bills its state build to the same run.
    fn round_over(
        &self,
        state: &RoundState<T>,
        budget: usize,
        eta: T,
        eig: EigSolver,
        mut timer: PhaseTimer,
        stats0: CommStats,
    ) -> RoundRun<T> {
        let white = timer.time("other", || Whitening::new(state));
        self.round_body(&white, budget, eta, eig, timer, stats0)
    }

    fn round_scratch(&self, z_local: &[T], timer: &mut PhaseTimer) -> RoundState<T> {
        let shard = self.shard;
        let n_local = shard.local_n();
        let cm1 = shard.nblocks();
        assert_eq!(z_local.len(), n_local, "z shard length mismatch");

        // Line 3: block diagonals of Σ⋄ = H_o + H_{z⋄} (Allreduce of local
        // partial sums) and of H_o.
        let bho = PoolHessian::unweighted(&shard.labeled_x, &shard.labeled_h).block_diagonal();
        let mut sigma = timer.time("other", || {
            let mut local = PoolHessian::weighted(&shard.local_x, &shard.local_h, z_local.to_vec())
                .block_diagonal();
            self.allreduce_block_diag(&mut local);
            local
        });
        sigma.add_scaled(T::ONE, &bho);

        // Cholesky of each (Σ⋄)_k — reused for every generalized eigensolve.
        let sigma_chol: Vec<Cholesky<T>> = timer.time("other", || {
            sigma
                .blocks()
                .iter()
                .map(|blk| {
                    Cholesky::new(blk).or_else(|_| Cholesky::new_with_ridge(blk, T::from_f64(1e-8)))
                })
                .collect::<firal_linalg::Result<Vec<_>>>()
                .expect("Σ⋄ blocks must be SPD")
        });

        // g_ik = h_ik (1 - h_ik) for every local pool point.
        let gik = {
            let mut g = Matrix::zeros(n_local, cm1);
            for i in 0..n_local {
                let hrow = shard.local_h.row(i);
                let grow = g.row_mut(i);
                for k in 0..cm1 {
                    grow[k] = hrow[k] * (T::ONE - hrow[k]);
                }
            }
            g
        };

        RoundState {
            bho,
            sigma,
            sigma_chol,
            gik,
        }
    }

    /// The FTRL selection loop of Algorithm 3 for one η, over the whitening
    /// prologue of prebuilt η-independent scratch. The replicated state and
    /// its arithmetic are [`WhitenedFtrl`]'s; what is left here is the
    /// collectives around it.
    fn round_body(
        &self,
        white: &Whitening<'_, T>,
        budget: usize,
        eta: T,
        eig: EigSolver,
        mut timer: PhaseTimer,
        stats0: CommStats,
    ) -> RoundRun<T> {
        let shard = self.shard;
        let d = shard.dim();
        let n_local = shard.local_n();
        assert!(
            budget <= shard.global_n,
            "cannot select more points than the pool holds"
        );

        // Lines 4–5: B₁ = √ê·Σ⋄ + (η/b)·H_o, (H)_k ← 0 (replicated).
        let mut ftrl = timer.time("other", || WhitenedFtrl::new(white, budget, eta));
        let mut scores = vec![T::ZERO; n_local];
        let mut taken_local = vec![false; n_local];
        let mut selected = Vec::with_capacity(budget);

        // Which blocks this rank owns for the distributed eigensolve.
        let my_blocks = shard_range(shard.nblocks(), self.rank(), self.size());

        for t in 0..budget {
            // Line 7: local Eq. 17 scores; global argmax via MAXLOC.
            timer.time("objective", || ftrl.scores(&shard.local_x, &mut scores));
            let mut local_best = (f64::NEG_INFINITY, u64::MAX);
            for (i, &s) in scores.iter().enumerate() {
                if !taken_local[i] {
                    let sv = s.to_f64();
                    if sv > local_best.0 {
                        local_best = (sv, (shard.offset + i) as u64);
                    }
                }
            }
            let (_, global_idx) = self.comm.allreduce_maxloc(local_best.0, local_best.1);
            assert!(global_idx != u64::MAX, "ROUND ran out of candidates");
            let it = global_idx as usize;
            selected.push(it);

            // The owner broadcasts x_{i_t}, h_{i_t} (the Line-11 Bcast of
            // §III-C).
            if let Some(l) = it.checked_sub(shard.offset).filter(|&l| l < n_local) {
                taken_local[l] = true;
            }
            let (xit, hit) = self.bcast_pool_point(it);

            // Line 8: (H)_k += (1/b)(H_o)_k + g_{i_t,k} x_{i_t}x_{i_t}ᵀ
            // (replicated state, local arithmetic).
            timer.time("other", || ftrl.pick(&xit, &hit));

            // Lines 9–11 only feed the next pick's scores.
            if t + 1 == budget {
                break;
            }

            // Line 9: eigenvalues of (H̃)_k = (Σ⋄)_k^{-1/2}(H)_k(Σ⋄)_k^{-1/2},
            // which are those of the whitened accumulator C_t,k; each rank
            // does its block share, then Allgather.
            let lambdas = timer.time("eig", || {
                let mut local_vals = Vec::with_capacity(my_blocks.len() * d);
                for k in my_blocks.clone() {
                    let c = ftrl.c_t().block(k);
                    match eig {
                        EigSolver::Exact => {
                            local_vals.extend(eigvalsh(c).expect("generalized eigensolve"));
                        }
                        EigSolver::Lanczos { steps } => {
                            let op = DenseOperator::new(c.clone());
                            // Seeded per (block, step) so the Ritz values are
                            // identical no matter which rank owns the block.
                            let mut rng =
                                StdRng::seed_from_u64((k as u64) << 32 | selected.len() as u64);
                            let ritz = lanczos_spectrum(&op, steps.min(d), &mut rng);
                            local_vals.extend(pad_spectrum(&ritz.ritz_values, d));
                        }
                    }
                }
                T::allgatherv(self.comm, &local_vals)
            });

            // Line 10: ν_{t+1} from Σ_{k,j}(ν + ηλ)^{-2} = 1.
            let nu = timer.time("other", || firal_solvers::solve_nu(&lambdas, eta));

            // Line 11: B_{t+1} = ν·Σ⋄ + η·(H) + (η/b)·H_o; the next scoring
            // pass factors it.
            ftrl.set_nu(nu);
        }

        RoundRun {
            selected,
            eta,
            criterion: None,
            timer,
            comm_stats: self.comm.stats().since(&stats0),
        }
    }

    /// The §IV-A η-selection criterion over a **global** selection:
    /// `min_k λ_min(Σ_{i∈sel} g_ik x_ix_iᵀ)`, assembled from local partial
    /// block sums with one Allreduce.
    pub fn selection_min_eig(&self, selected: &[usize]) -> T {
        let shard = self.shard;
        let d = shard.dim();
        let cm1 = shard.nblocks();
        let mut acc = BlockDiag::<T>::zeros(cm1, d);
        for &i in selected {
            if let Some(l) = i.checked_sub(shard.offset).filter(|&l| l < shard.local_n()) {
                let hrow = shard.local_h.row(l);
                let gammas: Vec<T> = (0..cm1).map(|k| hrow[k] * (T::ONE - hrow[k])).collect();
                acc.rank_one_update(&gammas, shard.local_x.row(l));
            }
        }
        self.allreduce_block_diag(&mut acc);
        self.install(|| acc.min_block_eigenvalue())
            .expect("eigenvalues of selection")
    }

    /// Run ROUND for every η in `grid · √ê` and keep the run maximizing
    /// [`Executor::selection_min_eig`] — "we execute the ROUND step with
    /// different η values, and then select the one that maximizes
    /// min_k λ_min(H)_k" (§IV-A). Every rank evaluates the identical
    /// criterion, so the grid choice is rank-invariant. This is the
    /// `p_eta = 1` call of [`Executor::select_eta_grouped`]: one group, the
    /// whole grid, a cross communicator of one.
    pub fn select_eta(&self, z_local: &[T], budget: usize, grid: &[T]) -> RoundRun<T> {
        self.select_eta_grouped(z_local, budget, grid, &SelfComm::new())
    }

    /// The η sweep, distributed over η-group sub-communicators — the 2D
    /// tier `p = p_shard × p_eta` of [`EtaGroupGeometry`].
    ///
    /// `self` must be the **group-level** executor: its communicator is one
    /// η group of `p_shard` ranks and its shard is this rank's `p_shard`-way
    /// slice of the pool. `cross` is the perpendicular sub-communicator
    /// connecting the same shard rank across all `p_eta` groups, with
    /// `cross.rank()` the group id — the pair [`EtaGroupGeometry::split`]
    /// returns.
    ///
    /// The sweep:
    /// 1. **setup** — the group-0 copy of this shard's `z⋄` slice is
    ///    broadcast along `cross`, pinning every group to identical bits
    ///    (in-memory harnesses replicate `z⋄` anyway; a distributed-memory
    ///    caller gets the §III-C data distribution for free);
    /// 2. each group builds the η-independent ROUND scratch (Σ⋄ Allreduce +
    ///    Cholesky sweep + `g_ik`, and the [`Whitening`] prologue) **once** and
    ///    runs the FTRL loop only for its contiguous grid slice
    ///    ([`EtaGroupGeometry::grid_slice`]), scoring each selection with
    ///    [`Executor::selection_min_eig`] over the group communicator;
    /// 3. a single cross-group [`allreduce_maxloc`] with the grid index as
    ///    payload picks the winner. Ties go to the lower cross rank =
    ///    lower group = lower grid index — the sequential sweep's
    ///    first-maximum rule — so for any fixed `p_shard` the returned
    ///    (η★, selection, criterion) is **bitwise identical** to the
    ///    `p_eta = 1` sequential sweep on the same group size;
    /// 4. the winning group broadcasts its selection along `cross`; η★ is
    ///    recomputed locally from the winning index (same `T` arithmetic on
    ///    every rank, hence bit-identical).
    ///
    /// The returned `timer` and `comm_stats` cover **this rank's whole
    /// share of the sweep** (scratch, every slice η, criterion reductions,
    /// and the cross-group collectives): that is the quantity the scaling
    /// harnesses bill per group.
    ///
    /// [`allreduce_maxloc`]: firal_comm::Communicator::allreduce_maxloc
    pub fn select_eta_grouped(
        &self,
        z_local: &[T],
        budget: usize,
        grid: &[T],
        cross: &dyn Communicator,
    ) -> RoundRun<T> {
        assert!(!grid.is_empty(), "η grid must be non-empty");
        let geometry = EtaGroupGeometry {
            p_shard: self.size(),
            p_eta: cross.size(),
        };
        self.install(|| {
            let scale = T::from_usize(self.shard.ehat()).sqrt();
            let group_stats0 = self.comm.stats();
            let cross_stats0 = cross.stats();
            let mut sweep_timer = PhaseTimer::new();

            // Step 1: pin every group to the group-0 bits of this shard's
            // z⋄ slice.
            let mut z_group = z_local.to_vec();
            T::bcast(cross, &mut z_group, 0);

            // Step 2: η-independent scratch once, then only this group's
            // contiguous slice of the grid.
            let scratch = self.round_scratch(&z_group, &mut sweep_timer);
            let white = sweep_timer.time("other", || Whitening::new(&scratch));
            let my_group = cross.rank();
            let mut best: Option<(T, usize, RoundRun<T>)> = None;
            for gi in geometry.grid_slice(my_group, grid.len()) {
                let out = self.round_body(
                    &white,
                    budget,
                    grid[gi] * scale,
                    EigSolver::Exact,
                    PhaseTimer::new(),
                    self.comm.stats(),
                );
                sweep_timer.merge(&out.timer);
                let crit = self.selection_min_eig(&out.selected);
                match &best {
                    Some((c, _, _)) if *c >= crit => {}
                    _ => best = Some((crit, gi, out)),
                }
            }

            // Step 3: cross-group argmax. A group with an empty slice
            // contributes the -inf sentinel; group 0's slice is never empty
            // for a non-empty grid, so a real winner always exists.
            let (local_val, local_idx) = match &best {
                Some((crit, gi, _)) => (crit.to_f64(), *gi as u64),
                None => (f64::NEG_INFINITY, u64::MAX),
            };
            let (best_val, best_idx) = cross.allreduce_maxloc(local_val, local_idx);
            assert!(best_idx != u64::MAX, "η grid produced no result");
            let win = best_idx as usize;
            let winner_group = (0..geometry.p_eta)
                .find(|&g| geometry.grid_slice(g, grid.len()).contains(&win))
                .expect("winning grid index outside every group's slice");

            // Step 4: the winner's selection travels along the cross
            // communicator (pool indices are exact in the f64 lane); η★ and
            // the criterion are reconstructed locally / from the MAXLOC.
            let mut sel_buf = vec![0.0f64; budget];
            if my_group == winner_group {
                let (_, _, run) = best.as_ref().expect("winner group lost its run");
                for (slot, &idx) in sel_buf.iter_mut().zip(&run.selected) {
                    *slot = idx as f64;
                }
            }
            cross.bcast_f64(&mut sel_buf, winner_group);
            let selected: Vec<usize> = sel_buf.iter().map(|&v| v as usize).collect();

            let mut comm_stats = self.comm.stats().since(&group_stats0);
            comm_stats.merge(&cross.stats().since(&cross_stats0));
            RoundRun {
                selected,
                eta: grid[win] * scale,
                criterion: Some(T::from_f64(best_val)),
                timer: sweep_timer,
                comm_stats,
            }
        })
    }

    /// Full Approx-FIRAL (RELAX then ROUND) under one configuration,
    /// including the η grid rule when `config.round.eta` is `None`.
    pub fn approx_firal(
        &self,
        budget: usize,
        config: &FiralConfig<T>,
    ) -> (RelaxRun<T>, RoundRun<T>) {
        let relax = self.relax(budget, &config.relax);
        let round = match config.round.eta {
            Some(eta) => self.round(&relax.z_local, budget, eta, EigSolver::Exact),
            None => self.select_eta(&relax.z_local, budget, &config.round.eta_grid),
        };
        (relax, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MirrorDescentConfig;
    use crate::exact::exact_relax;
    use crate::problem::tiny_problem;
    use firal_comm::launch;

    #[test]
    fn sharding_partitions_the_pool() {
        let p = tiny_problem(1, 25, 3, 3);
        let mut total = 0;
        for r in 0..4 {
            let s = ShardedProblem::shard(&p, r, 4);
            total += s.local_n();
            assert_eq!(s.global_n, 25);
            // Shard rows match the global panel.
            for i in 0..s.local_n() {
                assert_eq!(s.local_x.row(i), p.pool_x.row(s.offset + i));
            }
        }
        assert_eq!(total, 25);
    }

    #[test]
    fn replicate_is_the_trivial_shard() {
        let p = tiny_problem(2, 17, 3, 3);
        let s = ShardedProblem::replicate(&p);
        assert_eq!(s.offset, 0);
        assert_eq!(s.local_n(), 17);
        assert_eq!(s.global_n, 17);
        let via_shard = ShardedProblem::shard(&p, 0, 1);
        assert_eq!(via_shard.local_x, s.local_x);
        assert_eq!(via_shard.offset, 0);
    }

    #[test]
    fn relax_output_is_budget_scaled_simplex() {
        let p = tiny_problem(1, 60, 4, 3);
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let out = Executor::new(&comm, &shard).relax(8, &RelaxConfig::default());
        assert_eq!(out.z_diamond.len(), 60);
        assert_eq!(out.z_local, out.z_diamond, "p = 1: the shard is the pool");
        assert!(out.z_diamond.iter().all(|&v| v >= 0.0));
        let sum: f64 = out.z_diamond.iter().sum();
        assert!((sum - 8.0).abs() < 1e-8, "‖z⋄‖₁ = {sum}");
        assert!(out.telemetry.iterations >= 1);
        assert!(!out.first_cg.is_empty());
        assert!(out.total_cg_iters > 0);
    }

    #[test]
    fn relax_weights_correlate_with_exact() {
        // On a small problem the fast solver (tight CG, many probes) must
        // put large weight on roughly the same points as the exact solver.
        let p = tiny_problem(2, 40, 3, 3);
        let md = MirrorDescentConfig {
            max_iters: 30,
            ..Default::default()
        };
        let (z_exact, _) = exact_relax(&p, 5, &md);
        let cfg = RelaxConfig {
            md,
            probes: 60,
            cg_tol: 1e-6,
            seed: 3,
            ..Default::default()
        };
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let out = Executor::new(&comm, &shard).relax(5, &cfg);
        // Rank correlation proxy: top-10 sets overlap substantially.
        let top = |z: &[f64]| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..z.len()).collect();
            idx.sort_by(|&a, &b| z[b].partial_cmp(&z[a]).unwrap());
            idx[..10].to_vec()
        };
        let te = top(&z_exact);
        let ta = top(&out.z_diamond);
        let overlap = te.iter().filter(|i| ta.contains(i)).count();
        assert!(
            overlap >= 5,
            "exact/approx top-10 overlap only {overlap}: {te:?} vs {ta:?}"
        );
    }

    #[test]
    fn relax_objective_history_trends_down() {
        let p = tiny_problem(4, 50, 3, 4);
        let cfg = RelaxConfig {
            probes: 30,
            cg_tol: 0.01,
            seed: 5,
            ..Default::default()
        };
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let out = Executor::new(&comm, &shard).relax(5, &cfg);
        let h = &out.telemetry.objective_history;
        assert!(h.len() >= 2);
        let first = h[0];
        let last = *h.last().unwrap();
        assert!(
            last <= first * 1.05,
            "objective should not increase materially: {first} → {last}"
        );
    }

    #[test]
    fn relax_is_deterministic_given_seed() {
        let p = tiny_problem(6, 30, 3, 3);
        let cfg = RelaxConfig {
            seed: 11,
            ..Default::default()
        };
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let exec = Executor::new(&comm, &shard);
        let a = exec.relax(4, &cfg);
        let b = exec.relax(4, &cfg);
        assert_eq!(a.z_diamond, b.z_diamond);
        assert_eq!(a.telemetry.objective_history, b.telemetry.objective_history);
    }

    #[test]
    fn relax_timer_covers_the_paper_phases() {
        let p = tiny_problem(8, 30, 3, 3);
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let out = Executor::new(&comm, &shard).relax(3, &RelaxConfig::default());
        for phase in ["precond", "cg", "gradient"] {
            assert!(
                out.timer.phases().any(|(n, _)| n == phase),
                "missing phase {phase}"
            );
        }
    }

    #[test]
    fn multi_rank_relax_agrees_with_serial() {
        let p = tiny_problem(3, 30, 3, 3);
        let cfg = RelaxConfig {
            seed: 4,
            cg_tol: 1e-8,
            probes: 20,
            ..Default::default()
        };
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let serial = Executor::new(&comm, &shard).relax(4, &cfg);
        for procs in [2usize, 3] {
            let problem = p.clone();
            let config = cfg;
            let results = launch(procs, move |comm| {
                let shard = ShardedProblem::shard(&problem, comm.rank(), comm.size());
                Executor::new(comm, &shard).relax(4, &config).z_diamond
            });
            for z in &results {
                assert_eq!(z.len(), 30);
                for (a, b) in z.iter().zip(serial.z_diamond.iter()) {
                    assert!(
                        (a - b).abs() < 1e-6 * b.abs().max(1e-3),
                        "p={procs}: {a} vs serial {b}"
                    );
                }
            }
            // All ranks assembled the identical z.
            for z in &results[1..] {
                assert_eq!(z, &results[0]);
            }
        }
    }

    #[test]
    fn multi_rank_round_matches_serial_selection() {
        let p = tiny_problem(5, 24, 3, 3);
        let b = 4;
        let z: Vec<f64> = (0..24).map(|i| (1.0 + (i % 5) as f64) / 24.0).collect();
        let eta = 8.0 * (p.ehat() as f64).sqrt();
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let serial = Executor::new(&comm, &shard).round(&z, b, eta, EigSolver::Exact);
        for procs in [1usize, 2, 3] {
            let problem = p.clone();
            let zc = z.clone();
            let results = launch(procs, move |comm| {
                let shard = ShardedProblem::shard(&problem, comm.rank(), comm.size());
                let local_z = zc[shard.offset..shard.offset + shard.local_n()].to_vec();
                Executor::new(comm, &shard)
                    .round(&local_z, b, eta, EigSolver::Exact)
                    .selected
            });
            for sel in &results {
                assert_eq!(
                    sel, &serial.selected,
                    "p={procs} selection diverged from serial"
                );
            }
        }
    }

    #[test]
    fn full_pipeline_selects_valid_batch_and_reports_comm() {
        let p = tiny_problem(6, 36, 4, 3);
        let eta = 8.0 * (p.ehat() as f64).sqrt();
        let results = launch(3, move |comm| {
            let shard = ShardedProblem::shard(&p, comm.rank(), comm.size());
            let exec = Executor::new(comm, &shard);
            let relax = exec.relax(6, &RelaxConfig::default());
            let round = exec.round(&relax.z_local, 6, eta, EigSolver::Exact);
            (round.selected, relax.comm_stats, round.comm_stats)
        });
        for (sel, relax_stats, round_stats) in &results {
            assert_eq!(sel.len(), 6);
            let mut sorted = sel.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 6, "duplicates: {sel:?}");
            // The per-run comm deltas must cover the §III-C collectives.
            assert!(relax_stats.allreduce_calls > 0);
            assert!(relax_stats.bcast_calls > 0);
            assert!(round_stats.allgather_calls > 0);
            assert!(round_stats.total_bytes() > 0);
        }
        // Rank-independent result.
        for (sel, _, _) in &results[1..] {
            assert_eq!(sel, &results[0].0);
        }
    }

    #[test]
    fn eta_group_geometry_maps_ranks_and_slices() {
        let g = EtaGroupGeometry::new(6, 3);
        assert_eq!((g.p_shard, g.p_eta), (2, 3));
        assert_eq!(g.world_size(), 6);
        let coords: Vec<(usize, usize)> = (0..6)
            .map(|r| (g.group_of(r), g.shard_rank_of(r)))
            .collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        // Contiguous grid slices covering the grid in group order.
        assert_eq!(g.grid_slice(0, 4), 0..2);
        assert_eq!(g.grid_slice(1, 4), 2..3);
        assert_eq!(g.grid_slice(2, 4), 3..4);
        // More groups than grid points: trailing groups go idle.
        assert_eq!(g.grid_slice(2, 2), 2..2);
        // eta_groups = 0 means "off" = one group.
        assert_eq!(EtaGroupGeometry::new(4, 0).p_eta, 1);
    }

    #[test]
    #[should_panic(expected = "divide the world size")]
    fn eta_group_geometry_rejects_nondivisible_world() {
        let _ = EtaGroupGeometry::new(5, 2);
    }

    #[test]
    fn eta_group_split_orders_group_and_cross_ranks() {
        // The ordering the cross-group MAXLOC tie-break relies on: group
        // ranks in world order, cross rank = group id.
        for (p_shard, p_eta) in [(2usize, 2usize), (1, 3), (3, 1)] {
            let coords = launch(p_shard * p_eta, |world| {
                let geo = EtaGroupGeometry::new(world.size(), p_eta);
                let (group, cross) = geo.split(world);
                (group.rank(), group.size(), cross.rank(), cross.size())
            });
            for (r, &(group_rank, group_size, cross_rank, cross_size)) in coords.iter().enumerate()
            {
                assert_eq!(
                    (group_rank, group_size),
                    (r % p_shard, p_shard),
                    "({p_shard}x{p_eta}) world rank {r}: group ranks out of world order"
                );
                assert_eq!(
                    (cross_rank, cross_size),
                    (r / p_shard, p_eta),
                    "({p_shard}x{p_eta}) world rank {r}: cross rank is not the group id"
                );
            }
        }
    }

    #[test]
    fn grouped_eta_sweep_matches_sequential_sweep_bitwise() {
        // (p_shard, p_eta) = (1, 2): two singleton groups each sweep half
        // the grid; the result must be bit-for-bit the serial sweep —
        // winner index, η★, selection, and criterion.
        let p = tiny_problem(8, 28, 3, 3);
        let b = 4;
        let z: Vec<f64> = (0..28).map(|i| (1.0 + (i % 3) as f64) / 28.0).collect();
        let grid = [2.0, 8.0];

        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let serial = Executor::new(&comm, &shard).select_eta(&z, b, &grid);

        let results = launch(2, |comm| {
            let geo = EtaGroupGeometry::new(comm.size(), 2);
            let (group_comm, cross_comm) = geo.split(comm);
            let shard = ShardedProblem::shard(&p, geo.shard_rank_of(comm.rank()), geo.p_shard);
            let exec = Executor::new(&*group_comm, &shard);
            let out = exec.select_eta_grouped(&z, b, &grid, &*cross_comm);
            (
                out.selected,
                out.eta.to_bits(),
                out.criterion.unwrap().to_bits(),
            )
        });
        for (sel, eta_bits, crit_bits) in &results {
            assert_eq!(sel, &serial.selected);
            assert_eq!(*eta_bits, serial.eta.to_bits());
            assert_eq!(*crit_bits, serial.criterion.unwrap().to_bits());
        }
    }

    #[test]
    fn grouped_sweep_with_more_groups_than_grid_points_leaves_groups_idle() {
        // 3 groups, 2 grid values: group 2's slice is empty and it must
        // still agree on the winner through the sentinel MAXLOC path.
        let p = tiny_problem(9, 24, 3, 3);
        let b = 3;
        let z: Vec<f64> = vec![b as f64 / 24.0; 24];
        let grid = [2.0, 8.0];

        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let serial = Executor::new(&comm, &shard).select_eta(&z, b, &grid);

        let results = launch(3, |comm| {
            let geo = EtaGroupGeometry::new(comm.size(), 3);
            let (group_comm, cross_comm) = geo.split(comm);
            let shard = ShardedProblem::shard(&p, geo.shard_rank_of(comm.rank()), geo.p_shard);
            let exec = Executor::new(&*group_comm, &shard);
            let out = exec.select_eta_grouped(&z, b, &grid, &*cross_comm);
            (out.selected, out.eta.to_bits())
        });
        for (sel, eta_bits) in &results {
            assert_eq!(sel, &serial.selected);
            assert_eq!(*eta_bits, serial.eta.to_bits());
        }
    }

    #[test]
    fn distributed_eta_grid_matches_serial_grid() {
        let p = tiny_problem(7, 30, 3, 3);
        let b = 4;
        let z: Vec<f64> = vec![b as f64 / 30.0; 30];
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let serial = Executor::new(&comm, &shard).select_eta(&z, b, &[2.0, 8.0]);
        let results = launch(2, move |comm| {
            let shard = ShardedProblem::shard(&p, comm.rank(), comm.size());
            let local_z = z[shard.offset..shard.offset + shard.local_n()].to_vec();
            let exec = Executor::new(comm, &shard);
            let out = exec.select_eta(&local_z, b, &[2.0, 8.0]);
            (out.selected, out.eta)
        });
        for (sel, eta) in &results {
            assert_eq!(sel, &serial.selected);
            assert_eq!(*eta, serial.eta);
        }
    }
}
