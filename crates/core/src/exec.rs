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

use firal_comm::{shard_range, CommScalar, CommStats, Communicator, ReduceOp};
use firal_linalg::{eigvalsh_blocks, BlockDiag, Cholesky, Matrix, Scalar};
use firal_solvers::{
    allreduce_block_diag, cg_solve_panel, rademacher_panel, AllreduceOperator, CgConfig,
    LinearOperator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{FiralConfig, RelaxConfig};
use crate::hessian::{fisher_g, hutchinson_gradients, side_by_side, BlockJacobi, PoolHessian};
use crate::problem::SelectionProblem;
use crate::procedure::{mirror_step, sweep_eta, RelaxTelemetry};
use crate::round::{WhitenedFtrl, Whitening};
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
    /// ([`Executor::select_eta`]),
    /// `None` for a fixed-η [`Executor::round`].
    pub criterion: Option<T>,
    /// Phase timings (objective / eig / other).
    pub timer: PhaseTimer,
    /// Collective calls/bytes/time this rank spent inside the solve.
    pub comm_stats: CommStats,
}

/// η-independent per-`z⋄` ROUND state, replicated on every rank: `B(H_o)`,
/// the assembled `Σ⋄` block diagonal (one Allreduce) and its per-block
/// Cholesky factors. The η sweep builds this **once** and shares it across
/// every grid re-run instead of reassembling (and re-communicating) it per
/// value; what depends on the pool shard (`Xᵀ` and the `g_ik` panel) is the
/// [`Whitening`]'s.
///
/// [`crate::stream::StreamingState`] keeps one of these **persistent** and
/// advances it under point add/remove/label mutations (rank-one Cholesky
/// up/downdates plus a delta-Allreduce of changed partial sums) instead of
/// rebuilding it per round. See ARCHITECTURE.md § "Streaming round state"
/// for the ownership and invalidation rules.
#[derive(Debug, Clone)]
pub struct RoundState<T: Scalar> {
    pub(crate) bho: BlockDiag<T>,
    pub(crate) sigma: BlockDiag<T>,
    pub(crate) sigma_chol: Vec<Cholesky<T>>,
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
/// [`firal_comm::SelfComm`] and the collectives reduce to no-ops. With
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
    /// `B(Σ_z)⁻¹` from Allreduced partial block sums (lower triangles only,
    /// [`allreduce_block_diag`]); run batched preconditioned CG
    /// `W ← Σ_z⁻¹V`, `W ← H_pW`, `W ← Σ_z⁻¹W` with the matvec Allreduce
    /// inside [`AllreduceOperator`] — `H_p` is applied once to the `2s`
    /// columns `[W | V]`, so `H_pV` for the objective estimate costs no
    /// extra pass or collective; take purely local Hutchinson gradients,
    /// which form `X·[V | W]` one bounded row tile at a time; and close with
    /// the entropic mirror-descent update (global max-|g| and normalizer are
    /// scalar Allreduces). The objective estimate and its 1e-4 relative
    /// stopping rule are evaluated from replicated panels, so every rank
    /// decides identically.
    ///
    /// Storage per rank, in elements, with `t` kernel-pool threads (Table
    /// II's `O(n(d + c) + c·d²)`, no `n × (c−1)·s` term):
    /// `n_local·(d + 2(c−1) + 3) + n + O((c−1)·d² + 64·d·(c−1)·s + t·64·(c−1)·s)`
    /// — the shard's `X` and `h`; `z`, `b·z` and `g`; the weight panel of
    /// `B(H_{b·z})` while it is built; the assembled `z⋄`; the replicated
    /// blocks and factors; the fused sweeps' chunk partials (at most 64
    /// chunks); one gradient tile per worker.
    pub fn relax(&self, budget: usize, config: &RelaxConfig<T>) -> RelaxRun<T> {
        self.install(|| self.relax_impl(budget, config))
    }

    fn relax_impl(&self, budget: usize, config: &RelaxConfig<T>) -> RelaxRun<T> {
        let shard = self.shard;
        let n = shard.global_n;
        let ehat = shard.ehat();
        let s = config.probes;
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
        // H_{b·z}, reweighted in place every iteration so that its sweep
        // workspace is sized once.
        let mut local_hz = PoolHessian::weighted(
            &shard.local_x,
            &shard.local_h,
            vec![T::ZERO; shard.local_n()],
        );

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut telemetry = RelaxTelemetry::new();
        let mut total_cg_iters = 0usize;

        for t in 1..=config.md.max_iters {
            // Line 4: probe panel drawn on rank 0, Bcast to the group.
            let mut v: Matrix<T> = if self.rank() == 0 {
                rademacher_panel(ehat, s, &mut rng)
            } else {
                Matrix::zeros(ehat, s)
            };
            T::bcast(self.comm, v.as_mut_slice(), 0);

            // Gradients are evaluated at the feasible point b·z of Eq. 5 (z
            // itself stays on the unit simplex for the multiplicative
            // update).
            local_hz.set_weights(z_local.iter().map(|&v| v * b));
            let sigma = AllreduceOperator::new(self.comm, &local_hz, Some(&ho));

            // Line 5: B(Σ_z) = B(H_o) + allreduce(B(H_{b·z})_local),
            // factored per block on every rank.
            let prec = timer.time("precond", || {
                let mut bsz = local_hz.block_diagonal();
                allreduce_block_diag(self.comm, &mut bsz);
                bsz.add_scaled(T::ONE, &bho);
                // Lazy ridge fallback for numerically semidefinite blocks.
                BlockJacobi::new(&bsz)
                    .or_else(|_| BlockJacobi::new_with_ridge(&bsz, T::from_f64(1e-8)))
                    .expect("preconditioner factorization failed")
            });

            // Line 6: W ← Σ_z⁻¹ V.
            let (w1, tel1) = timer.time("cg", || cg_solve_panel(&sigma, &prec, &v, &cg_cfg));
            total_cg_iters += tel1.iter().map(|t| t.iterations).sum::<usize>();

            // Line 7: W ← H_p W, and H_p·V for the objective estimate, as
            // one sweep and one Allreduce of [W | V]: no column of the sweep
            // depends on its neighbours, so each is the bits of its own.
            let hp_wv = timer.time("matvec", || hp.apply_panel(&side_by_side(&w1, &v)));
            let w2 = Matrix::from_fn(ehat, s, |i, j| hp_wv[(i, j)]);

            // Line 8: W ← Σ_z⁻¹ W.
            let (w3, tel2) = timer.time("cg", || cg_solve_panel(&sigma, &prec, &w2, &cg_cfg));
            total_cg_iters += tel2.iter().map(|t| t.iterations).sum::<usize>();

            // Line 9: local Hutchinson gradients (no communication).
            let g = timer.time("gradient", || {
                hutchinson_gradients(&shard.local_x, &shard.local_h, &v, &w3)
            });

            // Lines 10–11: multiplicative update + simplex normalization.
            // g here is +(1/s)Σvᵀ H w, the negated objective gradient; the
            // max |g| and the normalizer are the step's two scalar
            // collectives.
            timer.time("other", || {
                mirror_step(&mut z_local, &g, t, |v, op| self.allreduce_scalar(v, op));
            });

            // Objective estimate f ≈ (1/s) Σ_j (Σ⁻¹v_j)ᵀ(H_p v_j) from
            // replicated panels (identical on all ranks; H_p·V is the right
            // half of Line 7's product) and the stopping rule on its
            // relative change.
            let f_est = timer.time("other", || {
                let mut acc = T::ZERO;
                for j in 0..s {
                    let mut col = T::ZERO;
                    for i in 0..ehat {
                        col += w1[(i, j)] * hp_wv[(i, s + j)];
                    }
                    acc += col;
                }
                acc / T::from_usize(s)
            });
            if telemetry.record(t, f_est, config.md.obj_rel_tol) {
                break;
            }
        }

        // Assemble the global z⋄ (Allgatherv in rank order = global order).
        let z_local: Vec<T> = z_local.iter().map(|&v| v * b).collect();
        let z_diamond = T::allgatherv(self.comm, &z_local);
        assert_eq!(z_diamond.len(), n, "allgathered z has wrong length");

        RelaxRun {
            z_local,
            z_diamond,
            telemetry,
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
    pub fn round(&self, z_local: &[T], budget: usize, eta: T) -> RoundRun<T> {
        self.install(|| {
            let stats0 = self.comm.stats();
            let mut timer = PhaseTimer::new();
            let scratch = self.round_scratch(z_local, &mut timer);
            self.round_over(&scratch, budget, eta, timer, stats0)
        })
    }

    /// Build the η-independent ROUND state (Line 3 of Algorithm 3) from
    /// scratch: one Allreduce, one Cholesky sweep.
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
    /// pool this executor's shard was taken from. The [`Whitening`]
    /// prologue is not part of the persistent state: it is derived here,
    /// per call, from the factors the state carries and the shard.
    pub fn round_with_state(&self, state: &RoundState<T>, budget: usize, eta: T) -> RoundRun<T> {
        self.install(|| self.round_over(state, budget, eta, PhaseTimer::new(), self.comm.stats()))
    }

    /// One fixed-η run over `state`: the whitening prologue, then the loop.
    /// `timer` and `stats0` are the caller's, so a from-scratch
    /// [`Executor::round`] bills its state build to the same run.
    fn round_over(
        &self,
        state: &RoundState<T>,
        budget: usize,
        eta: T,
        mut timer: PhaseTimer,
        stats0: CommStats,
    ) -> RoundRun<T> {
        let (x, h) = (&self.shard.local_x, &self.shard.local_h);
        let white = timer.time("other", || Whitening::new(state, x, h));
        self.round_body(&white, budget, eta, timer, stats0)
    }

    fn round_scratch(&self, z_local: &[T], timer: &mut PhaseTimer) -> RoundState<T> {
        let shard = self.shard;
        assert_eq!(z_local.len(), shard.local_n(), "z shard length mismatch");

        // Line 3: block diagonals of Σ⋄ = H_o + H_{z⋄} (Allreduce of local
        // partial sums) and of H_o.
        let bho = PoolHessian::unweighted(&shard.labeled_x, &shard.labeled_h).block_diagonal();
        let mut sigma = timer.time("other", || {
            let mut local = PoolHessian::weighted(&shard.local_x, &shard.local_h, z_local.to_vec())
                .block_diagonal();
            allreduce_block_diag(self.comm, &mut local);
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

        RoundState {
            bho,
            sigma,
            sigma_chol,
        }
    }

    /// The FTRL selection loop of Algorithm 3 for one η, over the whitening
    /// prologue of prebuilt η-independent scratch. The replicated state and
    /// its arithmetic are [`WhitenedFtrl`]'s; what is left here is the
    /// collectives around it.
    fn round_body(
        &self,
        white: &Whitening<T>,
        budget: usize,
        eta: T,
        mut timer: PhaseTimer,
        stats0: CommStats,
    ) -> RoundRun<T> {
        let shard = self.shard;
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
            timer.time("objective", || ftrl.scores(&mut scores));
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
                let local_vals = eigvalsh_blocks(&ftrl.c_t().blocks()[my_blocks.clone()])
                    .expect("generalized eigensolve");
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
                let gammas: Vec<T> = shard.local_h.row(l).iter().map(|&h| fisher_g(h)).collect();
                acc.rank_one_update(&gammas, shard.local_x.row(l));
            }
        }
        allreduce_block_diag(self.comm, &mut acc);
        self.install(|| acc.min_block_eigenvalue())
            .expect("eigenvalues of selection")
    }

    /// Run ROUND for every η in `grid · √ê` and keep the run maximizing
    /// [`Executor::selection_min_eig`] — "we execute the ROUND step with
    /// different η values, and then select the one that maximizes
    /// min_k λ_min(H)_k" (§IV-A). The η-independent scratch (Σ⋄ Allreduce,
    /// Cholesky sweep, and the [`Whitening`] prologue with `g_ik`) is built
    /// **once** and shared by every grid point; the grid runs in order and
    /// the first maximum wins. Every rank evaluates the identical
    /// criterion, so the grid choice is rank-invariant. The returned
    /// `timer` and `comm_stats` cover the whole sweep.
    pub fn select_eta(&self, z_local: &[T], budget: usize, grid: &[T]) -> RoundRun<T> {
        self.install(|| {
            let scale = T::from_usize(self.shard.ehat()).sqrt();
            let stats0 = self.comm.stats();
            let mut timer = PhaseTimer::new();
            let scratch = self.round_scratch(z_local, &mut timer);
            let (x, h) = (&self.shard.local_x, &self.shard.local_h);
            let white = timer.time("other", || Whitening::new(&scratch, x, h));
            let (crit, run) = sweep_eta(grid, scale, |eta| {
                let out =
                    self.round_body(&white, budget, eta, PhaseTimer::new(), self.comm.stats());
                timer.merge(&out.timer);
                let crit = self.selection_min_eig(&out.selected);
                (out, crit)
            });
            RoundRun {
                criterion: Some(crit),
                timer,
                comm_stats: self.comm.stats().since(&stats0),
                ..run
            }
        })
    }

    /// Full Approx-FIRAL under one configuration: RELAX, then the η grid
    /// sweep of ROUND.
    pub fn approx_firal(
        &self,
        budget: usize,
        config: &FiralConfig<T>,
    ) -> (RelaxRun<T>, RoundRun<T>) {
        let relax = self.relax(budget, &config.relax);
        let round = self.select_eta(&relax.z_local, budget, &config.round.eta_grid);
        (relax, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MirrorDescentConfig;
    use crate::exact::exact_relax;
    use crate::problem::tiny_problem;
    use firal_comm::{launch, SelfComm};

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
        let serial = Executor::new(&comm, &shard).round(&z, b, eta);
        for procs in [1usize, 2, 3] {
            let problem = p.clone();
            let zc = z.clone();
            let results = launch(procs, move |comm| {
                let shard = ShardedProblem::shard(&problem, comm.rank(), comm.size());
                let local_z = zc[shard.offset..shard.offset + shard.local_n()].to_vec();
                Executor::new(comm, &shard).round(&local_z, b, eta).selected
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
            let round = exec.round(&relax.z_local, 6, eta);
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
