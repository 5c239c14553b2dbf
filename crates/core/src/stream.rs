//! Streaming round state: incremental maintenance of the ROUND state under
//! pool mutations.
//!
//! Every batch selection round rebuilds `Σ⋄` and its Cholesky sweep from
//! scratch — `O(n·c·d²)` work and a full block-diagonal Allreduce even
//! when the pool changed by a handful of points. [`StreamingState`] closes
//! that gap (ROADMAP item 6): it owns a **persistent** [`RoundState`]
//! keyed by a pool version and advances it under [`PoolUpdate`] batches in
//! `O(Δpool)`:
//!
//! - the dense `Σ⋄` block diagonal advances by a **delta-Allreduce** of
//!   changed partial sums ([`firal_solvers::delta_allreduce_blocks`], the
//!   streaming counterpart of the
//!   [`AllreduceOperator`](firal_solvers::AllreduceOperator) full-sum
//!   seam): each rank contributes the delta blocks of the batch entries it
//!   owns, and only globally changed blocks travel;
//! - the per-block Cholesky factors advance by rank-one
//!   [`Cholesky::update`]/[`Cholesky::downdate`] sweeps applied by every
//!   rank in canonical batch order. A downdate that destroys positive
//!   definiteness triggers the documented **ridge-refactor fallback**: the
//!   block is refactored from the current dense `Σ⋄` with a `1e-8` ridge;
//! - a `Label` folds the point's Fisher term into `B(H_o)` by a replicated
//!   rank-one update and moves its row to the labeled panels.
//!
//! # State ownership and replication
//!
//! The registry is a [`SelectionProblem`] (the live pool and the labeled
//! set as row-major panels), a stable id and a `z⋄` weight per pool row,
//! and the [`RoundState`]; all of it is **replicated** on every rank —
//! exactly like the serve layer, where every rank decodes the uploaded pool
//! and edits it through the same [`SelectionProblem`] row edits. Ids are
//! issued in increasing order and the edits keep row order, so the ids stay
//! strictly increasing and a lookup is a binary search. No Fisher row is
//! cached: an update's `g_ik = h_ik(1−h_ik)` is formed from its pool row
//! when the update is applied, and a selection's `g_ik` panel is the
//! [`Whitening`](crate::round::Whitening)'s. Compute stays sharded:
//! selections take the contiguous [`ShardedProblem::shard`] of the live
//! pool and the delta partial sums partition each update batch round-robin
//! by batch index. Because the registry is replicated, `Remove`/`Label`
//! mutations move no data between ranks.
//!
//! # Determinism contract
//!
//! `commit` is **collective**: every rank must call it with the identical
//! update batch (the serve layer guarantees this by shipping mutations in
//! rank-0-ordered round frames; tests pass identical literal batches).
//! Under that contract, for a fixed rank count the advanced state is
//! bitwise identical across ranks, backends (thread vs. socket), and
//! kernel thread counts: the delta-Allreduce inherits the rank-ordered
//! deterministic reduction, and the factor sweeps are sequential canonical
//! order on every rank. Across *different* rank counts the usual shard
//! convention applies: selections agree while partial-sum bits may differ
//! at shard boundaries (`tests/parallel_consistency.rs` pins the row).
//!
//! # Drift and the refactor boundary
//!
//! Incremental factors drift from `chol(Σ⋄)` by accumulated rounding.
//! Every [`FiralConfig::refactor_interval`] commits the state is rebuilt
//! from scratch through the exact same code one-shot callers use
//! ([`Executor::build_round_state`]), so at a refactor boundary the
//! streaming state is **bitwise equal to a from-scratch rebuild** by
//! construction — `tests/stream_soak.rs` asserts it over a 4-process mesh
//! and the drift test in this module bounds the divergence between
//! boundaries.

use firal_comm::{shard_range, CommScalar, Communicator};
use firal_linalg::{BlockDiag, Cholesky, Scalar};
use firal_solvers::delta_allreduce_blocks;

use crate::config::FiralConfig;
use crate::exec::{Executor, RoundRun, RoundState, ShardedProblem};
use crate::hessian::fisher_g;
use crate::problem::SelectionProblem;

/// Line 9 of Algorithm 3 is always the dense `eigvalsh` of each block, so
/// this type has the one variant `Exact`. It stays only as the ignored last
/// argument of [`StreamingState::select`], because the repo benchmark's
/// `stream_churn` workload (`benchmark/src/workloads/stream.rs`) passes
/// `EigSolver::Exact`; it goes when that file next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigSolver {
    /// Dense tridiagonal-QL eigensolve per block (paper configuration).
    Exact,
}

/// Default refactor cadence when `FiralConfig::refactor_interval == 0`.
const DEFAULT_REFACTOR_INTERVAL: usize = 64;
/// Ridge used by the downdate-failure refactor fallback.
const FALLBACK_RIDGE: f64 = 1e-8;

/// One pool mutation. Batches of these advance a [`StreamingState`]
/// through [`StreamingState::commit`].
#[derive(Debug, Clone, PartialEq)]
pub enum PoolUpdate<T: Scalar> {
    /// Append an unlabeled candidate to the pool with RELAX weight
    /// `weight` (its `z⋄` entry; `0` for a point not yet weighted).
    Add {
        /// Feature row (`d` entries).
        x: Vec<T>,
        /// Class-probability row (`c−1` entries).
        h: Vec<T>,
        /// `z⋄` weight of the point inside `Σ⋄`.
        weight: T,
    },
    /// Drop a live pool point by its stable id.
    Remove {
        /// Id assigned by the `Add` that created the point.
        id: u64,
    },
    /// Move a live pool point into the labeled set: its Fisher term leaves
    /// `H_{z⋄}` (weight `w`) and joins `H_o` (weight `1`).
    Label {
        /// Id assigned by the `Add` that created the point.
        id: u64,
    },
}

/// Summary of one committed update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCommit {
    /// Pool version after the batch.
    pub version: u64,
    /// Updates applied.
    pub applied: usize,
    /// Whether the commit ended on a refactor boundary (state rebuilt from
    /// scratch, drift reset to zero).
    pub refactored: bool,
    /// Downdates that destroyed positive definiteness and fell back to a
    /// ridge refactor of their block.
    pub downdate_fallbacks: usize,
}

/// One update's `Σ⋄` term: the point's features, its Fisher row `g_k`, and
/// the signed weight its rank-one term carries (`+w` add, `−w` remove,
/// `1−w` label).
type Term<T> = (Vec<T>, Vec<T>, T);

/// Persistent streaming round state (see the module docs for the full
/// ownership/determinism/drift contract).
#[derive(Debug, Clone)]
pub struct StreamingState<T: CommScalar> {
    /// The live pool and the labeled set.
    problem: SelectionProblem<T>,
    /// Stable id of each pool row, strictly increasing.
    ids: Vec<u64>,
    /// `z⋄` weight of each pool row.
    weights: Vec<T>,
    state: RoundState<T>,
    version: u64,
    next_id: u64,
    commits_since_refactor: usize,
    refactor_interval: usize,
}

impl<T: CommScalar> StreamingState<T> {
    /// Seed a streaming state from a full problem and its per-point `z⋄`
    /// weights (one per pool row, e.g. `RelaxRun::z_diamond`). The pool
    /// rows get the ids `0..n`. Collective: the initial state is built
    /// through [`Executor::build_round_state`] on every rank.
    pub fn new(
        comm: &dyn Communicator,
        problem: &SelectionProblem<T>,
        weights: &[T],
        config: &FiralConfig<T>,
    ) -> Self {
        assert_eq!(
            weights.len(),
            problem.pool_size(),
            "one z⋄ weight per pool point"
        );
        let n = problem.pool_size() as u64;
        Self {
            problem: problem.clone(),
            ids: (0..n).collect(),
            weights: weights.to_vec(),
            state: build_state(comm, problem, weights),
            version: 0,
            next_id: n,
            commits_since_refactor: 0,
            refactor_interval: match config.refactor_interval {
                0 => DEFAULT_REFACTOR_INTERVAL,
                k => k,
            },
        }
    }

    /// Live pool size.
    pub fn live(&self) -> usize {
        self.problem.pool_size()
    }

    /// Labeled-set size.
    pub fn labeled(&self) -> usize {
        self.problem.labeled_x.rows()
    }

    /// Stable ids of the live points in pool-row order (ascending).
    pub fn ids(&self) -> Vec<u64> {
        self.ids.clone()
    }

    /// The live pool and the labeled set, rows in [`StreamingState::ids`]
    /// order.
    pub fn problem(&self) -> &SelectionProblem<T> {
        &self.problem
    }

    /// The replicated ROUND state: `B(H_o)`, `Σ⋄` and its factors.
    pub fn round_state(&self) -> &RoundState<T> {
        &self.state
    }

    /// Apply one update batch — collective; every rank must pass the
    /// identical batch (see the module determinism contract). The updates
    /// apply in order, so an update may name a point an earlier `Add` of
    /// the same batch created. Returns the commit summary, including
    /// whether this commit hit the refactor boundary.
    pub fn commit(&mut self, comm: &dyn Communicator, updates: &[PoolUpdate<T>]) -> StreamCommit {
        let cm1 = self.problem.nblocks();
        let (size, rank) = (comm.size(), comm.rank());

        // Pass 1 — apply each update's row edit in order and record its Σ⋄
        // term; this rank sums the delta partial sums of the batch entries
        // with index ≡ rank (mod size).
        let mut delta = BlockDiag::<T>::zeros(cm1, self.problem.dim());
        let mut changed = vec![false; cm1];
        let mut terms: Vec<Term<T>> = Vec::with_capacity(updates.len());
        for (u, upd) in updates.iter().enumerate() {
            let (x, g, coeff) = self.apply(upd);
            if u % size == rank {
                let gammas: Vec<T> = g.iter().map(|&gk| coeff * gk).collect();
                delta.rank_one_update(&gammas, &x);
            }
            for (k, &gk) in g.iter().enumerate() {
                changed[k] |= coeff * gk != T::ZERO;
            }
            terms.push((x, g, coeff));
        }

        // Pass 2 — ship only the changed partial sums (the streaming
        // Allreduce seam) and fold them into the replicated Σ⋄.
        delta_allreduce_blocks(comm, &mut delta, &mut changed);
        let state = &mut self.state;
        for k in (0..cm1).filter(|&k| changed[k]) {
            state.sigma.block_mut(k).add_scaled(T::ONE, delta.block(k));
        }

        // Pass 3 — advance the Cholesky factors by the recorded terms'
        // rank-one sweeps (every rank, identical order).
        let mut fallbacks = 0usize;
        for (x, g, coeff) in &terms {
            let magnitude = coeff.abs();
            for k in 0..cm1 {
                let scale = (magnitude * g[k]).sqrt();
                if scale == T::ZERO {
                    continue;
                }
                let v: Vec<T> = x.iter().map(|&xi| scale * xi).collect();
                if *coeff > T::ZERO {
                    state.sigma_chol[k].update(&v);
                } else if state.sigma_chol[k].downdate(&v).is_err() {
                    // Documented fallback: the downdate destroyed positive
                    // definiteness, so refactor this block from the fully
                    // updated dense Σ⋄ with a ridge instead of trusting the
                    // poisoned factor.
                    fallbacks += 1;
                    state.sigma_chol[k] =
                        Cholesky::new_with_ridge(state.sigma.block(k), T::from_f64(FALLBACK_RIDGE))
                            .expect("ridge refactor of a Σ⋄ block");
                }
            }
        }

        self.version += 1;
        self.commits_since_refactor += 1;
        let refactored = self.commits_since_refactor >= self.refactor_interval;
        if refactored {
            self.rebuild(comm);
        }
        StreamCommit {
            version: self.version,
            applied: updates.len(),
            refactored,
            downdate_fallbacks: fallbacks,
        }
    }

    /// Force the from-scratch rebuild this state's refactor boundary is
    /// defined against (collective). After this call the state is bitwise
    /// identical to what [`Executor::build_round_state`] produces for the
    /// current registry on this rank count.
    pub fn refactor(&mut self, comm: &dyn Communicator) {
        self.rebuild(comm);
    }

    /// Run one FTRL selection round over the current streaming state —
    /// the `O(Δpool)`-maintained counterpart of [`Executor::round`].
    /// Returns the selected **pool rows** (map through
    /// [`StreamingState::ids`] for stable ids). The [`EigSolver`] argument
    /// is ignored.
    pub fn select(
        &self,
        comm: &dyn Communicator,
        budget: usize,
        eta: T,
        _eig: EigSolver,
    ) -> RoundRun<T> {
        let shard = ShardedProblem::shard(&self.problem, comm.rank(), comm.size());
        Executor::new(comm, &shard).round_with_state(&self.state, budget, eta)
    }

    /// Bit-exact fingerprint of the replicated state (`Σ⋄`, `B(H_o)`, and
    /// every factor), for cross-rank / cross-backend / soak assertions.
    pub fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0xcbf29ce484222325;
        let mut eat = |bits: u64| {
            acc ^= bits;
            acc = acc.wrapping_mul(0x100000001b3);
        };
        eat(self.version);
        eat(self.live() as u64);
        eat(self.labeled() as u64);
        let state = &self.state;
        for k in 0..self.problem.nblocks() {
            for &v in state.sigma.block(k).as_slice() {
                eat(v.to_f64().to_bits());
            }
            for &v in state.bho.block(k).as_slice() {
                eat(v.to_f64().to_bits());
            }
            for &v in state.sigma_chol[k].l().as_slice() {
                eat(v.to_f64().to_bits());
            }
        }
        acc
    }

    /// Worst-block relative drift of the incremental factors against the
    /// dense `Σ⋄` they track: `max_k ‖L_kL_kᵀ − (Σ⋄)_k‖_F / ‖(Σ⋄)_k‖_F`.
    /// The drift test pins this against the refactor contract.
    pub fn factor_drift(&self) -> f64 {
        let mut worst = 0.0f64;
        for (l, sig) in self
            .state
            .sigma_chol
            .iter()
            .map(Cholesky::l)
            .zip(self.state.sigma.blocks())
        {
            let recon = firal_linalg::gemm_a_bt(l, l);
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for i in 0..recon.rows() {
                for j in 0..recon.cols() {
                    let diff = (recon[(i, j)] - sig[(i, j)]).to_f64();
                    num += diff * diff;
                    den += sig[(i, j)].to_f64().powi(2);
                }
            }
            worst = worst.max((num / den.max(1e-300)).sqrt());
        }
        worst
    }

    /// Apply one update's row edit to the registry and return its `Σ⋄`
    /// term. A `Label` also folds the point's Fisher term into `B(H_o)`:
    /// replicated rank-one on every rank, canonical order, no
    /// communication.
    fn apply(&mut self, upd: &PoolUpdate<T>) -> Term<T> {
        match upd {
            PoolUpdate::Add { x, h, weight } => {
                assert_eq!(x.len(), self.problem.dim(), "Add: feature dim mismatch");
                assert_eq!(
                    h.len(),
                    self.problem.nblocks(),
                    "Add: probability dim mismatch"
                );
                self.problem.append_pool_rows(1, x, h);
                self.ids.push(self.next_id);
                self.weights.push(*weight);
                self.next_id += 1;
                (
                    x.clone(),
                    h.iter().map(|&hk| fisher_g(hk)).collect(),
                    *weight,
                )
            }
            PoolUpdate::Remove { id } | PoolUpdate::Label { id } => {
                let pos = self
                    .ids
                    .binary_search(id)
                    .unwrap_or_else(|_| panic!("unknown or dead pool point id {id}"));
                let x = self.problem.pool_x.row(pos).to_vec();
                let g: Vec<T> = self
                    .problem
                    .pool_h
                    .row(pos)
                    .iter()
                    .map(|&hk| fisher_g(hk))
                    .collect();
                let w = self.weights.remove(pos);
                self.ids.remove(pos);
                let mut mask = vec![false; self.live()];
                mask[pos] = true;
                if let PoolUpdate::Label { .. } = upd {
                    self.state.bho.rank_one_update(&g, &x);
                    self.problem.label_pool_rows(&mask);
                    (x, g, T::ONE - w)
                } else {
                    self.problem.remove_pool_rows(&mask);
                    (x, g, T::ZERO - w)
                }
            }
        }
    }

    /// From-scratch rebuild through the exact one-shot build path
    /// (collective).
    fn rebuild(&mut self, comm: &dyn Communicator) {
        self.state = build_state(comm, &self.problem, &self.weights);
        self.commits_since_refactor = 0;
    }
}

/// Run [`Executor::build_round_state`] on this rank's shard of `problem`
/// and its slice of `weights` (collective).
fn build_state<T: CommScalar>(
    comm: &dyn Communicator,
    problem: &SelectionProblem<T>,
    weights: &[T],
) -> RoundState<T> {
    let (rank, size) = (comm.rank(), comm.size());
    let shard = ShardedProblem::shard(problem, rank, size);
    let range = shard_range(problem.pool_size(), rank, size);
    Executor::new(comm, &shard).build_round_state(&weights[range])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RelaxConfig;
    use firal_comm::SelfComm;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn tiny(seed: u64, n: usize, d: usize, c: usize) -> (SelectionProblem<f64>, Vec<f64>) {
        let problem = crate::problem::tiny_problem(seed, n, d, c);
        // Plausible z⋄-style weights: positive, O(b/n)-scaled.
        let weights: Vec<f64> = (0..n).map(|i| 0.05 + 0.01 * (i % 7) as f64).collect();
        (problem, weights)
    }

    fn cfg_interval(k: usize) -> FiralConfig<f64> {
        FiralConfig {
            relax: RelaxConfig::default(),
            refactor_interval: k,
            ..Default::default()
        }
    }

    fn random_update(
        rng: &mut StdRng,
        state: &StreamingState<f64>,
        d: usize,
        cm1: usize,
    ) -> PoolUpdate<f64> {
        let ids = state.ids();
        // Keep the pool from draining: removals/labels only when enough
        // points are live.
        if ids.len() > 8 && rng.gen::<bool>() {
            let id = ids[rng.gen_range(0..ids.len())];
            if rng.gen::<bool>() {
                PoolUpdate::Remove { id }
            } else {
                PoolUpdate::Label { id }
            }
        } else {
            PoolUpdate::Add {
                x: (0..d).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect(),
                h: (0..cm1)
                    .map(|_| 0.1 + 0.6 * rng.gen::<f64>() / cm1 as f64)
                    .collect(),
                weight: 0.02 + 0.1 * rng.gen::<f64>(),
            }
        }
    }

    /// The incremental state must track the from-scratch rebuild closely
    /// between refactor boundaries (interval high enough never to trigger),
    /// and snap to it bitwise at a forced refactor.
    #[test]
    fn drift_is_bounded_and_refactor_snaps_bitwise() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(3, 24, 4, 3);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg_interval(usize::MAX));
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..40 {
            let batch: Vec<_> = (0..3).map(|_| random_update(&mut rng, &st, 4, 2)).collect();
            let commit = st.commit(&comm, &batch);
            assert!(!commit.refactored, "interval MAX must never refactor");
            assert_eq!(commit.version, round + 1);
        }
        let drift = st.factor_drift();
        assert!(
            drift < 1e-10,
            "incremental factors drifted too far from Σ⋄: {drift}"
        );

        // Refactor boundary: bitwise equal to the one-shot build.
        let mut refreshed = st.clone();
        refreshed.refactor(&comm);
        let shard = ShardedProblem::replicate(st.problem());
        let exec = Executor::new(&comm, &shard);
        let built = exec.build_round_state(&st.weights);
        for k in 0..st.problem.nblocks() {
            assert_eq!(
                refreshed.state.sigma.block(k).as_slice(),
                built.sigma.block(k).as_slice(),
                "refactored Σ⋄ block {k} must be bitwise the one-shot build"
            );
            assert_eq!(
                refreshed.state.sigma_chol[k].l().as_slice(),
                built.sigma_chol[k].l().as_slice(),
                "refactored factor {k} must be bitwise the one-shot build"
            );
        }
        // ... and close to (but not necessarily bitwise) the incremental state.
        assert!(refreshed.factor_drift() < 1e-13);
    }

    /// Add → Remove of the same point restores Σ⋄ (up to rounding) and the
    /// registry exactly.
    #[test]
    fn add_then_remove_round_trips() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(5, 16, 3, 3);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg_interval(usize::MAX));
        let before = st.fingerprint();
        let live0 = st.live();
        st.commit(
            &comm,
            &[PoolUpdate::Add {
                x: vec![0.4, -0.2, 0.9],
                h: vec![0.3, 0.25],
                weight: 0.125,
            }],
        );
        assert_eq!(st.live(), live0 + 1);
        let id = *st.ids().last().unwrap();
        st.commit(&comm, &[PoolUpdate::Remove { id }]);
        assert_eq!(st.live(), live0);
        assert_ne!(st.fingerprint(), before, "version advanced");
        assert!(st.factor_drift() < 1e-12);
        // The dense Σ⋄ returns to the original values up to rounding.
        st.refactor(&comm);
        let (problem2, _) = tiny(5, 16, 3, 3);
        assert_eq!(st.live(), problem2.pool_size());
    }

    /// An update may name a point an earlier `Add` of the same batch
    /// created: the batch applies in order, so `[Add, Remove{its id}]`
    /// leaves the registry as it was and, after a refactor, the state
    /// bitwise equal to a fresh build of the unchanged problem.
    #[test]
    fn an_update_can_name_a_point_added_earlier_in_the_batch() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(5, 16, 3, 3);
        let cfg = cfg_interval(usize::MAX);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg);
        let add = |x: Vec<f64>| PoolUpdate::Add {
            x,
            h: vec![0.3, 0.25],
            weight: 0.125,
        };
        let commit = st.commit(
            &comm,
            &[
                add(vec![0.4, -0.2, 0.9]),
                PoolUpdate::Remove { id: 16 },
                add(vec![-0.1, 0.5, 0.3]),
                PoolUpdate::Label { id: 17 },
            ],
        );
        assert_eq!(commit.applied, 4);
        assert_eq!(st.ids(), (0..16).collect::<Vec<u64>>());
        assert_eq!(st.labeled(), problem.labeled_x.rows() + 1);
        assert_eq!(
            st.problem().labeled_x.row(problem.labeled_x.rows()),
            &[-0.1, 0.5, 0.3]
        );
        assert_eq!(st.problem().pool_x, problem.pool_x);
        assert!(st.factor_drift() < 1e-12);

        st.commit(
            &comm,
            &[add(vec![0.2, 0.2, -0.6]), PoolUpdate::Remove { id: 18 }],
        );
        let fresh = StreamingState::new(&comm, st.problem(), &weights, &cfg);
        st.refactor(&comm);
        for k in 0..2 {
            assert_eq!(
                st.state.sigma.block(k).as_slice(),
                fresh.state.sigma.block(k).as_slice()
            );
            assert_eq!(
                st.state.bho.block(k).as_slice(),
                fresh.state.bho.block(k).as_slice()
            );
        }
    }

    /// Labeling moves a point's Fisher term from H_z⋄ to H_o: the labeled
    /// count grows, bho gains the term, and Σ⋄ stays consistent.
    #[test]
    fn label_moves_mass_into_bho() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(7, 16, 3, 3);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg_interval(usize::MAX));
        let labeled0 = st.labeled();
        let bho_before = st.state.bho.block(0).trace();
        let id = st.ids()[4];
        let commit = st.commit(&comm, &[PoolUpdate::Label { id }]);
        assert_eq!(commit.applied, 1);
        assert_eq!(st.labeled(), labeled0 + 1);
        assert_eq!(st.live(), 15);
        assert!(st.state.bho.block(0).trace() >= bho_before);
        assert!(st.factor_drift() < 1e-12);
    }

    /// The commit-then-select path must agree with a one-shot executor
    /// round over the equivalent static problem (selection equality — the
    /// weaker cross-path contract; bitwise is pinned within one path by
    /// the consistency row).
    #[test]
    fn streaming_select_matches_one_shot_round_after_refactor() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(11, 30, 4, 3);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg_interval(usize::MAX));
        // Mutate: drop two points, add one.
        let ids = st.ids();
        st.commit(
            &comm,
            &[
                PoolUpdate::Remove { id: ids[3] },
                PoolUpdate::Remove { id: ids[17] },
                PoolUpdate::Add {
                    x: vec![0.3, -0.4, 0.1, 0.6],
                    h: vec![0.2, 0.3],
                    weight: 0.07,
                },
            ],
        );
        st.refactor(&comm);
        let eta = 6.0 * (st.problem.ehat() as f64).sqrt();
        let run = st.select(&comm, 4, eta, EigSolver::Exact);

        // One-shot reference: the same mutated pool as a static problem.
        let shard = ShardedProblem::replicate(st.problem());
        let exec = Executor::new(&comm, &shard);
        let reference = exec.round(&st.weights, 4, eta);
        assert_eq!(run.selected, reference.selected);
    }

    /// A downdate that kills positive definiteness must take the ridge
    /// fallback, not panic, and leave a usable factor.
    #[test]
    fn downdate_failure_takes_the_ridge_fallback() {
        let comm = SelfComm::new();
        let (problem, _) = tiny(13, 12, 3, 3);
        // Huge weights make removal catastrophic for the factor.
        let weights = vec![1.0; 12];
        let cfg = cfg_interval(usize::MAX);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg);
        // Remove many heavy points in one batch; at least one downdate is
        // likely to trip. Whether or not it does, the state must stay
        // finite and consistent.
        let ids = st.ids();
        let batch: Vec<_> = ids[..9]
            .iter()
            .map(|&id| PoolUpdate::Remove { id })
            .collect();
        let commit = st.commit(&comm, &batch);
        assert_eq!(st.live(), 3);
        assert!(st.factor_drift() < 1e-6, "drift {}", st.factor_drift());
        // The summary reports the fallbacks it took (possibly zero on this
        // data, but the path is exercised by the linalg error test too).
        let _ = commit.downdate_fallbacks;
    }
}
