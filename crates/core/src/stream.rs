//! Streaming round state: incremental maintenance of the ROUND state under
//! pool mutations.
//!
//! Every batch selection round rebuilds `Σ⋄` and its Cholesky sweep from
//! scratch — `O(n·c·d²)` work and a full block-diagonal Allreduce even
//! when the pool changed by a handful of points. [`StreamingState`] closes
//! that gap (ROADMAP item 6): it owns a **persistent** [`RoundState`]
//! keyed by a pool version and advances it under [`PoolUpdate`] batches in
//! `O(Δpool)`, one update at a time, in batch order:
//!
//! - the update's row edit: an `Add` appends its row, a `Label` appends the
//!   row to the labeled panels; the rows a `Remove` or `Label` drops leave
//!   the pool in one compaction at the end of the batch;
//! - its rank-one term joins the dense `Σ⋄` block diagonal (a `Label`'s
//!   Fisher term also joins `B(H_o)`);
//! - each block's Cholesky factor advances by a rank-one
//!   [`Cholesky::update`]/[`Cholesky::downdate`]. A downdate that destroys
//!   positive definiteness takes the documented **fallback**: the block
//!   skips the batch's remaining factor updates and, after the batch's
//!   last update, is refactored once from the final `Σ⋄`, the way the
//!   from-scratch build factors a block (a `1e-8` ridge only if that `Σ⋄`
//!   block is semidefinite).
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
//! [`Whitening`](crate::round::Whitening)'s. Because every rank holds the
//! whole registry and the whole batch, a commit is local arithmetic and
//! moves no data between ranks. The only streaming collectives are
//! `select` (ROUND on the contiguous [`ShardedProblem::shard`] of the live
//! pool) and the rebuild at the refactor boundary.
//!
//! # Determinism contract
//!
//! Every rank must call `commit` with the identical update batch (the
//! serve layer guarantees this by shipping mutations in rank-0-ordered
//! round frames; tests pass identical literal batches). Under that
//! contract the advanced state is bitwise identical across ranks, backends
//! (thread vs. socket), and kernel thread counts: every rank runs the same
//! sequential arithmetic in batch order. Across *different* rank counts
//! the usual shard convention applies to the builds: selections agree
//! while partial-sum bits may differ at shard boundaries
//! (`tests/parallel_consistency.rs` pins the row).
//!
//! # Drift and the refactor boundary
//!
//! Incremental factors drift from `chol(Σ⋄)` by accumulated rounding.
//! Every 64th commit rebuilds the state from scratch through the exact
//! same code one-shot callers use ([`Executor::build_round_state`], one
//! Allreduce), so at a refactor boundary the streaming state is **bitwise
//! equal to a from-scratch rebuild** by construction —
//! `tests/stream_soak.rs` asserts it over a 4-process mesh and the drift
//! test in this module bounds the divergence between boundaries.

use firal_comm::{shard_range, CommScalar, Communicator};
use firal_linalg::{Cholesky, Scalar};

use crate::config::FiralConfig;
use crate::exec::{factor_sigma_block, Executor, RoundRun, RoundState, ShardedProblem};
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

/// Commits between two from-scratch rebuilds of the state.
const REFACTOR_INTERVAL: usize = 64;

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
    /// Blocks whose downdate destroyed positive definiteness and that
    /// were refactored from the batch's final `Σ⋄`.
    pub downdate_fallbacks: usize,
}

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
}

impl<T: CommScalar> StreamingState<T> {
    /// Seed a streaming state from a full problem and its per-point `z⋄`
    /// weights (one per pool row, e.g. the ranks' `RelaxRun::z_local` in
    /// rank order). The pool rows get the ids `0..n`. Collective: the initial state is built
    /// through [`Executor::build_round_state`] on every rank.
    ///
    /// `config` is not read: the argument stays only because the repo
    /// benchmark's `stream_churn` workload passes it, like
    /// [`EigSolver`], and goes when that file next changes.
    pub fn new(
        comm: &dyn Communicator,
        problem: &SelectionProblem<T>,
        weights: &[T],
        _config: &FiralConfig<T>,
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

    /// Apply one update batch. Every rank must pass the identical batch
    /// (see the module determinism contract); the commit is local and
    /// issues no collective, except the rebuild on every 64th commit. The
    /// updates apply in order, so an update may name a point an earlier
    /// `Add` of the same batch created. Returns the commit summary,
    /// including whether this commit hit the refactor boundary.
    pub fn commit(&mut self, comm: &dyn Communicator, updates: &[PoolUpdate<T>]) -> StreamCommit {
        let mut dropped = vec![false; self.live()];
        let mut fell_back = vec![false; self.problem.nblocks()];
        for upd in updates {
            self.apply(upd, &mut dropped, &mut fell_back);
        }
        // A block whose downdate failed is factored once, from its final Σ⋄.
        let state = &mut self.state;
        for k in (0..fell_back.len()).filter(|&k| fell_back[k]) {
            state.sigma_chol[k] = factor_sigma_block(state.sigma.block(k));
        }
        let downdate_fallbacks = fell_back.iter().filter(|&&f| f).count();
        // One compaction for every row the batch removed or labeled.
        self.problem.remove_pool_rows(&dropped);
        retain_kept(&mut self.ids, &dropped);
        retain_kept(&mut self.weights, &dropped);

        self.version += 1;
        self.commits_since_refactor += 1;
        let refactored = self.commits_since_refactor >= REFACTOR_INTERVAL;
        if refactored {
            self.rebuild(comm);
        }
        StreamCommit {
            version: self.version,
            applied: updates.len(),
            refactored,
            downdate_fallbacks,
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

    /// Apply one update: its row edit (a dropped row is only marked in
    /// `dropped`; `commit` compacts the pool once per batch), its rank-one
    /// term on `Σ⋄` (and on `B(H_o)` for a `Label`), and its rank-one sweep
    /// of each block's factor. A block whose downdate fails is marked in
    /// `fell_back` and skips its factor sweeps until `commit` refactors it.
    fn apply(&mut self, upd: &PoolUpdate<T>, dropped: &mut Vec<bool>, fell_back: &mut [bool]) {
        // The row the update adds or drops, and the signed weight its
        // rank-one term carries: `+w` add, `−w` remove, `1−w` label.
        let (row, coeff) = match upd {
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
                dropped.push(false);
                self.next_id += 1;
                (self.ids.len() - 1, *weight)
            }
            PoolUpdate::Remove { id } | PoolUpdate::Label { id } => {
                let row = self
                    .ids
                    .binary_search(id)
                    .ok()
                    .filter(|&row| !dropped[row])
                    .unwrap_or_else(|| panic!("unknown or dead pool point id {id}"));
                dropped[row] = true;
                // The point's weight in Σ⋄ after the update: 1 in H_o for
                // a Label, 0 for a Remove.
                let after = if matches!(upd, PoolUpdate::Label { .. }) {
                    T::ONE
                } else {
                    T::ZERO
                };
                (row, after - self.weights[row])
            }
        };

        let (problem, state) = (&mut self.problem, &mut self.state);
        let x = problem.pool_x.row(row);
        let g: Vec<T> = problem
            .pool_h
            .row(row)
            .iter()
            .map(|&hk| fisher_g(hk))
            .collect();
        if let PoolUpdate::Label { .. } = upd {
            problem.labeled_x.extend_rows(1, x);
            problem.labeled_h.extend_rows(1, problem.pool_h.row(row));
            state.bho.rank_one_update(&g, x);
        }
        let gammas: Vec<T> = g.iter().map(|&gk| coeff * gk).collect();
        state.sigma.rank_one_update(&gammas, x);

        for (k, &gamma) in gammas.iter().enumerate() {
            let scale = gamma.abs().sqrt();
            if scale == T::ZERO || fell_back[k] {
                continue;
            }
            let v: Vec<T> = x.iter().map(|&xi| scale * xi).collect();
            if coeff > T::ZERO {
                state.sigma_chol[k].update(&v);
            } else if state.sigma_chol[k].downdate(&v).is_err() {
                fell_back[k] = true;
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

/// Keep the entries of `v` whose `dropped` flag is clear, in order.
fn retain_kept<V>(v: &mut Vec<V>, dropped: &[bool]) {
    let mut flags = dropped.iter();
    v.retain(|_| !flags.next().expect("one flag per entry"));
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
    use firal_comm::{launch, SelfComm};
    use firal_linalg::Matrix;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn tiny(seed: u64, n: usize, d: usize, c: usize) -> (SelectionProblem<f64>, Vec<f64>) {
        let problem = crate::problem::tiny_problem(seed, n, d, c);
        // Plausible z⋄-style weights: positive, O(b/n)-scaled.
        let weights: Vec<f64> = (0..n).map(|i| 0.05 + 0.01 * (i % 7) as f64).collect();
        (problem, weights)
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
    /// between refactor boundaries (40 commits stay short of the 64th),
    /// and snap to it bitwise at a forced refactor.
    #[test]
    fn drift_is_bounded_and_refactor_snaps_bitwise() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(3, 24, 4, 3);
        let mut st = StreamingState::new(&comm, &problem, &weights, &FiralConfig::default());
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..40 {
            let batch: Vec<_> = (0..3).map(|_| random_update(&mut rng, &st, 4, 2)).collect();
            let commit = st.commit(&comm, &batch);
            assert!(!commit.refactored, "40 commits must not reach the boundary");
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
        let mut st = StreamingState::new(&comm, &problem, &weights, &FiralConfig::default());
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
        let cfg = FiralConfig::default();
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
        let mut st = StreamingState::new(&comm, &problem, &weights, &FiralConfig::default());
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
        let mut st = StreamingState::new(&comm, &problem, &weights, &FiralConfig::default());
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
        let (mut problem, _) = tiny(13, 12, 3, 3);
        // Every row lies in the (x₀, x₁) plane except pool row 4, which alone
        // carries x₂ (with h = 1/2 and weight 1, so its entries in both
        // blocks are exact): removing it leaves both blocks singular.
        for m in [&mut problem.pool_x, &mut problem.labeled_x] {
            for i in 0..m.rows() {
                m[(i, 2)] = 0.0;
            }
        }
        problem.pool_x.row_mut(4).copy_from_slice(&[0.0, 0.0, 1.0]);
        problem.pool_h.row_mut(4).copy_from_slice(&[0.5, 0.5]);
        let weights = vec![1.0; 12];
        let mut st = StreamingState::new(&comm, &problem, &weights, &FiralConfig::default());
        let ids = st.ids();
        let batch: Vec<_> = ids[..9]
            .iter()
            .map(|&id| PoolUpdate::Remove { id })
            .collect();
        let commit = st.commit(&comm, &batch);
        assert_eq!(commit.downdate_fallbacks, 2, "one fallback per block");
        assert_eq!(st.live(), 3);
        assert!(st.factor_drift() < 1e-6, "drift {}", st.factor_drift());
    }

    /// The fallback factors the block once, from the batch's final Σ⋄, so
    /// a later update of the same batch enters the factor once and no
    /// ridge outlives the batch: `Remove` empties the x₁ direction (the
    /// downdate fails, Σ⋄ = diag(1/4, 0) is singular), the `Add` restores
    /// it, and `LLᵀ` ends as the plain factor of `Σ⋄ = diag(1/4, 1/4)`.
    /// Applying the `Add` to that factor again would leave
    /// `LLᵀ = diag(1/4, 1/2)`, a drift of 0.7071; a ridged mid-batch
    /// refactor updated by the `Add` would leave `Σ⋄ + 1e-8·I`, 4.0e-8.
    #[test]
    fn the_ridge_fallback_does_not_double_count_later_updates() {
        let comm = SelfComm::new();
        let row = |v: &[f64]| Matrix::from_vec(1, v.len(), v.to_vec());
        let problem = SelectionProblem::new(
            row(&[0.0, 1.0]),
            row(&[0.5]),
            row(&[1.0, 0.0]),
            row(&[0.5]),
            2,
        );
        let mut st = StreamingState::new(&comm, &problem, &[1.0], &FiralConfig::default());
        let commit = st.commit(
            &comm,
            &[
                PoolUpdate::Remove { id: 0 },
                PoolUpdate::Add {
                    x: vec![0.0, 1.0],
                    h: vec![0.5],
                    weight: 1.0,
                },
            ],
        );
        assert_eq!(commit.downdate_fallbacks, 1);
        let drift = st.factor_drift();
        assert!(drift < 1e-12, "drift {drift}");
        let l = st.state.sigma_chol[0].l();
        let llt = firal_linalg::gemm_a_bt(l, l);
        let sigma = st.state.sigma.block(0);
        assert_eq!(sigma.as_slice(), &[0.25, 0.0, 0.0, 0.25]);
        for i in 0..2 {
            for j in 0..2 {
                let excess = llt[(i, j)] - sigma[(i, j)];
                assert!(excess.abs() < 1e-15, "LLᵀ − Σ⋄ at ({i},{j}): {excess}");
            }
        }
    }

    /// Every rank holds the whole registry and the whole batch, so a commit
    /// short of the refactor boundary issues no collective at all.
    #[test]
    fn a_commit_off_the_boundary_issues_no_collective() {
        let (problem, weights) = tiny(5, 16, 3, 3);
        let calls = launch(2, |comm| {
            let mut st = StreamingState::new(comm, &problem, &weights, &FiralConfig::default());
            let before = comm.stats().total_calls();
            let commit = st.commit(
                comm,
                &[
                    PoolUpdate::Add {
                        x: vec![0.4, -0.2, 0.9],
                        h: vec![0.3, 0.25],
                        weight: 0.125,
                    },
                    PoolUpdate::Label { id: 3 },
                    PoolUpdate::Remove { id: 7 },
                ],
            );
            assert!(!commit.refactored);
            comm.stats().total_calls() - before
        });
        assert_eq!(calls, vec![0, 0]);
    }
}
