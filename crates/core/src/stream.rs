//! Streaming round state: incremental maintenance of the ROUND state under
//! pool mutations.
//!
//! Every batch selection round historically rebuilt `Σ⋄`, its Cholesky
//! sweep, and the `g_ik` panel from scratch — `O(n·c·d²)` work and a full
//! block-diagonal Allreduce even when the pool changed by a handful of
//! points. [`StreamingState`] closes that gap (ROADMAP item 2): it owns a
//! **persistent** [`RoundState`] keyed by a pool
//! version and advances it under [`PoolUpdate`] batches in `O(Δpool)`:
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
//! - the per-point Fisher coefficients `g_ik = h_ik(1−h_ik)` are cached on
//!   each registry point and invalidated (recomputed) only when the point's
//!   probabilities change — adds compute them once, removals drop them,
//!   labels move them into the `B(H_o)` term.
//!
//! # State ownership and replication
//!
//! The point registry (features, probabilities, weights, Fisher caches) is
//! **replicated** on every rank — exactly like the serve layer, where every
//! rank decodes the uploaded pool. Compute stays sharded: selections shard
//! the live registry contiguously ([`firal_comm::shard_range`] over the
//! live insertion order) and the delta partial sums partition each update
//! batch round-robin by batch index. Because the registry is replicated,
//! `Remove`/`Label` mutations need no data movement at all.
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
use firal_linalg::{BlockDiag, Cholesky, Matrix, Scalar};
use firal_solvers::delta_allreduce_blocks;

use crate::config::FiralConfig;
use crate::exec::{Executor, RoundRun, RoundState, ShardedProblem};
use crate::problem::SelectionProblem;
use crate::round::EigSolver;

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

/// One replicated registry point with its cached Fisher coefficients.
#[derive(Debug, Clone)]
struct StreamPoint<T: Scalar> {
    id: u64,
    x: Vec<T>,
    h: Vec<T>,
    weight: T,
    /// Cached `g_ik = h_ik(1−h_ik)` row — invalidated only when `h`
    /// changes (never, for now: labels keep the probabilities).
    g: Vec<T>,
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

/// Persistent streaming round state (see the module docs for the full
/// ownership/determinism/drift contract).
#[derive(Debug, Clone)]
pub struct StreamingState<T: CommScalar> {
    points: Vec<StreamPoint<T>>,
    labeled_x: Matrix<T>,
    labeled_h: Matrix<T>,
    num_classes: usize,
    dim: usize,
    version: u64,
    next_id: u64,
    commits_since_refactor: usize,
    refactor_interval: usize,
    bho: BlockDiag<T>,
    sigma: BlockDiag<T>,
    sigma_chol: Vec<Cholesky<T>>,
}

impl<T: CommScalar> StreamingState<T> {
    /// Seed a streaming state from a full problem and its per-point `z⋄`
    /// weights (one per pool row, e.g. `RelaxRun::z_diamond`). Collective:
    /// the initial state is built through [`Executor::build_round_state`]
    /// on every rank.
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
        let cm1 = problem.nblocks();
        let d = problem.dim();
        let points = (0..problem.pool_size())
            .map(|i| {
                let h = problem.pool_h.row(i).to_vec();
                let g = fisher_row(&h);
                StreamPoint {
                    id: i as u64,
                    x: problem.pool_x.row(i).to_vec(),
                    h,
                    weight: weights[i],
                    g,
                }
            })
            .collect();
        let mut state = Self {
            points,
            labeled_x: problem.labeled_x.clone(),
            labeled_h: problem.labeled_h.clone(),
            num_classes: problem.num_classes,
            dim: d,
            version: 0,
            next_id: problem.pool_size() as u64,
            commits_since_refactor: 0,
            refactor_interval: match config.refactor_interval {
                0 => DEFAULT_REFACTOR_INTERVAL,
                k => k,
            },
            bho: BlockDiag::zeros(cm1, d),
            sigma: BlockDiag::zeros(cm1, d),
            sigma_chol: Vec::new(),
        };
        state.rebuild(comm);
        state
    }

    /// Live pool size.
    pub fn live(&self) -> usize {
        self.points.len()
    }

    /// Labeled-set size.
    pub fn labeled(&self) -> usize {
        self.labeled_x.rows()
    }

    /// Stable ids of the live points in insertion order.
    pub fn ids(&self) -> Vec<u64> {
        self.points.iter().map(|p| p.id).collect()
    }

    /// Apply one update batch — collective; every rank must pass the
    /// identical batch (see the module determinism contract). Returns the
    /// commit summary, including whether this commit hit the refactor
    /// boundary.
    pub fn commit(&mut self, comm: &dyn Communicator, updates: &[PoolUpdate<T>]) -> StreamCommit {
        let cm1 = self.nblocks();
        let d = self.dim;
        let size = comm.size();
        let rank = comm.rank();

        // Phase 1 — delta partial sums for the dense Σ⋄: this rank owns the
        // batch entries with index ≡ rank (mod size).
        let mut delta = BlockDiag::<T>::zeros(cm1, d);
        let mut changed = vec![false; cm1];
        for (u, upd) in updates.iter().enumerate() {
            let (x, g, coeff) = self.update_term(upd);
            if u % size == rank {
                let gammas: Vec<T> = g.iter().map(|&gk| coeff * gk).collect();
                delta.rank_one_update(&gammas, &x);
            }
            for (k, &gk) in g.iter().enumerate() {
                changed[k] |= coeff * gk != T::ZERO;
            }
        }

        // Phase 2 — ship only the changed partial sums (the streaming
        // Allreduce seam) and fold them into the replicated Σ⋄.
        delta_allreduce_blocks(comm, &mut delta, &mut changed);
        for k in 0..cm1 {
            if changed[k] {
                let blk = delta.block(k).clone();
                self.sigma.block_mut(k).add_scaled(T::ONE, &blk);
            }
        }

        // Phase 3 — advance the Cholesky factors by canonical rank-one
        // sweeps (every rank, identical order), then mutate the registry.
        let mut fallbacks = 0usize;
        for upd in updates {
            let (x, g, coeff) = self.update_term(upd);
            let magnitude = coeff.abs();
            for k in 0..cm1 {
                let scale = (magnitude * g[k]).sqrt();
                if scale == T::ZERO {
                    continue;
                }
                let v: Vec<T> = x.iter().map(|&xi| scale * xi).collect();
                if coeff > T::ZERO {
                    self.sigma_chol[k].update(&v);
                } else if self.sigma_chol[k].downdate(&v).is_err() {
                    // Documented fallback: the downdate destroyed positive
                    // definiteness, so refactor this block from the current
                    // dense Σ⋄ with a ridge instead of trusting the
                    // poisoned factor.
                    fallbacks += 1;
                    self.sigma_chol[k] =
                        Cholesky::new_with_ridge(self.sigma.block(k), T::from_f64(FALLBACK_RIDGE))
                            .expect("ridge refactor of a Σ⋄ block");
                }
            }
            self.apply_to_registry(upd);
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
    /// Returns the selected **registry positions** (indices into the live
    /// insertion order; map through [`StreamingState::ids`] for stable
    /// ids).
    pub fn select(
        &self,
        comm: &dyn Communicator,
        budget: usize,
        eta: T,
        eig: EigSolver,
    ) -> RoundRun<T> {
        let shard = self.materialize_shard(comm.rank(), comm.size());
        let state = self.round_state(comm.rank(), comm.size());
        let exec = Executor::new(comm, &shard);
        exec.round_with_state(&state, budget, eta, eig)
    }

    /// Materialize this rank's [`RoundState`] view: the replicated block
    /// state plus the local slice of the cached Fisher panel.
    pub fn round_state(&self, rank: usize, size: usize) -> RoundState<T> {
        let range = shard_range(self.live(), rank, size);
        let cm1 = self.nblocks();
        let mut gik = Matrix::zeros(range.len(), cm1);
        for (row, i) in range.enumerate() {
            gik.row_mut(row).copy_from_slice(&self.points[i].g);
        }
        RoundState {
            bho: self.bho.clone(),
            sigma: self.sigma.clone(),
            sigma_chol: self.sigma_chol.clone(),
            gik,
        }
    }

    /// Materialize this rank's contiguous shard of the live registry (the
    /// same [`firal_comm::shard_range`] decomposition batch callers use).
    pub fn materialize_shard(&self, rank: usize, size: usize) -> ShardedProblem<T> {
        let range = shard_range(self.live(), rank, size);
        let d = self.dim;
        let cm1 = self.nblocks();
        let mut local_x = Matrix::zeros(range.len(), d);
        let mut local_h = Matrix::zeros(range.len(), cm1);
        for (row, i) in range.clone().enumerate() {
            local_x.row_mut(row).copy_from_slice(&self.points[i].x);
            local_h.row_mut(row).copy_from_slice(&self.points[i].h);
        }
        ShardedProblem {
            local_x,
            local_h,
            labeled_x: self.labeled_x.clone(),
            labeled_h: self.labeled_h.clone(),
            num_classes: self.num_classes,
            global_n: self.live(),
            offset: range.start,
        }
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
        for k in 0..self.nblocks() {
            for &v in self.sigma.block(k).as_slice() {
                eat(v.to_f64().to_bits());
            }
            for &v in self.bho.block(k).as_slice() {
                eat(v.to_f64().to_bits());
            }
            for &v in self.sigma_chol[k].l().as_slice() {
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
        for k in 0..self.nblocks() {
            let l = self.sigma_chol[k].l();
            let recon = firal_linalg::gemm_a_bt(l, l);
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            let sig = self.sigma.block(k);
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

    fn nblocks(&self) -> usize {
        self.num_classes - 1
    }

    /// `(x, g, coeff)` of one update's Σ⋄ contribution: the point's
    /// features, Fisher row, and the signed weight its rank-one term
    /// carries (`+w` add, `−w` remove, `1−w` label).
    fn update_term(&self, upd: &PoolUpdate<T>) -> (Vec<T>, Vec<T>, T) {
        match upd {
            PoolUpdate::Add { x, h, weight } => {
                assert_eq!(x.len(), self.dim, "Add: feature dim mismatch");
                assert_eq!(h.len(), self.nblocks(), "Add: probability dim mismatch");
                (x.clone(), fisher_row(h), *weight)
            }
            PoolUpdate::Remove { id } => {
                let p = self.lookup(*id);
                (p.x.clone(), p.g.clone(), T::ZERO - p.weight)
            }
            PoolUpdate::Label { id } => {
                let p = self.lookup(*id);
                (p.x.clone(), p.g.clone(), T::ONE - p.weight)
            }
        }
    }

    fn lookup(&self, id: u64) -> &StreamPoint<T> {
        self.points
            .iter()
            .find(|p| p.id == id)
            .unwrap_or_else(|| panic!("unknown or dead pool point id {id}"))
    }

    fn position(&self, id: u64) -> usize {
        self.points
            .iter()
            .position(|p| p.id == id)
            .unwrap_or_else(|| panic!("unknown or dead pool point id {id}"))
    }

    fn apply_to_registry(&mut self, upd: &PoolUpdate<T>) {
        match upd {
            PoolUpdate::Add { x, h, weight } => {
                let g = fisher_row(h);
                self.points.push(StreamPoint {
                    id: self.next_id,
                    x: x.clone(),
                    h: h.clone(),
                    weight: *weight,
                    g,
                });
                self.next_id += 1;
            }
            PoolUpdate::Remove { id } => {
                let pos = self.position(*id);
                self.points.remove(pos);
            }
            PoolUpdate::Label { id } => {
                let pos = self.position(*id);
                let p = self.points.remove(pos);
                // The point's Fisher term joins B(H_o): replicated rank-one
                // on every rank, canonical order, no communication.
                self.bho.rank_one_update(&p.g, &p.x);
                self.labeled_x = append_row(&self.labeled_x, &p.x);
                self.labeled_h = append_row(&self.labeled_h, &p.h);
            }
        }
    }

    /// From-scratch rebuild through the exact one-shot build path
    /// (collective): materialize this rank's shard + weight slice and run
    /// [`Executor::build_round_state`], then adopt its blocks.
    fn rebuild(&mut self, comm: &dyn Communicator) {
        let shard = self.materialize_shard(comm.rank(), comm.size());
        let range = shard_range(self.live(), comm.rank(), comm.size());
        let z_local: Vec<T> = range.map(|i| self.points[i].weight).collect();
        let exec = Executor::new(comm, &shard);
        let built = exec.build_round_state(&z_local);
        self.bho = built.bho;
        self.sigma = built.sigma;
        self.sigma_chol = built.sigma_chol;
        self.commits_since_refactor = 0;
    }
}

/// `g_k = h_k (1 − h_k)` for one probability row.
fn fisher_row<T: Scalar>(h: &[T]) -> Vec<T> {
    h.iter().map(|&hk| hk * (T::ONE - hk)).collect()
}

/// Append one row to a row-major matrix (the labeled panel grows by one
/// point per label).
fn append_row<T: Scalar>(m: &Matrix<T>, row: &[T]) -> Matrix<T> {
    assert_eq!(m.cols(), row.len(), "append_row width mismatch");
    let mut data = m.as_slice().to_vec();
    data.extend_from_slice(row);
    Matrix::from_vec(m.rows() + 1, m.cols(), data)
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
        let shard = st.materialize_shard(0, 1);
        let z: Vec<f64> = (0..st.live()).map(|i| st.points[i].weight).collect();
        let exec = Executor::new(&comm, &shard);
        let built = exec.build_round_state(&z);
        for k in 0..st.nblocks() {
            assert_eq!(
                refreshed.sigma.block(k).as_slice(),
                built.sigma.block(k).as_slice(),
                "refactored Σ⋄ block {k} must be bitwise the one-shot build"
            );
            assert_eq!(
                refreshed.sigma_chol[k].l().as_slice(),
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

    /// Labeling moves a point's Fisher term from H_z⋄ to H_o: the labeled
    /// count grows, bho gains the term, and Σ⋄ stays consistent.
    #[test]
    fn label_moves_mass_into_bho() {
        let comm = SelfComm::new();
        let (problem, weights) = tiny(7, 16, 3, 3);
        let mut st = StreamingState::new(&comm, &problem, &weights, &cfg_interval(usize::MAX));
        let labeled0 = st.labeled();
        let bho_before = st.bho.block(0).trace();
        let id = st.ids()[4];
        let commit = st.commit(&comm, &[PoolUpdate::Label { id }]);
        assert_eq!(commit.applied, 1);
        assert_eq!(st.labeled(), labeled0 + 1);
        assert_eq!(st.live(), 15);
        assert!(st.bho.block(0).trace() >= bho_before);
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
        let eta = 6.0 * (st.materialize_shard(0, 1).ehat() as f64).sqrt();
        let run = st.select(&comm, 4, eta, EigSolver::Exact);

        // One-shot reference: the same mutated pool as a static problem.
        let shard = st.materialize_shard(0, 1);
        let z: Vec<f64> = (0..st.live()).map(|i| st.points[i].weight).collect();
        let exec = Executor::new(&comm, &shard);
        let reference = exec.round(&z, 4, eta, EigSolver::Exact);
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
