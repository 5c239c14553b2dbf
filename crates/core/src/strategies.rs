//! Batch selection strategies behind one trait.
//!
//! A [`DistStrategy`] sees one rank's [`Executor`] (communicator endpoint +
//! shard geometry) and every cross-point reduction goes through the §III-C
//! collectives — so each strategy is written **once** and runs unchanged on
//! `SelfComm`, `ThreadComm` threads, or `SocketComm` processes, exactly
//! like the RELAX/ROUND solvers. A serial selection on a full
//! [`SelectionProblem`] is [`select_serial`]: the `p = 1` call of the same
//! `select_dist` (a [`SelfComm`] executor over the trivial shard).
//!
//! The roster (paper §IV-A plus the two PAPERS.md extensions):
//!
//! * [`RandomStrategy`], [`KMeansStrategy`], [`EntropyStrategy`] — the
//!   paper's baselines (setup items (1)–(3));
//! * [`ExactFiral`] (Algorithm 1) and [`ApproxFiral`] (Algorithms 2+3) —
//!   the NeurIPS'23 baseline and the paper's contribution;
//! * [`UpalStrategy`] — UPAL-style unbiased pool sampling with
//!   importance-weighted re-fits (Ganti & Gray, arXiv:1111.1784);
//! * [`BayesBatchStrategy`] — Bayesian batch selection as sparse subset
//!   approximation via Frank–Wolfe over Fisher embeddings (Pinsler et
//!   al., arXiv:1908.02144).
//!
//! [`strategy_by_name`] is the registry the drivers, benches and
//! `spmd_launch` workloads resolve CLI names through.
//!
//! ## Determinism contract
//!
//! At a fixed rank count every strategy is bitwise identical across the
//! three comm backends (the rank-ordered reduction contract of
//! `firal_comm`) and across kernel-thread counts (the `firal_linalg::gemm`
//! chunking contract). Across rank counts, Random / K-Means / Entropy /
//! Exact-FIRAL / UPAL make every decision from *replicated* state
//! (Allgather in rank order = global order, owner-Bcast exact rows), so
//! their selections are bitwise rank-count-invariant by construction.
//! Approx-FIRAL and BayesBatch reduce partial sums across shard
//! boundaries (Allreduce), so their floats drift in the last ulp across
//! `p`, and a near-tied argmax can then pick a different batch: their
//! selections are bitwise identical at a fixed `p` only. A rank-count
//! oracle for them is open work (ROADMAP item 5).

use firal_cluster::{kmeans, nearest_to_centroids};
use firal_comm::{comm_catch, CommError, CommScalar, CommStats, Communicator, ReduceOp, SelfComm};
use firal_linalg::{gemm, gemm_at_b, Matrix, Scalar};
use firal_logreg::{LogisticRegression, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{FiralConfig, MirrorDescentConfig, RoundConfig};
use crate::exact::{exact_relax, exact_round};
use crate::exec::{Executor, ShardedProblem};
use crate::problem::SelectionProblem;
use crate::procedure::sweep_eta;

/// Selection failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// Budget exceeds pool size.
    BudgetTooLarge {
        /// Requested batch size.
        budget: usize,
        /// Available pool points.
        pool: usize,
    },
    /// The pool has no points to select from.
    EmptyPool,
    /// A batch of zero points was requested.
    ZeroBudget,
    /// No registered strategy answers to this name (see [`STRATEGY_NAMES`]).
    UnknownStrategy {
        /// The name that failed to resolve.
        name: String,
    },
    /// A collective failed underneath the selection (peer death, deadline,
    /// remote abort — see [`firal_comm::CommError`]). Surfaced by
    /// [`DistStrategy::try_select_dist`]; the infallible path aborts
    /// instead.
    Comm(CommError),
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::BudgetTooLarge { budget, pool } => {
                write!(f, "budget {budget} exceeds pool size {pool}")
            }
            SelectError::EmptyPool => write!(f, "selection pool is empty"),
            SelectError::ZeroBudget => write!(f, "selection budget is zero"),
            SelectError::UnknownStrategy { name } => {
                write!(f, "unknown strategy {name:?} (known: {STRATEGY_NAMES:?})")
            }
            SelectError::Comm(e) => write!(f, "selection failed on a collective: {e}"),
        }
    }
}

impl std::error::Error for SelectError {}

/// A selection plus its execution metadata: what the strategy picked and
/// the collective traffic it issued doing so.
#[derive(Debug, Clone)]
pub struct SelectionRun {
    /// The selected pool indices (global, in acquisition order).
    pub selected: Vec<usize>,
    /// Collective calls/bytes/time the selection spent (zero for
    /// strategies that never touch a communicator).
    pub comm: CommStats,
}

/// A batch active-learning selection strategy, written against the
/// execution layer: one rank's view.
///
/// The contract mirrors [`Executor`]: every rank of the executor's
/// communicator calls `select_dist` collectively, each holding its
/// [`ShardedProblem`] slice (the `firal_comm::shard_range` decomposition of
/// one common problem — the trivial full shard at `p = 1`), and every rank
/// returns the identical `budget` **global** pool indices. All cross-point
/// reductions go through the communicator's collectives, so one
/// implementation serves the serial path and every SPMD backend.
pub trait DistStrategy<T: CommScalar> {
    /// Human-readable name (matches the paper's figure legends).
    fn name(&self) -> &'static str;

    /// Pick `budget` distinct global pool indices on one rank of an SPMD
    /// group (identical result on every rank). `budget` is the batch size
    /// `b`; `seed` controls any internal randomness (Random, K-Means and
    /// UPAL are the stochastic strategies the paper-style harnesses average
    /// over trials; the others are deterministic given the probe seed).
    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError>;

    /// [`DistStrategy::select_dist`] with communication failures recovered
    /// as [`SelectError::Comm`] instead of aborting the rank: the whole
    /// selection runs under a [`firal_comm::comm_catch`] boundary, so a
    /// peer death, deadline, or remote abort inside any collective comes
    /// back as a value a driver can react to. Fault-free selections are
    /// bitwise identical to the plain path.
    fn try_select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        match comm_catch(|| self.select_dist(exec, budget, seed)) {
            Ok(inner) => inner,
            Err(e) => Err(SelectError::Comm(e)),
        }
    }
}

/// Run a [`DistStrategy`] serially: the `p = 1` instantiation over a fresh
/// [`SelfComm`] and the trivial full shard, returning the selection plus
/// the (no-op but counted) collective record.
pub fn select_serial<T: CommScalar, S: DistStrategy<T> + ?Sized>(
    strategy: &S,
    problem: &SelectionProblem<T>,
    budget: usize,
    seed: u64,
) -> Result<SelectionRun, SelectError> {
    let comm = SelfComm::new();
    let shard = ShardedProblem::replicate(problem);
    let exec = Executor::new(&comm, &shard);
    let selected = strategy.select_dist(&exec, budget, seed)?;
    Ok(SelectionRun {
        selected,
        comm: comm.stats(),
    })
}

/// Shared budget validation: empty pools and zero budgets get their
/// dedicated errors instead of panicking (or looping) downstream.
fn check_budget(pool: usize, budget: usize) -> Result<(), SelectError> {
    if pool == 0 {
        return Err(SelectError::EmptyPool);
    }
    if budget == 0 {
        return Err(SelectError::ZeroBudget);
    }
    if budget > pool {
        return Err(SelectError::BudgetTooLarge { budget, pool });
    }
    Ok(())
}

/// Allgather a rank-local row panel into the replicated global panel
/// (rank order = global row order, so the result's bits equal the serial
/// panel's).
fn gather_rows<T: CommScalar>(
    exec: &Executor<'_, T>,
    local: &Matrix<T>,
    global_rows: usize,
) -> Matrix<T> {
    let data = T::allgatherv(exec.comm(), local.as_slice());
    assert_eq!(
        data.len(),
        global_rows * local.cols(),
        "gathered panel has wrong size"
    );
    Matrix::from_vec(global_rows, local.cols(), data)
}

/// Replicate the full selection problem on every rank (pool panels
/// Allgathered in global order; the labeled panels are replicated by
/// construction). The escape hatch for strategies whose inner solver is
/// inherently centralized (K-Means clustering, Exact-FIRAL's dense `ê × ê`
/// algebra) — communication `O(n(d + c))`, identical bits to the serial
/// problem.
fn replicate_problem<T: CommScalar>(exec: &Executor<'_, T>) -> SelectionProblem<T> {
    let shard = exec.shard();
    SelectionProblem::new(
        gather_rows(exec, &shard.local_x, shard.global_n),
        gather_rows(exec, &shard.local_h, shard.global_n),
        shard.labeled_x.clone(),
        shard.labeled_h.clone(),
        shard.num_classes,
    )
}

/// First-maximum pseudo-label of a truncated probability row: the argmax
/// over the full `c`-class distribution reconstructed from the `c-1` panel
/// (reference-class probability `1 - Σ h`), ties to the lower class index.
fn pseudo_label<T: Scalar>(h: &[T]) -> usize {
    let mut rest = T::ONE;
    let mut best = (T::from_f64(-1.0), 0usize);
    for (k, &p) in h.iter().enumerate() {
        rest -= p;
        if p > best.0 {
            best = (p, k);
        }
    }
    if rest > best.0 {
        best.1 = h.len();
    }
    best.1
}

/// Uniform random selection without replacement.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomStrategy;

impl<T: CommScalar> DistStrategy<T> for RandomStrategy {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        let n = exec.shard().global_n;
        check_budget(n, budget)?;
        // Purely replicated arithmetic: the draw depends only on (n, seed),
        // so every rank computes the identical batch with no communication.
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher–Yates over an index array.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..budget {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(budget);
        Ok(idx)
    }
}

/// K-Means baseline: cluster the pool with `k = b`, label the point nearest
/// each centroid (§IV-A setup item (2)).
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeansStrategy;

impl<T: CommScalar> DistStrategy<T> for KMeansStrategy {
    fn name(&self) -> &'static str {
        "K-Means"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        let shard = exec.shard();
        check_budget(shard.global_n, budget)?;
        // Lloyd iterations are centroid-global: replicate the pool
        // (Allgather in global order) and run the seeded clustering
        // identically on every rank.
        let full_x = gather_rows(exec, &shard.local_x, shard.global_n);
        let result = exec.install(|| kmeans(&full_x, budget, seed));
        Ok(nearest_to_centroids(&full_x, &result.centroids))
    }
}

/// Entropy baseline: top-`b` pool points by prediction entropy
/// (`-Σ_c p log p`, §IV-A setup item (3)).
#[derive(Debug, Clone, Copy, Default)]
pub struct EntropyStrategy;

impl EntropyStrategy {
    /// Entropy over the full `c`-class distribution reconstructed from the
    /// `c-1` panel (the reference-class probability is `1 - Σ h`).
    fn entropies<T: Scalar>(pool_h: &Matrix<T>) -> Vec<T> {
        (0..pool_h.rows())
            .map(|i| {
                let row = pool_h.row(i);
                let mut rest = T::ONE;
                let mut h = T::ZERO;
                for &p in row {
                    if p > T::ZERO {
                        h -= p * p.ln();
                    }
                    rest -= p;
                }
                if rest > T::ZERO {
                    h -= rest * rest.ln();
                }
                h
            })
            .collect()
    }
}

impl<T: CommScalar> DistStrategy<T> for EntropyStrategy {
    fn name(&self) -> &'static str {
        "Entropy"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        _seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        let shard = exec.shard();
        check_budget(shard.global_n, budget)?;
        // Per-point entropies are row-local (shard-independent bits); the
        // Allgather assembles them in global order, so the replicated
        // top-b sort matches the serial one exactly.
        let local = Self::entropies(&shard.local_h);
        let ent = T::allgatherv(exec.comm(), &local);
        let mut idx: Vec<usize> = (0..shard.global_n).collect();
        idx.sort_by(|&a, &b| {
            ent[b]
                .partial_cmp(&ent[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(budget);
        Ok(idx)
    }
}

/// Exact-FIRAL (Algorithm 1) as a strategy, under the default
/// [`MirrorDescentConfig`] and η grid ([`RoundConfig`]). Small problems only
/// (dense `ê × ê` algebra; the distributed path replicates the pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactFiral;

impl ExactFiral {
    /// The serial Algorithm-1 pipeline on a full (replicated) problem: the
    /// §IV-A η rule over the exact ROUND, with the executor's criterion on
    /// the replicated `SelfComm` problem (so the pick is rank-count
    /// invariant).
    fn exact_select<T: CommScalar>(problem: &SelectionProblem<T>, budget: usize) -> Vec<usize> {
        let (z, _) = exact_relax(problem, budget, &MirrorDescentConfig::default());
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(problem));
        let exec = Executor::new(&comm, &shard);
        let scale = T::from_usize(problem.ehat()).sqrt();
        let (_, selected) = sweep_eta(&RoundConfig::default().eta_grid, scale, |eta| {
            let sel = exact_round(problem, &z, budget, eta);
            let crit = exec.selection_min_eig(&sel);
            (sel, crit)
        });
        selected
    }
}

impl<T: CommScalar> DistStrategy<T> for ExactFiral {
    fn name(&self) -> &'static str {
        "Exact-FIRAL"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        _seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        check_budget(exec.shard().global_n, budget)?;
        // The dense ê × ê algebra is inherently centralized: replicate the
        // pool and run the identical serial pipeline on every rank.
        let problem = replicate_problem(exec);
        Ok(exec.install(|| Self::exact_select(&problem, budget)))
    }
}

/// Approx-FIRAL (Algorithms 2+3) as a strategy — the paper's contribution.
#[derive(Debug, Clone, Default)]
pub struct ApproxFiral<T: Scalar> {
    /// RELAX + ROUND configuration.
    pub config: FiralConfig<T>,
}

impl<T: Scalar> ApproxFiral<T> {
    /// Strategy with explicit configuration.
    pub fn new(config: FiralConfig<T>) -> Self {
        Self { config }
    }
}

impl<T: CommScalar> DistStrategy<T> for ApproxFiral<T> {
    fn name(&self) -> &'static str {
        "Approx-FIRAL"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        check_budget(exec.shard().global_n, budget)?;
        // The genuinely distributed path: the unified RELAX/ROUND layer on
        // this rank's shard (at p = 1 the collectives are no-ops and this
        // is the historical serial strategy, same bits).
        let mut config = self.config.clone();
        config.relax.seed = config.relax.seed.wrapping_add(seed);
        let (_, round) = exec.approx_firal(budget, &config);
        Ok(round.selected)
    }
}

/// UPAL-style unbiased pool-based active learning (Ganti & Gray,
/// arXiv:1111.1784) on the executor.
///
/// Per acquisition step `t`:
///
/// 1. re-fit the classifier on the replicated weighted training set
///    (labeled panel + points bought so far) with
///    [`LogisticRegression::fit_weighted`];
/// 2. score every pool point by the re-fit model's prediction entropy
///    (row-local arithmetic on this rank's shard);
/// 3. Allgather the scores into the replicated global vector, form the
///    sampling distribution `p_t = (1-ε)·score/Σ + ε·uniform` over the
///    not-yet-selected points, accumulate each point's **cumulative
///    acceptance probability** `Q_i += p_t(i)`, and draw one point by
///    inverse CDF with a shared seeded uniform;
/// 4. the winner joins the training set with importance weight `1/Q_i`
///    (its rows replicated by an owner Bcast) — the Horvitz–Thompson
///    correction that keeps the weighted empirical risk an unbiased
///    estimate of the pool risk.
///
/// Labels are not visible to a selection strategy (the oracle is paid
/// *after* selection), so the re-fit trains on pseudo-labels — the argmax
/// of the current classifier's belief — which is the standard surrogate
/// for look-ahead style strategies in this setting.
///
/// The mixing weight is `ε = 0.1`, each importance weight is capped at
/// `1e6`, and the re-fit trains under [`TrainConfig::default`].
///
/// Every decision is made from replicated state, so the selection is
/// bitwise identical across backends **and** rank counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpalStrategy;

/// UPAL's uniform mixing weight `ε` in `p_t = (1-ε)·uncertainty +
/// ε·uniform`: the minimum-probability floor that bounds every importance
/// weight by `n/ε`.
const UPAL_MIX: f64 = 0.1;

/// Cap on any single UPAL importance weight (numerical safety for the
/// weighted re-fit).
const UPAL_MAX_WEIGHT: f64 = 1e6;

impl UpalStrategy {
    fn select_impl<T: CommScalar>(
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        let shard = exec.shard();
        let n = shard.global_n;
        let d = shard.dim();
        let c = shard.num_classes;
        let mut rng = StdRng::seed_from_u64(seed);
        let train = TrainConfig::default();
        let mix = T::from_f64(UPAL_MIX);
        let max_weight = T::from_f64(UPAL_MAX_WEIGHT);

        // Replicated weighted training set, seeded from the labeled panel
        // (weight 1, pseudo-labels from the classifier's belief).
        let m = shard.labeled_x.rows();
        let mut train_rows: Vec<T> = shard.labeled_x.as_slice().to_vec();
        let mut labels: Vec<usize> = (0..m)
            .map(|i| pseudo_label(shard.labeled_h.row(i)))
            .collect();
        let mut weights: Vec<T> = vec![T::ONE; m];

        // Cumulative acceptance probabilities Q_i and the selection state —
        // all replicated (identical on every rank).
        let mut cumulative = vec![T::ZERO; n];
        let mut taken = vec![false; n];
        let mut selected = Vec::with_capacity(budget);

        for _t in 0..budget {
            // 1. Weighted re-fit on replicated data. A degenerate line
            // search (possible on adversarial weights) falls back to
            // uniform sampling for this step instead of failing the run.
            let train_x = Matrix::from_vec(labels.len(), d, train_rows.clone());
            let model =
                LogisticRegression::fit_weighted(&train_x, &labels, &weights, c, &train).ok();

            // 2. Local uncertainty scores: the re-fit model's prediction
            // entropy over this rank's shard rows.
            let local_scores: Vec<T> = match &model {
                Some(model) => {
                    let probs = model.predict_proba(&shard.local_x);
                    (0..shard.local_n())
                        .map(|i| {
                            let mut h = T::ZERO;
                            for &p in probs.row(i) {
                                if p > T::ZERO {
                                    h -= p * p.ln();
                                }
                            }
                            h
                        })
                        .collect()
                }
                None => vec![T::ZERO; shard.local_n()],
            };

            // 3. Replicated sampling distribution over the remaining pool.
            let scores = T::allgatherv(exec.comm(), &local_scores);
            debug_assert_eq!(scores.len(), n);
            let n_rem = n - selected.len();
            let mut total = T::ZERO;
            for (i, &s) in scores.iter().enumerate() {
                if !taken[i] && s > T::ZERO {
                    total += s;
                }
            }
            let uniform = T::ONE / T::from_usize(n_rem);
            let u = T::from_f64(rng.gen::<f64>());
            let mut acc = T::ZERO;
            let mut pick = usize::MAX;
            let mut last_open = usize::MAX;
            for i in 0..n {
                if taken[i] {
                    continue;
                }
                let p_i = if total > T::ZERO {
                    (T::ONE - mix) * scores[i].maxv(T::ZERO) / total + mix * uniform
                } else {
                    uniform
                };
                cumulative[i] += p_i;
                last_open = i;
                if pick == usize::MAX {
                    acc += p_i;
                    if u < acc {
                        pick = i;
                    }
                }
            }
            if pick == usize::MAX {
                // Float undershoot (Σ p_i can land a few ulps below 1):
                // the draw falls in the tail, which belongs to the last
                // open point.
                pick = last_open;
            }
            taken[pick] = true;
            selected.push(pick);

            // 4. Importance weight from the cumulative acceptance
            // probability; the owner replicates the winner's rows.
            let w = (T::ONE / cumulative[pick]).minv(max_weight);
            let (x_row, h_row) = exec.bcast_pool_point(pick);
            train_rows.extend_from_slice(&x_row);
            labels.push(pseudo_label(&h_row));
            weights.push(w);
        }
        Ok(selected)
    }
}

impl<T: CommScalar> DistStrategy<T> for UpalStrategy {
    fn name(&self) -> &'static str {
        "UPAL"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        check_budget(exec.shard().global_n, budget)?;
        exec.install(|| Self::select_impl(exec, budget, seed))
    }
}

/// Bayesian batch selection as sparse subset approximation (Pinsler et
/// al., arXiv:1908.02144) on the executor.
///
/// Each pool point gets the Fisher embedding `ψ_i ∈ R^ê` whose block `k`
/// is `√(g_ik)·x_i` with `g_ik = h_ik(1-h_ik)` — so `ψ_i ψ_iᵀ` has exactly
/// the Definition-1 block diagonal `B(H_i)`, i.e. the embedding is the
/// square root of the point's block Fisher contribution, built from the
/// same probability machinery as RELAX/ROUND. The batch is chosen so the
/// weighted sum of selected embeddings approximates the full-pool
/// log-posterior update `t = Σ_i ψ_i`:
///
/// * **setup** — `t` assembles from one tall-skinny local GEMM per rank
///   plus the §III-C partial-sum Allreduce; the polytope scale
///   `σ̄ = Σ_i ‖ψ_i‖` is a scalar Allreduce;
/// * **iterate** `b` times (Frank–Wolfe): score every remaining local
///   point by `⟨ψ_i, t - a⟩/‖ψ_i‖` (one local GEMM), take the global
///   argmax with an Allreduce-MAXLOC (Line-7 pattern of Algorithm 3), the
///   owner Bcasts the winner's rows, and every rank takes the exact line
///   step `γ = ⟨d_f - a, t - a⟩ / ‖d_f - a‖²` (clamped to `[0, 1]`,
///   `d_f = (σ̄/σ_f)·ψ_f`) on replicated arithmetic.
///
/// Deterministic — the seed is ignored, like [`EntropyStrategy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BayesBatchStrategy;

impl BayesBatchStrategy {
    fn select_impl<T: CommScalar>(exec: &Executor<'_, T>, budget: usize) -> Vec<usize> {
        let shard = exec.shard();
        let n_local = shard.local_n();
        let d = shard.dim();
        let cm1 = shard.nblocks();
        let ehat = shard.ehat();

        // √g panel: s_ik = √(h_ik (1 - h_ik)) — row-local.
        let mut s = Matrix::zeros(n_local, cm1);
        for i in 0..n_local {
            let hrow = shard.local_h.row(i);
            let srow = s.row_mut(i);
            for k in 0..cm1 {
                srow[k] = (hrow[k] * (T::ONE - hrow[k])).sqrt();
            }
        }

        // Pool target t = Σ_i ψ_i: block k = Xᵀ s_{·k}, one tall-skinny
        // GEMM per rank + the partial-sum Allreduce.
        let tmat = gemm_at_b(&shard.local_x, &s);
        let mut t = vec![T::ZERO; ehat];
        for k in 0..cm1 {
            for p in 0..d {
                t[k * d + p] = tmat[(p, k)];
            }
        }
        T::allreduce(exec.comm(), &mut t, ReduceOp::Sum);

        // Embedding norms σ_i = ‖ψ_i‖ (local) and σ̄ = Σσ_i (Allreduce).
        let mut sigma = vec![T::ZERO; n_local];
        let mut sigma_sum = T::ZERO;
        for i in 0..n_local {
            let xrow = shard.local_x.row(i);
            let mut x2 = T::ZERO;
            for &x in xrow {
                x2 += x * x;
            }
            let mut g = T::ZERO;
            for &sv in s.row(i) {
                g += sv * sv;
            }
            sigma[i] = (x2 * g).sqrt();
            sigma_sum += sigma[i];
        }
        let sigma_bar = exec.allreduce_scalar(sigma_sum, ReduceOp::Sum);

        let mut a = vec![T::ZERO; ehat];
        let mut taken_local = vec![false; n_local];
        let mut selected = Vec::with_capacity(budget);

        for _t in 0..budget {
            // Residual r = t - a (replicated bits on every rank).
            let mut rmat = Matrix::zeros(d, cm1);
            for k in 0..cm1 {
                for p in 0..d {
                    rmat[(p, k)] = t[k * d + p] - a[k * d + p];
                }
            }
            // Local scores ⟨ψ_i, r⟩/σ_i via one GEMM: P = X·R, then
            // score_i = Σ_k s_ik P_ik / σ_i.
            let p = gemm(&shard.local_x, &rmat);
            let mut best = (f64::NEG_INFINITY, u64::MAX);
            for i in 0..n_local {
                if taken_local[i] || sigma[i] <= T::ZERO {
                    continue;
                }
                let mut acc = T::ZERO;
                for k in 0..cm1 {
                    acc += s[(i, k)] * p[(i, k)];
                }
                let score = (acc / sigma[i]).to_f64();
                if score > best.0 {
                    best = (score, (shard.offset + i) as u64);
                }
            }
            let (_, gidx) = exec.comm().allreduce_maxloc(best.0, best.1);
            let f = if gidx == u64::MAX {
                // Degenerate pool (every remaining embedding has zero
                // norm): fall back to the lowest unselected index —
                // replicated state, so still rank-invariant.
                (0..shard.global_n)
                    .find(|i| !selected.contains(i))
                    .expect("budget exceeds pool")
            } else {
                gidx as usize
            };
            if let Some(l) = f.checked_sub(shard.offset).filter(|&l| l < n_local) {
                taken_local[l] = true;
            }
            selected.push(f);

            // The owner replicates the winner's rows; every rank rebuilds
            // ψ_f and takes the exact Frank–Wolfe step on replicated
            // arithmetic.
            let (x_f, h_f) = exec.bcast_pool_point(f);
            let mut psi_f = vec![T::ZERO; ehat];
            let mut x2 = T::ZERO;
            for &x in &x_f {
                x2 += x * x;
            }
            // g accumulates as (√g)² — the same expression the scoring
            // pass uses for σ_i, so σ_f carries identical bits to the σ
            // that ranked the point.
            let mut g_sum = T::ZERO;
            for (k, &h) in h_f.iter().enumerate() {
                let sk = (h * (T::ONE - h)).sqrt();
                g_sum += sk * sk;
                for (p, &x) in x_f.iter().enumerate() {
                    psi_f[k * d + p] = sk * x;
                }
            }
            let sigma_f = (x2 * g_sum).sqrt();
            if sigma_f > T::ZERO && sigma_bar > T::ZERO {
                let scale = sigma_bar / sigma_f;
                let mut num = T::ZERO;
                let mut den = T::ZERO;
                for j in 0..ehat {
                    let diff = scale * psi_f[j] - a[j];
                    num += diff * (t[j] - a[j]);
                    den += diff * diff;
                }
                if den > T::ZERO {
                    let gamma = (num / den).maxv(T::ZERO).minv(T::ONE);
                    for (aj, &pj) in a.iter_mut().zip(psi_f.iter()) {
                        *aj = (T::ONE - gamma) * *aj + gamma * scale * pj;
                    }
                }
            }
        }
        selected
    }
}

impl<T: CommScalar> DistStrategy<T> for BayesBatchStrategy {
    fn name(&self) -> &'static str {
        "Bayes-Batch"
    }

    fn select_dist(
        &self,
        exec: &Executor<'_, T>,
        budget: usize,
        _seed: u64,
    ) -> Result<Vec<usize>, SelectError> {
        check_budget(exec.shard().global_n, budget)?;
        Ok(exec.install(|| Self::select_impl(exec, budget)))
    }
}

/// The names [`strategy_by_name`] resolves (kebab-case, the stable CLI /
/// config surface of the benches, `spmd_launch` workloads and the server).
pub const STRATEGY_NAMES: [&str; 7] = [
    "random",
    "kmeans",
    "entropy",
    "exact-firal",
    "approx-firal",
    "upal",
    "bayes-batch",
];

/// Resolve a registered strategy (default configuration) by name;
/// [`SelectError::UnknownStrategy`] for names outside [`STRATEGY_NAMES`].
pub fn strategy_by_name<T: CommScalar>(
    name: &str,
) -> Result<Box<dyn DistStrategy<T>>, SelectError> {
    Ok(match name {
        "random" => Box::new(RandomStrategy),
        "kmeans" | "k-means" => Box::new(KMeansStrategy),
        "entropy" => Box::new(EntropyStrategy),
        "exact-firal" => Box::new(ExactFiral),
        "approx-firal" => Box::new(ApproxFiral::default()),
        "upal" => Box::new(UpalStrategy),
        "bayes-batch" => Box::new(BayesBatchStrategy),
        _ => {
            return Err(SelectError::UnknownStrategy {
                name: name.to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tiny_problem;
    use firal_comm::launch;

    fn assert_valid_selection(sel: &[usize], budget: usize, pool: usize) {
        assert_eq!(sel.len(), budget);
        let mut sorted = sel.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), budget, "duplicates in {sel:?}");
        assert!(sel.iter().all(|&i| i < pool));
    }

    fn all_strategies() -> Vec<Box<dyn DistStrategy<f64>>> {
        STRATEGY_NAMES
            .iter()
            .map(|name| strategy_by_name::<f64>(name).unwrap())
            .collect()
    }

    #[test]
    fn all_strategies_return_valid_selections() {
        let p = tiny_problem(1, 60, 4, 3);
        for s in &all_strategies() {
            let run = select_serial(s.as_ref(), &p, 5, 42)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert_valid_selection(&run.selected, 5, 60);
        }
    }

    #[test]
    fn budget_too_large_is_rejected() {
        let p = tiny_problem(2, 60, 4, 3);
        let err = select_serial(&RandomStrategy, &p, 100, 0).map(|run| run.selected);
        assert!(matches!(
            err,
            Err(SelectError::BudgetTooLarge {
                budget: 100,
                pool: 60
            })
        ));
    }

    #[test]
    fn zero_budget_and_empty_pool_are_rejected_by_every_strategy() {
        let p = tiny_problem(6, 60, 4, 3);
        let empty = SelectionProblem::new(
            Matrix::<f64>::zeros(0, 4),
            Matrix::zeros(0, 2),
            p.labeled_x.clone(),
            p.labeled_h.clone(),
            3,
        );
        for s in &all_strategies() {
            let select = |problem: &SelectionProblem<f64>, budget: usize| {
                select_serial(s.as_ref(), problem, budget, 1).map(|run| run.selected)
            };
            assert_eq!(
                select(&p, 0),
                Err(SelectError::ZeroBudget),
                "{}: zero budget must be rejected",
                s.name()
            );
            assert_eq!(
                select(&empty, 3),
                Err(SelectError::EmptyPool),
                "{}: empty pool must be rejected",
                s.name()
            );
            // Empty pool wins over zero budget: there is nothing to select
            // from either way, and the pool error is the more fundamental.
            assert_eq!(select(&empty, 0), Err(SelectError::EmptyPool));
        }
    }

    #[test]
    fn random_depends_on_seed_entropy_does_not() {
        let p = tiny_problem(3, 60, 4, 3);
        let r1 = select_serial(&RandomStrategy, &p, 5, 1).unwrap().selected;
        let r2 = select_serial(&RandomStrategy, &p, 5, 2).unwrap().selected;
        assert_ne!(r1, r2, "different seeds should differ (w.h.p.)");
        let e1 = select_serial(&EntropyStrategy, &p, 5, 1).unwrap().selected;
        let e2 = select_serial(&EntropyStrategy, &p, 5, 2).unwrap().selected;
        assert_eq!(e1, e2, "entropy is deterministic");
    }

    #[test]
    fn entropy_selects_most_uncertain() {
        let p = tiny_problem(4, 60, 4, 3);
        let sel = select_serial(&EntropyStrategy, &p, 3, 0).unwrap().selected;
        let ents = EntropyStrategy::entropies(&p.pool_h);
        let min_selected = sel.iter().map(|&i| ents[i]).fold(f64::INFINITY, f64::min);
        let max_unselected = (0..p.pool_size())
            .filter(|i| !sel.contains(i))
            .map(|i| ents[i])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_selected >= max_unselected - 1e-12);
    }

    #[test]
    fn approx_firal_on_fisher_objective_beats_random() {
        use crate::objective::selection_objective;
        let p = tiny_problem(5, 60, 4, 3);
        let firal_sel = select_serial(&ApproxFiral::default(), &p, 6, 0)
            .unwrap()
            .selected;
        let f_firal = selection_objective(&p, &firal_sel);
        let mut rand_sum = 0.0;
        for s in 0..6 {
            let sel = select_serial(&RandomStrategy, &p, 6, s).unwrap().selected;
            rand_sum += selection_objective(&p, &sel);
        }
        let f_rand = rand_sum / 6.0;
        assert!(
            f_firal < f_rand * 1.05,
            "Approx-FIRAL f = {f_firal} vs mean random f = {f_rand}"
        );
    }

    #[test]
    fn serial_select_reports_collective_traffic() {
        // The SelfComm instantiation still counts its (no-op) collectives:
        // the strategies genuinely route through the comm layer.
        let p = tiny_problem(7, 60, 4, 3);
        for name in ["entropy", "upal", "bayes-batch"] {
            let s = strategy_by_name::<f64>(name).unwrap();
            let run = select_serial(s.as_ref(), &p, 4, 0).unwrap();
            assert_eq!(run.selected.len(), 4);
            assert!(
                run.comm.total_calls() > 0,
                "{name}: expected collective calls on the serial path"
            );
        }
    }

    #[test]
    fn upal_seed_varies_and_weights_stay_bounded() {
        let p = tiny_problem(8, 60, 4, 3);
        let s = UpalStrategy;
        let a = select_serial(&s, &p, 6, 1).unwrap().selected;
        let b = select_serial(&s, &p, 6, 2).unwrap().selected;
        assert_valid_selection(&a, 6, 60);
        assert_valid_selection(&b, 6, 60);
        assert_ne!(a, b, "different seeds should move the sampler (w.h.p.)");
        // And the same seed reproduces the identical batch.
        let a2 = select_serial(&s, &p, 6, 1).unwrap().selected;
        assert_eq!(a, a2);
    }

    #[test]
    fn bayes_batch_is_deterministic_and_spreads_over_classes() {
        let p = tiny_problem(9, 60, 4, 3);
        let s = BayesBatchStrategy;
        let a = select_serial(&s, &p, 6, 1).unwrap().selected;
        let b = select_serial(&s, &p, 6, 99).unwrap().selected;
        assert_valid_selection(&a, 6, 60);
        assert_eq!(a, b, "Bayes-Batch ignores the seed");
    }

    #[test]
    fn bayes_batch_first_pick_maximizes_alignment_with_pool_target() {
        // With a = 0 the first FW score is ⟨ψ_i, t⟩/σ_i; verify the pick
        // against a dense recomputation of the embeddings.
        let p = tiny_problem(10, 60, 4, 3);
        let sel = select_serial(&BayesBatchStrategy, &p, 1, 0)
            .unwrap()
            .selected;
        let n = p.pool_size();
        let d = p.dim();
        let cm1 = p.nblocks();
        let psi = |i: usize| -> Vec<f64> {
            let mut v = vec![0.0; d * cm1];
            for k in 0..cm1 {
                let h = p.pool_h[(i, k)];
                let sk = (h * (1.0 - h)).sqrt();
                for q in 0..d {
                    v[k * d + q] = sk * p.pool_x[(i, q)];
                }
            }
            v
        };
        let mut t = vec![0.0; d * cm1];
        for i in 0..n {
            for (tj, pj) in t.iter_mut().zip(psi(i)) {
                *tj += pj;
            }
        }
        let score = |i: usize| -> f64 {
            let v = psi(i);
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            v.iter().zip(&t).map(|(a, b)| a * b).sum::<f64>() / norm
        };
        let best = (0..n)
            .max_by(|&a, &b| score(a).partial_cmp(&score(b)).unwrap())
            .unwrap();
        assert_eq!(sel, vec![best]);
    }

    #[test]
    fn registry_resolves_every_name_and_rejects_unknown() {
        for name in STRATEGY_NAMES {
            let s = strategy_by_name::<f64>(name).unwrap();
            assert!(!s.name().is_empty());
            assert!(strategy_by_name::<f32>(name).is_ok(), "{name} in f32");
        }
        assert_eq!(
            strategy_by_name::<f64>("no-such-strategy").err(),
            Some(SelectError::UnknownStrategy {
                name: "no-such-strategy".into()
            })
        );
    }

    #[test]
    fn dist_strategies_match_serial_on_thread_ranks() {
        // Every registered strategy: the 2-rank ThreadComm selection must
        // equal the serial SelfComm selection (the full backend × rank
        // matrix for the new strategies lives in
        // tests/parallel_consistency.rs).
        let p = tiny_problem(11, 60, 4, 3);
        for name in STRATEGY_NAMES {
            let serial = select_serial(strategy_by_name::<f64>(name).unwrap().as_ref(), &p, 4, 5)
                .unwrap()
                .selected;
            let results = launch(2, |comm| {
                let shard = ShardedProblem::shard(&p, comm.rank(), comm.size());
                let exec = Executor::new(comm, &shard);
                strategy_by_name::<f64>(name)
                    .unwrap()
                    .select_dist(&exec, 4, 5)
                    .unwrap()
            });
            for sel in &results {
                assert_eq!(sel, &serial, "{name}: p=2 diverged from serial");
            }
        }
    }

    #[test]
    fn pseudo_label_reconstructs_reference_class() {
        // h = (0.2, 0.1) over c = 3 → reference class prob 0.7 wins.
        assert_eq!(pseudo_label(&[0.2, 0.1]), 2);
        // h = (0.6, 0.1) → class 0 wins.
        assert_eq!(pseudo_label(&[0.6, 0.1]), 0);
        // Tie between class 0 and the reference: first maximum (class 0).
        assert_eq!(pseudo_label(&[0.5, 0.0]), 0);
    }
}
