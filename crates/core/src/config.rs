//! Hyperparameter bundles for the RELAX and ROUND solvers and the
//! non-FIRAL selection strategies.

use firal_linalg::Scalar;
use firal_logreg::TrainConfig;

/// Entropic-mirror-descent controls (shared by the exact and fast RELAX
/// solvers, Algorithms 1–2).
#[derive(Debug, Clone, Copy)]
pub struct MirrorDescentConfig<T> {
    /// Maximum iterations `T` ("fewer than 100 mirror descent iterations"
    /// suffice in all the paper's runs, §IV-A).
    pub max_iters: usize,
    /// Stop when the relative objective change drops below this
    /// (paper: `1.0E-4`).
    pub obj_rel_tol: T,
    /// Base step scale; the effective step is `β₀/√t`, normalized by the
    /// max gradient magnitude so one constant works across datasets.
    pub beta0: T,
}

impl<T: Scalar> Default for MirrorDescentConfig<T> {
    fn default() -> Self {
        Self {
            max_iters: 100,
            obj_rel_tol: T::from_f64(1e-4),
            beta0: T::ONE,
        }
    }
}

/// Fast-RELAX (Algorithm 2) controls.
#[derive(Debug, Clone, Copy)]
pub struct RelaxConfig<T> {
    /// Mirror-descent schedule.
    pub md: MirrorDescentConfig<T>,
    /// Number of Rademacher probes `s` (paper default: 10).
    pub probes: usize,
    /// CG relative-residual tolerance (paper default: 0.1).
    pub cg_tol: T,
    /// CG iteration cap (0 ⇒ 2·dimension).
    pub cg_max_iter: usize,
    /// Diagonal ridge added to preconditioner blocks if a block is not SPD
    /// (numerical safety; `0` keeps the paper's formulation and falls back
    /// lazily only on factorization failure).
    pub ridge: T,
    /// RNG seed for the probe panel.
    pub seed: u64,
}

impl<T: Scalar> Default for RelaxConfig<T> {
    fn default() -> Self {
        Self {
            md: MirrorDescentConfig::default(),
            probes: 10,
            cg_tol: T::from_f64(0.1),
            cg_max_iter: 0,
            ridge: T::ZERO,
            seed: 0,
        }
    }
}

/// Diagonal-ROUND (Algorithm 3) controls.
#[derive(Debug, Clone)]
pub struct RoundConfig<T> {
    /// FTRL learning rate `η`. `None` selects it by the paper's rule:
    /// run ROUND for each grid value and keep the `η` maximizing
    /// `min_k λ_min((H)_k)` over the selected points' Hessian sum (§IV-A).
    pub eta: Option<T>,
    /// Grid of multipliers on `√ê` tried when `eta` is `None`.
    pub eta_grid: Vec<T>,
}

impl<T: Scalar> Default for RoundConfig<T> {
    fn default() -> Self {
        Self {
            eta: None,
            eta_grid: vec![T::from_f64(2.0), T::from_f64(4.0), T::from_f64(8.0)],
        }
    }
}

impl<T: Scalar> RoundConfig<T> {
    /// Fix `η` explicitly (skips the selection grid).
    pub fn with_eta(eta: T) -> Self {
        Self {
            eta: Some(eta),
            eta_grid: Vec::new(),
        }
    }
}

/// Combined Approx-FIRAL configuration.
#[derive(Debug, Clone, Default)]
pub struct FiralConfig<T: Scalar> {
    /// RELAX-step controls.
    pub relax: RelaxConfig<T>,
    /// ROUND-step controls.
    pub round: RoundConfig<T>,
    /// Streaming refactor cadence: every `refactor_interval` committed
    /// update batches, `firal_core::stream::StreamingState` discards its
    /// incrementally maintained round state and rebuilds it from scratch
    /// (`Executor::build_round_state`), bounding the floating-point drift
    /// the rank-one Cholesky up/downdates accumulate between boundaries.
    /// At the boundary the streaming state is **bitwise equal** to the
    /// from-scratch build. `0` (the default) means a sensible cadence of
    /// 64 batches; usize::MAX disables refactoring (drift tests only).
    pub refactor_interval: usize,
}

/// Controls for [`crate::strategies::UpalStrategy`] — the UPAL-style
/// unbiased pool sampler (Ganti & Gray, arXiv:1111.1784; see PAPERS.md).
#[derive(Debug, Clone, Copy)]
pub struct UpalConfig<T: Scalar> {
    /// Uniform mixing weight `ε` of the sampling distribution
    /// `p_t = (1-ε)·uncertainty + ε·uniform`: UPAL's minimum-probability
    /// floor, which bounds every importance weight by `n/ε`.
    pub mix: T,
    /// Cap on any single importance weight (numerical safety for the
    /// weighted re-fit; `∞` disables).
    pub max_weight: T,
    /// Training configuration of the per-step weighted re-fit.
    pub train: TrainConfig<T>,
}

impl<T: Scalar> Default for UpalConfig<T> {
    fn default() -> Self {
        Self {
            mix: T::from_f64(0.1),
            max_weight: T::from_f64(1e6),
            train: TrainConfig::default(),
        }
    }
}

/// Controls for [`crate::strategies::BayesBatchStrategy`] — Bayesian batch
/// selection as sparse subset approximation via Frank–Wolfe (Pinsler et
/// al., arXiv:1908.02144; see PAPERS.md).
#[derive(Debug, Clone, Copy, Default)]
pub struct BayesBatchConfig<T: Scalar> {
    /// Ridge added to every point's squared embedding norm `σ_i²` before
    /// the score division (guards pool points whose predictive
    /// probabilities are numerically one-hot, i.e. `σ_i = 0`).
    pub norm_ridge: T,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_defaults_are_sane() {
        let u = UpalConfig::<f64>::default();
        assert!((0.0..1.0).contains(&u.mix));
        assert!(u.max_weight > 1.0);
        let b = BayesBatchConfig::<f32>::default();
        assert_eq!(b.norm_ridge, 0.0);
    }

    #[test]
    fn defaults_match_paper() {
        let r = RelaxConfig::<f64>::default();
        assert_eq!(r.probes, 10);
        assert!((r.cg_tol - 0.1).abs() < 1e-12);
        assert_eq!(r.md.max_iters, 100);
        assert!((r.md.obj_rel_tol - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn round_with_eta_skips_grid() {
        let r = RoundConfig::with_eta(3.0f32);
        assert_eq!(r.eta, Some(3.0));
        assert!(r.eta_grid.is_empty());
    }
}
