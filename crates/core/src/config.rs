//! Hyperparameter bundles for the RELAX and ROUND solvers: only the
//! settings a caller changes. Everything else is a constant beside the
//! code that uses it.

use firal_linalg::Scalar;

/// Entropic-mirror-descent controls (shared by the exact and fast RELAX
/// solvers, Algorithms 1–2). Both solvers take the same step
/// (`crate::md::mirror_step`, step `1/√t` over the max gradient magnitude)
/// and stop on the same rule (`crate::md::objective_converged`).
#[derive(Debug, Clone, Copy)]
pub struct MirrorDescentConfig<T> {
    /// Maximum iterations `T` ("fewer than 100 mirror descent iterations"
    /// suffice in all the paper's runs, §IV-A).
    pub max_iters: usize,
    /// Stop when the relative objective change drops below this
    /// (paper: `1.0E-4`).
    pub obj_rel_tol: T,
}

impl<T: Scalar> Default for MirrorDescentConfig<T> {
    fn default() -> Self {
        Self {
            max_iters: 100,
            obj_rel_tol: T::from_f64(1e-4),
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
            seed: 0,
        }
    }
}

/// Diagonal-ROUND (Algorithm 3) controls.
#[derive(Debug, Clone)]
pub struct RoundConfig<T> {
    /// Multipliers on `√ê` of the η grid. The paper's rule picks `η`
    /// by running ROUND for each grid value and keeping the one maximizing
    /// `min_k λ_min((H)_k)` over the selected points' Hessian sum (§IV-A).
    pub eta_grid: Vec<T>,
}

impl<T: Scalar> Default for RoundConfig<T> {
    fn default() -> Self {
        Self {
            eta_grid: vec![T::from_f64(2.0), T::from_f64(4.0), T::from_f64(8.0)],
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let r = RelaxConfig::<f64>::default();
        assert_eq!(r.probes, 10);
        assert!((r.cg_tol - 0.1).abs() < 1e-12);
        assert_eq!(r.md.max_iters, 100);
        assert!((r.md.obj_rel_tol - 1e-4).abs() < 1e-12);
    }
}
