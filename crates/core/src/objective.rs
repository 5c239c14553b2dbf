//! Fisher-information-ratio objective evaluation.
//!
//! `f(z) = Tr[(H_o + H_z)^{-1} H_p]` (Eq. 4–5). The dense evaluator is used
//! by the exact algorithm, by the Fig. 4 sensitivity study and by tests;
//! the estimated evaluator is the Hutchinson/CG version the fast RELAX
//! solver tracks for its stopping rule.

use firal_linalg::{Cholesky, Matrix, Scalar};
use firal_solvers::{cg_solve_panel, CgConfig, LinearOperator};

use crate::hessian::{BlockJacobi, PoolHessian, SigmaZ};
use crate::problem::SelectionProblem;

/// Exact objective `Tr(Σ_z^{-1} H_p)` with `Σ_z = H_o + H_z` assembled
/// densely. `z` are the (already `b`-scaled) pool weights. `O(ê³ + nê²)`.
pub fn exact_objective<T: Scalar>(problem: &SelectionProblem<T>, z: &[T]) -> T {
    assert_eq!(z.len(), problem.pool_size(), "weight length mismatch");
    let ho = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h);
    let hz = PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z.to_vec());
    let hp = PoolHessian::unweighted(&problem.pool_x, &problem.pool_h);

    let mut sigma = ho.to_dense();
    sigma.add_scaled(T::ONE, &hz.to_dense());
    let hp_dense = hp.to_dense();

    let ch = Cholesky::new(&sigma).expect("Σ_z must be SPD (is the pool degenerate?)");
    // Tr(Σ⁻¹ H_p) = Σ_j (Σ⁻¹ H_p)_{jj}: solve column-by-column.
    let solved = ch.solve_mat(&hp_dense);
    solved.trace()
}

/// Objective for a *discrete* selection: `f(selection) = Tr[(H_o +
/// Σ_{i∈sel} H_i)^{-1} H_p]` — the quantity Theorem 1 bounds.
///
/// Panics when `Σ` is singular, which happens whenever
/// `(|X_o| + b)(c-1) < ê` (too few points to span the space; the theory
/// regime requires `b ≫ ê`). Use [`selection_objective_ridged`] for small
/// selections.
pub fn selection_objective<T: Scalar>(problem: &SelectionProblem<T>, selected: &[usize]) -> T {
    let mut z = vec![T::ZERO; problem.pool_size()];
    for &i in selected {
        z[i] += T::ONE;
    }
    exact_objective(problem, &z)
}

/// Ridge-regularized selection objective `Tr[(H_o + H_sel + δI)^{-1} H_p]`
/// — well-defined for any batch size; used to compare selections whose
/// information matrices are rank-deficient.
pub fn selection_objective_ridged<T: Scalar>(
    problem: &SelectionProblem<T>,
    selected: &[usize],
    ridge: T,
) -> T {
    let mut z = vec![T::ZERO; problem.pool_size()];
    for &i in selected {
        z[i] += T::ONE;
    }
    let ho = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h);
    let hz = PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z);
    let hp = PoolHessian::unweighted(&problem.pool_x, &problem.pool_h);
    let mut sigma = ho.to_dense();
    sigma.add_scaled(T::ONE, &hz.to_dense());
    sigma.add_diag(ridge);
    let ch = Cholesky::new(&sigma).expect("ridged Σ must be SPD");
    ch.solve_mat(&hp.to_dense()).trace()
}

/// Hutchinson estimate of the objective:
/// `f ≈ (1/s) Σ_j v_jᵀ Σ_z^{-1} (H_p v_j)` with preconditioned-CG solves.
/// This is the cheap tracker the fast RELAX stopping rule uses.
pub fn estimated_objective<T: Scalar>(
    problem: &SelectionProblem<T>,
    z: &[T],
    probes: &Matrix<T>,
    cg_tol: T,
) -> T {
    let ho = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h);
    let hz = PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z.to_vec());
    let hp = PoolHessian::unweighted(&problem.pool_x, &problem.pool_h);
    let sigma = SigmaZ::new(ho, hz);

    let prec = BlockJacobi::new_with_ridge(&sigma.block_diagonal(), T::from_f64(1e-10))
        .expect("preconditioner blocks must factor");

    // Y = H_p V, then W = Σ^{-1} Y; f ≈ mean_j v_jᵀ w_j … careful: we want
    // vᵀΣ⁻¹(H_p v) = (Σ⁻¹v)ᵀ(H_p v); either grouping works because Σ is
    // symmetric. Solving against H_pV keeps one CG panel solve.
    let y = hp.apply_panel(probes);
    let (w, _tel) = cg_solve_panel(&sigma, &prec, &y, &CgConfig::with_tol(cg_tol));

    let s = probes.cols();
    let mut acc = T::ZERO;
    for j in 0..s {
        let mut colsum = T::ZERO;
        for i in 0..probes.rows() {
            colsum += probes[(i, j)] * w[(i, j)];
        }
        acc += colsum;
    }
    acc / T::from_usize(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tiny_problem;
    use firal_solvers::rademacher_panel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn objective_decreases_with_more_weight() {
        let p = tiny_problem(1, 40, 4, 3);
        let n = p.pool_size();
        let f_small = exact_objective(&p, &vec![0.1; n]);
        let f_large = exact_objective(&p, &vec![10.0; n]);
        assert!(
            f_large < f_small,
            "more information must lower the ratio: {f_large} !< {f_small}"
        );
        assert!(f_small.is_finite() && f_large > 0.0);
    }

    #[test]
    fn selection_objective_matches_indicator_weights() {
        let p = tiny_problem(2, 40, 4, 3);
        let sel = vec![0usize, 3, 7];
        let f1 = selection_objective(&p, &sel);
        let mut z = vec![0.0; p.pool_size()];
        for &i in &sel {
            z[i] = 1.0;
        }
        let f2 = exact_objective(&p, &z);
        assert!((f1 - f2).abs() < 1e-9);
    }

    #[test]
    fn estimate_tracks_exact_objective() {
        let p = tiny_problem(3, 40, 4, 3);
        let n = p.pool_size();
        let z = vec![3.0 / n as f64; n];
        let exact = exact_objective(&p, &z);
        let mut rng = StdRng::seed_from_u64(7);
        // Plenty of probes and a tight CG for a statistical comparison.
        let probes = rademacher_panel(p.ehat(), 200, &mut rng);
        let est = estimated_objective(&p, &z, &probes, 1e-8);
        let rel = ((est - exact) / exact).abs();
        assert!(
            rel < 0.15,
            "estimate {est} vs exact {exact} (rel err {rel})"
        );
    }
}
