//! Fisher-information-ratio objective evaluation.
//!
//! `f(z) = Tr[(H_o + H_z)^{-1} H_p]` (Eq. 4–5), evaluated densely. Used by
//! the exact algorithm, by the Fig. 4 sensitivity study and by tests; the
//! fast RELAX solver builds its own Hutchinson/CG estimate from the probe
//! panel it already holds.

use firal_linalg::{Cholesky, Scalar};

use crate::hessian::PoolHessian;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tiny_problem;

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
}
