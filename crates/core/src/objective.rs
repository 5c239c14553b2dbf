//! Fisher-information-ratio objective evaluation.
//!
//! `f(z) = Tr[(H_o + H_z)^{-1} H_p]` (Eq. 4–5), evaluated densely. Used by
//! the exact algorithm, by the Fig. 4 sensitivity study and by tests; the
//! fast RELAX solver builds its own Hutchinson/CG estimate from the probe
//! panel it already holds.
//!
//! Every dense `Σ` of Exact-FIRAL is `sigma_z`'s `to_dense`: the
//! objectives' (one body, the unridged forms at ridge zero), Exact RELAX's
//! and Exact ROUND's.

use firal_linalg::{Cholesky, Scalar};

use crate::hessian::{PoolHessian, SigmaZ};
use crate::problem::SelectionProblem;

/// `Σ_z = H_o + H_z` of `problem` at the pool weights `z`.
pub(crate) fn sigma_z<T: Scalar>(problem: &SelectionProblem<T>, z: Vec<T>) -> SigmaZ<'_, T> {
    SigmaZ::new(
        PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h),
        PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z),
    )
}

/// `Tr[(H_o + H_z + ridge·I)^{-1} H_p]`, `O(ê³ + nê²)`: the body of every
/// objective here (`x + 0 = x`, so ridge zero is the unridged value).
fn ridged_objective<T: Scalar>(problem: &SelectionProblem<T>, z: Vec<T>, ridge: T) -> T {
    let mut sigma = sigma_z(problem, z).to_dense();
    sigma.add_diag(ridge);
    let hp = PoolHessian::unweighted(&problem.pool_x, &problem.pool_h).to_dense();
    let ch = Cholesky::new(&sigma).expect("Σ must be SPD (is the pool degenerate?)");
    // Tr(Σ⁻¹ H_p) = Σ_j (Σ⁻¹ H_p)_{jj}: solve column-by-column.
    ch.solve_mat(&hp).trace()
}

/// Exact objective `Tr(Σ_z^{-1} H_p)` with `Σ_z = H_o + H_z` assembled
/// densely. `z` are the (already `b`-scaled) pool weights.
pub fn exact_objective<T: Scalar>(problem: &SelectionProblem<T>, z: &[T]) -> T {
    ridged_objective(problem, z.to_vec(), T::ZERO)
}

/// Objective for a *discrete* selection: `f(selection) = Tr[(H_o +
/// Σ_{i∈sel} H_i)^{-1} H_p]` — the quantity Theorem 1 bounds.
///
/// Panics when `Σ` is singular, which happens whenever
/// `(|X_o| + b)(c-1) < ê` (too few points to span the space; the theory
/// regime requires `b ≫ ê`). Use [`selection_objective_ridged`] for small
/// selections.
pub fn selection_objective<T: Scalar>(problem: &SelectionProblem<T>, selected: &[usize]) -> T {
    selection_objective_ridged(problem, selected, T::ZERO)
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
    ridged_objective(problem, z, ridge)
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

    #[test]
    fn ridged_selection_objective_is_the_plain_one_at_ridge_zero() {
        let p = tiny_problem(2, 40, 4, 3);
        let sel = [0usize, 3, 7];
        assert_eq!(
            selection_objective_ridged(&p, &sel, 0.0).to_bits(),
            selection_objective(&p, &sel).to_bits()
        );
    }

    #[test]
    fn ridged_selection_objective_on_a_rank_deficient_selection() {
        // 2 labeled points per class and 2 picks span at most
        // (6 + 2)·(c−1) of ê = 10·(c−1) directions: Σ is singular.
        let p = tiny_problem(3, 40, 10, 3);
        let sel = [1usize, 5];
        let mut previous = f64::INFINITY;
        for ridge in [1e-4, 1e-3, 1e-2, 1e-1, 1.0] {
            let f = selection_objective_ridged(&p, &sel, ridge);
            assert!(f.is_finite() && f > 0.0, "ridge {ridge}: f = {f}");
            assert!(f <= previous, "ridge {ridge}: f = {f} > {previous}");
            previous = f;
        }
    }
}
