//! Lanczos tridiagonalization for spectrum estimation.
//!
//! The paper's §V lists its own ROUND-step eigensolves as a scalability
//! limitation: "eigenvalue solves in the ROUND step ... are performed
//! exactly. These methods are not scalable for certain parameters and
//! could be replaced with ... iterative solvers. We aim to incorporate
//! these improvements in future versions of the algorithm."
//!
//! This module provides that future-work component: a matrix-free Lanczos
//! iteration with full reorthogonalization, returning Ritz values that
//! approximate the spectrum of a symmetric operator after `k ≪ d` matvecs.
//! `firal-core::round` can consume it in place of the dense QL solve (the
//! `lanczos.*` rows of `BENCH_paper.json` record the trade-off: the FTRL
//! normalization `ν_t` only needs the spectrum through `Σ (ν+ηλ)⁻² = 1`,
//! which Ritz values approximate well because the extremal eigenvalues —
//! the ones that dominate the sum — converge first).

use firal_linalg::{eigvalsh, Matrix, Scalar};
use rand::Rng;

use crate::op::LinearOperator;

/// Result of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult<T> {
    /// Ritz values (ascending) — approximations to eigenvalues of the
    /// operator, exact when `steps == dim`.
    pub ritz_values: Vec<T>,
    /// Number of Lanczos steps performed: the requested `k` clamped to the
    /// operator order (Krylov-space exhaustion restarts instead of
    /// stopping).
    pub steps: usize,
}

/// Unit vector along `q` after orthogonalising it (twice) against `basis`;
/// `None` if it fell inside the basis' span.
fn orthonormalize<T: Scalar>(mut q: Vec<T>, basis: &[Vec<T>]) -> Option<Vec<T>> {
    for _ in 0..2 {
        for qb in basis {
            let proj = firal_linalg::dot(qb, &q);
            firal_linalg::axpy(-proj, qb, &mut q);
        }
    }
    let norm = firal_linalg::nrm2(&q);
    (norm > T::EPSILON.sqrt()).then(|| {
        firal_linalg::scale(T::ONE / norm, &mut q);
        q
    })
}

/// Run `k` steps of Lanczos with full reorthogonalization from a random
/// start vector, returning the Ritz values of the tridiagonal section.
///
/// Full reorthogonalization costs `O(k²·dim)` but keeps the Ritz values
/// honest without ghost-eigenvalue filtering; for the `k ≪ d` regimes this
/// is negligible next to the `k` operator applications. When the Krylov
/// space is exhausted before `k` steps (an invariant subspace — e.g. a
/// rank-deficient operator), the iteration restarts from a fresh random
/// direction orthogonal to the basis with `β = 0`, so `k = dim` still
/// returns the whole spectrum, zeros included.
pub fn lanczos_spectrum<T: Scalar, R: Rng>(
    op: &dyn LinearOperator<T>,
    k: usize,
    rng: &mut R,
) -> LanczosResult<T> {
    let n = op.dim();
    let k = k.min(n).max(1);

    let mut basis: Vec<Vec<T>> = Vec::with_capacity(k);
    let mut alphas: Vec<T> = Vec::with_capacity(k);
    let mut betas: Vec<T> = Vec::with_capacity(k.saturating_sub(1));
    let mut w = vec![T::ZERO; n];

    // Random ±1 start vector.
    let start = (0..n)
        .map(|_| if rng.gen::<bool>() { T::ONE } else { -T::ONE })
        .collect();
    basis.push(orthonormalize(start, &[]).expect("non-empty operator"));
    for step in 0..k {
        op.apply(&basis[step], &mut w);
        let alpha = firal_linalg::dot(&basis[step], &w);
        alphas.push(alpha);
        // w ← w - α q_j - β q_{j-1}
        firal_linalg::axpy(-alpha, &basis[step], &mut w);
        if step > 0 {
            let beta_prev = betas[step - 1];
            firal_linalg::axpy(-beta_prev, &basis[step - 1], &mut w);
        }
        // Full reorthogonalization (twice is enough).
        for _ in 0..2 {
            for qb in &basis {
                let proj = firal_linalg::dot(qb, &w);
                firal_linalg::axpy(-proj, qb, &mut w);
            }
        }
        if step + 1 == k {
            break;
        }
        let beta = firal_linalg::nrm2(&w);
        let next = if beta > T::EPSILON.sqrt() {
            firal_linalg::scale(T::ONE / beta, &mut w);
            betas.push(beta);
            w.clone()
        } else {
            // Breakdown: restart in the orthogonal complement (β = 0
            // decouples the next block of the tridiagonal section) from a
            // uniform random vector — a ±1 one can be exactly orthogonal
            // to the complement's last direction.
            betas.push(T::ZERO);
            let fresh = (0..n)
                .map(|_| T::from_f64(rng.gen::<f64>() - 0.5))
                .collect();
            match orthonormalize(fresh, &basis) {
                Some(q) => q,
                None => break,
            }
        };
        basis.push(next);
    }

    // Eigenvalues of the tridiagonal section (tiny: k×k).
    let m = alphas.len();
    let mut tri = Matrix::<T>::zeros(m, m);
    for i in 0..m {
        tri[(i, i)] = alphas[i];
        if i + 1 < m {
            tri[(i, i + 1)] = betas[i];
            tri[(i + 1, i)] = betas[i];
        }
    }
    let ritz = eigvalsh(&tri).expect("tridiagonal eigensolve");
    LanczosResult {
        ritz_values: ritz,
        steps: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DenseOperator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = firal_linalg::gemm_a_bt(&b, &b);
        a.add_diag(0.5);
        a
    }

    #[test]
    fn full_lanczos_recovers_exact_spectrum() {
        let a = spd(10, 1);
        let exact = firal_linalg::eigvalsh(&a).unwrap();
        let op = DenseOperator::new(a);
        let mut rng = StdRng::seed_from_u64(2);
        let res = lanczos_spectrum(&op, 10, &mut rng);
        assert_eq!(res.steps, 10);
        for (r, e) in res.ritz_values.iter().zip(exact.iter()) {
            assert!((r - e).abs() < 1e-7, "{r} vs {e}");
        }
    }

    #[test]
    fn extremal_ritz_values_converge_first() {
        let a = spd(40, 3);
        let exact = firal_linalg::eigvalsh(&a).unwrap();
        let op = DenseOperator::new(a);
        let mut rng = StdRng::seed_from_u64(4);
        let res = lanczos_spectrum(&op, 12, &mut rng);
        let lmax_exact = *exact.last().unwrap();
        let lmax_ritz = *res.ritz_values.last().unwrap();
        assert!(
            (lmax_ritz - lmax_exact).abs() / lmax_exact < 0.01,
            "λ_max: ritz {lmax_ritz} vs exact {lmax_exact}"
        );
        // Ritz values interlace: all within the exact spectral range.
        let lmin_exact = exact[0];
        for &r in &res.ritz_values {
            assert!(r >= lmin_exact - 1e-8 && r <= lmax_exact + 1e-8);
        }
    }

    #[test]
    fn diagonal_matrix_spectrum() {
        let diag: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let a = Matrix::from_diag(&diag);
        let op = DenseOperator::new(a);
        let mut rng = StdRng::seed_from_u64(5);
        let res = lanczos_spectrum(&op, 8, &mut rng);
        for (r, e) in res.ritz_values.iter().zip(diag.iter()) {
            assert!((r - e).abs() < 1e-8, "{r} vs {e}");
        }
    }

    #[test]
    fn low_rank_operator_restarts_past_krylov_exhaustion() {
        // Rank-2 operator: the Krylov space exhausts after 3 steps from a
        // generic start vector; the restarts carry on to k = 12 and the
        // ten zero eigenvalues come back as Ritz values.
        let mut a = Matrix::<f64>::zeros(12, 12);
        a[(0, 0)] = 5.0;
        a[(1, 1)] = 2.0;
        let op = DenseOperator::new(a);
        let mut rng = StdRng::seed_from_u64(6);
        let res = lanczos_spectrum(&op, 12, &mut rng);
        assert_eq!(res.steps, 12);
        let mut expect = vec![0.0; 10];
        expect.extend([2.0, 5.0]);
        for (r, e) in res.ritz_values.iter().zip(&expect) {
            assert!((r - e).abs() < 1e-8, "{:?}", res.ritz_values);
        }
    }

    #[test]
    fn rank_deficient_spectrum_at_k_equal_dim_is_exact() {
        // diag(0.5, 1, 2, 3, 0, 0, 0, 0): stopping at the first breakdown
        // returned 5 Ritz values, which ROUND's density padding spread to
        // [0, 0, .5, .5, 1, 2, 2, 3].
        let a = Matrix::from_diag(&[0.5, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
        let op = DenseOperator::new(a);
        let res = lanczos_spectrum(&op, 8, &mut StdRng::seed_from_u64(9));
        let expect = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0];
        assert_eq!(res.ritz_values.len(), 8, "{:?}", res.ritz_values);
        for (r, e) in res.ritz_values.iter().zip(&expect) {
            assert!((r - e).abs() < 1e-10, "{:?}", res.ritz_values);
        }
    }

    #[test]
    fn nu_solve_from_ritz_matches_exact_spectrum() {
        // The downstream use: ν from Ritz values ≈ ν from the full
        // spectrum (the FTRL normalization of Algorithm 3 line 10).
        let a = spd(30, 7);
        let exact = firal_linalg::eigvalsh(&a).unwrap();
        let op = DenseOperator::new(a);
        let mut rng = StdRng::seed_from_u64(8);
        let ritz = lanczos_spectrum(&op, 15, &mut rng).ritz_values;
        // Pad the Ritz spectrum to full length by repeating interior values
        // proportionally (simple density surrogate).
        let mut padded = Vec::with_capacity(30);
        for i in 0..30 {
            let j = i * ritz.len() / 30;
            padded.push(ritz[j]);
        }
        let nu_exact = crate::bisection::solve_nu(&exact, 2.0);
        let nu_ritz = crate::bisection::solve_nu(&padded, 2.0);
        let rel = ((nu_exact - nu_ritz) / nu_exact).abs();
        // The piecewise-constant density surrogate is coarse at half the
        // Krylov budget — same order of magnitude is what the ROUND
        // backoff needs (exactness at k = dim is covered above).
        assert!(rel < 0.5, "ν mismatch: {nu_exact} vs {nu_ritz} ({rel})");
        assert!(
            nu_ritz > 0.0 || nu_ritz + 2.0 * exact[0] > 0.0,
            "A_t must stay PD"
        );
    }
}
