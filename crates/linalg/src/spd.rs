//! Helpers for symmetric positive-definite matrices: inverse, inverse
//! square root, condition number.
//!
//! Exact-FIRAL's whitening transform (Eq. 8, `H̃ = Σ_⋄^{-1/2} H Σ_⋄^{-1/2}`)
//! needs the SPD inverse square root; the preconditioner study around Fig. 1
//! needs condition numbers.

use crate::cholesky::Cholesky;
use crate::eigen::eigh;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::Result;

/// `A^{-1}` for SPD `A`, via Cholesky.
pub fn spd_inverse<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    Ok(Cholesky::new(a)?.inverse())
}

/// Symmetric inverse square root `A^{-1/2}` via eigendecomposition
/// (the Eq. 8 whitening factor). Eigenvalues are floored at
/// `ε·λ_max` to keep the transform bounded on nearly singular inputs.
pub fn spd_inv_sqrt<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let eig = eigh(a)?;
    let lmax = eig
        .values
        .iter()
        .fold(T::ZERO, |acc, &v| acc.maxv(v.abs()))
        .maxv(T::MIN_POSITIVE);
    let floor = T::EPSILON * lmax;
    Ok(eig.apply_fn(|x| T::ONE / x.maxv(floor).sqrt()))
}

/// 2-norm condition number `λ_max / λ_min` of an SPD matrix (used to report
/// the preconditioner quality numbers quoted in §III-A: "the condition
/// number of Σ_z is 198, while the condition number of B(Σ_z)^{-1}Σ_z is 72").
pub fn spd_condition_number<T: Scalar>(a: &Matrix<T>) -> Result<T> {
    let vals = crate::eigen::eigvalsh(a)?;
    let lmin = vals.first().copied().unwrap_or(T::ONE);
    let lmax = vals.last().copied().unwrap_or(T::ONE);
    Ok(lmax / lmin.maxv(T::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, gemm_a_bt};

    fn spd_test_matrix(n: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = gemm_a_bt(&b, &b);
        a.add_diag(n as f64 * 0.5);
        a
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd_test_matrix(6, 1);
        let inv = spd_inverse(&a).unwrap();
        let p = gemm(&a, &inv);
        for i in 0..6 {
            for j in 0..6 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((p[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn inv_sqrt_whitens() {
        let a = spd_test_matrix(5, 3);
        let w = spd_inv_sqrt(&a).unwrap();
        // W A W = I
        let p = gemm(&gemm(&w, &a), &w);
        for i in 0..5 {
            for j in 0..5 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((p[(i, j)] - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let a = Matrix::<f64>::identity(4);
        assert!((spd_condition_number(&a).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn condition_number_of_diag() {
        let a = Matrix::from_diag(&[1.0, 10.0, 100.0]);
        assert!((spd_condition_number(&a).unwrap() - 100.0).abs() < 1e-8);
    }
}
