//! Rademacher probes for Hutchinson randomized trace estimation.
//!
//! Eq. 12 of the paper: `g_i ≈ -(1/s) Σ_j v_jᵀ H_i (Σ_z⁻¹ H_p Σ_z⁻¹ v_j)`
//! with `v_j ∈ {±1}^ê`. This module provides the probe panel; the RELAX
//! solver assembles the estimate on top.

use firal_linalg::{Matrix, Scalar};
use rand::Rng;

/// An `dim × s` panel of Rademacher probes (Line 4 of Algorithm 2).
pub fn rademacher_panel<T: Scalar, R: Rng>(dim: usize, s: usize, rng: &mut R) -> Matrix<T> {
    let mut m = Matrix::zeros(dim, s);
    for i in 0..dim {
        let row = m.row_mut(i);
        for v in row.iter_mut() {
            *v = if rng.gen::<bool>() { T::ONE } else { -T::ONE };
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probes_are_plus_minus_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let v: Matrix<f64> = rademacher_panel(1000, 1, &mut rng);
        assert!(v.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
        // Roughly balanced.
        let sum: f64 = v.as_slice().iter().sum();
        assert!(sum.abs() < 150.0, "suspiciously unbalanced: {sum}");
    }

    #[test]
    fn panel_shape_and_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let p: Matrix<f32> = rademacher_panel(8, 3, &mut rng);
        assert_eq!(p.shape(), (8, 3));
        assert!(p.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let p1: Matrix<f32> = rademacher_panel(6, 4, &mut StdRng::seed_from_u64(9));
        let p2: Matrix<f32> = rademacher_panel(6, 4, &mut StdRng::seed_from_u64(9));
        assert_eq!(p1.as_slice(), p2.as_slice());
    }
}
