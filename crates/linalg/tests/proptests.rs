//! Property-style tests for the dense kernels: factorizations reconstruct,
//! eigensolvers agree with the independent Jacobi oracle, GEMM variants are
//! mutually consistent, and block-diagonal operators match their dense
//! embeddings — on seeded randomized inputs across many cases (deterministic
//! stand-in for the original proptest suite, which needs crates.io).

use firal_linalg::{
    eigh, eigvalsh, gemm, gemm_a_bt, gemm_at_b, gram_weighted_multi, jacobi_eigh, BlockDiag,
    Cholesky, Matrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Random matrix with entries in [-1, 1].
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| uniform(rng, -1.0, 1.0))
}

/// Random SPD matrix A = BBᵀ + n·I.
fn random_spd(rng: &mut StdRng, n: usize) -> Matrix<f64> {
    let b = random_matrix(rng, n, n);
    let mut a = gemm_a_bt(&b, &b);
    a.add_diag(n as f64);
    a
}

#[test]
fn cholesky_reconstructs() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + case);
        let a = random_spd(&mut rng, 6);
        let ch = Cholesky::new(&a).unwrap();
        let r = gemm(ch.l(), &ch.l().transpose());
        for i in 0..6 {
            for j in 0..6 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn cholesky_solve_is_inverse_application() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let a = random_spd(&mut rng, 5);
        let rhs: Vec<f64> = (0..5).map(|_| uniform(&mut rng, -2.0, 2.0)).collect();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&rhs);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(rhs.iter()) {
            assert!((u - v).abs() < 1e-8, "case {case}: {u} vs {v}");
        }
    }
}

#[test]
fn eigh_reconstructs_and_matches_jacobi() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + case);
        let mut a = random_matrix(&mut rng, 5, 5);
        a.symmetrize();
        let e = eigh(&a).unwrap();
        // Reconstruction: V Λ Vᵀ = A
        let recon = e.apply_fn(|x| x);
        for i in 0..5 {
            for j in 0..5 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-8, "case {case}");
            }
        }
        // Independent oracle.
        let j = jacobi_eigh(&a).unwrap();
        for (u, v) in e.values.iter().zip(j.values.iter()) {
            assert!((u - v).abs() < 1e-8, "case {case}: QL {u} vs Jacobi {v}");
        }
    }
}

#[test]
fn eigvalsh_sum_is_trace() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + case);
        let mut a = random_matrix(&mut rng, 7, 7);
        a.symmetrize();
        let vals = eigvalsh(&a).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-8, "case {case}");
    }
}

#[test]
fn gemm_transpose_identities() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(500 + case);
        let a = random_matrix(&mut rng, 6, 4);
        let b = random_matrix(&mut rng, 6, 3);
        // AᵀB via reduction kernel == explicit transpose + gemm.
        let fast = gemm_at_b(&a, &b);
        let slow = gemm(&a.transpose(), &b);
        for i in 0..4 {
            for j in 0..3 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-10, "case {case}");
            }
        }
    }
}

#[test]
fn gemm_abt_identity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(600 + case);
        let a = random_matrix(&mut rng, 5, 4);
        let b = random_matrix(&mut rng, 6, 4);
        let fast = gemm_a_bt(&a, &b);
        let slow = gemm(&a, &b.transpose());
        for i in 0..5 {
            for j in 0..6 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-10, "case {case}");
            }
        }
    }
}

#[test]
fn gram_is_psd() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(700 + case);
        let x = random_matrix(&mut rng, 20, 4);
        let w: Vec<f64> = (0..20).map(|_| uniform(&mut rng, 0.0, 2.0)).collect();
        let g = gram_weighted_multi(&x, &Matrix::from_vec(20, 1, w)).remove(0);
        let vals = eigvalsh(&g).unwrap();
        assert!(vals[0] > -1e-10, "case {case}: min eig {}", vals[0]);
    }
}

#[test]
fn blockdiag_matvec_matches_dense() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(800 + case);
        let b0 = random_spd(&mut rng, 3);
        let b1 = random_spd(&mut rng, 3);
        let v: Vec<f64> = (0..6).map(|_| uniform(&mut rng, -1.0, 1.0)).collect();
        let bd = BlockDiag::from_blocks(vec![b0, b1]);
        let dense = bd.to_dense();
        let y1 = bd.matvec(&v);
        let y2 = dense.matvec(&v);
        for (u, w) in y1.iter().zip(y2.iter()) {
            assert!((u - w).abs() < 1e-10, "case {case}");
        }
    }
}

#[test]
fn blockdiag_inverse_is_inverse() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(900 + case);
        let b0 = random_spd(&mut rng, 4);
        let b1 = random_spd(&mut rng, 4);
        let bd = BlockDiag::from_blocks(vec![b0, b1]);
        let inv = bd.inverse().unwrap();
        let v: Vec<f64> = (0..8).map(|i| (i as f64 * 0.37).sin()).collect();
        let back = inv.matvec(&bd.matvec(&v));
        for (u, w) in back.iter().zip(v.iter()) {
            assert!((u - w).abs() < 1e-7, "case {case}: {u} vs {w}");
        }
    }
}
