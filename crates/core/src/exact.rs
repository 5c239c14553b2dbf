//! Exact-FIRAL (Algorithm 1): dense RELAX + dense ROUND.
//!
//! This is the NeurIPS'23 baseline the paper accelerates. It materializes
//! `ê × ê` operators (`ê = d(c-1)`), computes exact per-point gradients
//! `g_i = -Tr(H_i Σ_z^{-1} H_p Σ_z^{-1})`, and runs the
//! follow-the-regularized-leader ROUND with full eigendecompositions —
//! `O(c²d² + nc²d)` storage and `O(c³(nd² + bd³ + bn))` compute (Table II).
//! Kept both as the accuracy oracle for Approx-FIRAL tests and as the
//! baseline for the Table VI timing comparison.
//!
//! Every dense `Σ` is `SigmaZ::to_dense`, as in the objective. RELAX forms
//! one `Σ`, factor and `Σ⁻¹H_p` per iterate, whose trace is the iterate's
//! objective; the next gradient reuses them.
//!
//! Both halves read a dense `ê × ê` matrix `M` through one pass of block
//! quadratic forms `x_iᵀ M_(l,k) x_i` (one GEMM per block pair, then row
//! dots): RELAX's gradient on `M = Σ⁻¹H_pΣ⁻¹`, and ROUND's per-candidate
//! Woodbury terms on `WPW` and `(PW)ᵀ(PW)`, so no candidate forms an
//! `ê`-sized product of its own.

use firal_linalg::{eigh, eigvalsh, gemm, gemm_at_b, spd_inv_sqrt, Cholesky, Matrix, Scalar};
use firal_solvers::solve_nu;

use crate::config::MirrorDescentConfig;
use crate::hessian::{gmat, PoolHessian};
use crate::objective::sigma_z;
use crate::problem::SelectionProblem;
use crate::procedure::{mirror_step, RelaxTelemetry};

/// `G_i^{1/2}` for one point: symmetric square root of `diag(h)-hhᵀ`.
fn g_half<T: Scalar>(h: &[T]) -> Matrix<T> {
    let g = gmat(h);
    let eig = eigh(&g).expect("G(h) eigendecomposition");
    eig.apply_fn(|x| x.maxv(T::ZERO).sqrt())
}

/// Block quadratic forms of a dense `ê × ê` matrix `M` at every row of
/// `x` (`n × d`, `ê = d·cm1`): `q[i, l·cm1 + k] = x_iᵀ M_(l,k) x_i`, one
/// GEMM per block pair followed by row dots.
fn block_quads<T: Scalar>(x: &Matrix<T>, m: &Matrix<T>, cm1: usize) -> Matrix<T> {
    let (n, d) = x.shape();
    let mut quads = Matrix::zeros(n, cm1 * cm1);
    for l in 0..cm1 {
        for k in 0..cm1 {
            let y = gemm(x, &m.block(l * d, k * d, d));
            for i in 0..n {
                let mut q = T::ZERO;
                for (a, bv) in y.row(i).iter().zip(x.row(i)) {
                    q += *a * *bv;
                }
                quads[(i, l * cm1 + k)] = q;
            }
        }
    }
    quads
}

/// Exact RELAX (Algorithm 1 lines 1–9). Returns `z⋄ = b·z` and telemetry.
pub fn exact_relax<T: Scalar>(
    problem: &SelectionProblem<T>,
    budget: usize,
    config: &MirrorDescentConfig<T>,
) -> (Vec<T>, RelaxTelemetry<T>) {
    let n = problem.pool_size();
    let cm1 = problem.nblocks();
    let b = T::from_usize(budget);

    let hp_dense = PoolHessian::unweighted(&problem.pool_x, &problem.pool_h).to_dense();
    let mut sigma = sigma_z(problem, vec![T::ZERO; n]);
    // Σ_z = H_o + H_{b·z}, its factor and Σ⁻¹H_p: z lives on the unit
    // simplex for the multiplicative update, but the gradient and objective
    // are taken at the feasible point ‖b·z‖₁ = b of the relaxation (Eq. 5).
    let mut factor = |z: &[T]| {
        sigma.hz.set_weights(z.iter().map(|&v| v * b));
        let ch = Cholesky::new(&sigma.to_dense()).expect("Σ_z must be SPD");
        let m1 = ch.solve_mat(&hp_dense);
        (ch, m1)
    };

    let mut z = vec![T::ONE / T::from_usize(n); n];
    let (mut ch, mut m1) = factor(&z);
    let mut telemetry = RelaxTelemetry::new();

    // The negated gradient −g_i, the direction the mirror step ascends.
    let mut neg_g = vec![T::ZERO; n];
    for t in 1..=config.max_iters {
        // M = Σ⁻¹(Σ⁻¹H_p)ᵀ = Σ⁻¹H_pΣ⁻¹ (dense).
        let m = ch.solve_mat_t(&m1);

        // g_i = -Σ_{k,l} G_i[k,l] · x_iᵀ M_{(l,k)} x_i.
        let quads = block_quads(&problem.pool_x, &m, cm1);
        for (i, ng) in neg_g.iter_mut().enumerate() {
            let gm = gmat(problem.pool_h.row(i));
            let mut acc = T::ZERO;
            for k in 0..cm1 {
                for l in 0..cm1 {
                    acc += gm[(k, l)] * quads[(i, l * cm1 + k)];
                }
            }
            *ng = acc;
        }

        // Entropic mirror-descent update over the whole (replicated) pool.
        mirror_step(&mut z, &neg_g, t, |v, _| v);

        // Track f(b·z) and apply the paper's relative-change stopping rule.
        (ch, m1) = factor(&z);
        if telemetry.record(t, m1.trace(), config.obj_rel_tol) {
            break;
        }
    }

    let z_diamond: Vec<T> = z.iter().map(|&v| v * b).collect();
    (z_diamond, telemetry)
}

/// Every candidate's ROUND objective `Tr[(B + η·U_iU_iᵀ)⁻¹]`, `U_i =
/// W·(G_i½ ⊗ x_i)`, by Woodbury: `Tr P − η·Tr[(I + η·S1)⁻¹S2]` with
/// `P = B⁻¹`, `S1 = U_iᵀPU_i = G_i½ᵀ·Q1_i·G_i½`, `S2 = U_iᵀP²U_i =
/// G_i½ᵀ·Q2_i·G_i½` and `Q1`, `Q2` the block forms of `WPW`, `(PW)ᵀ(PW)`.
/// A `taken` candidate scores `+∞`.
fn candidate_scores<T: Scalar>(
    problem: &SelectionProblem<T>,
    ghalves: &[Matrix<T>],
    w: &Matrix<T>,
    base: &Matrix<T>,
    eta: T,
    taken: &[bool],
) -> Vec<T> {
    let cm1 = problem.nblocks();
    let p = Cholesky::new(base).expect("B must be SPD").inverse();
    let tr_p = p.trace();
    let pw = gemm(&p, w);
    let q1 = block_quads(&problem.pool_x, &gemm(w, &pw), cm1);
    let q2 = block_quads(&problem.pool_x, &gemm_at_b(&pw, &pw), cm1);
    (0..problem.pool_size())
        .map(|i| {
            if taken[i] {
                return T::INFINITY;
            }
            // G½ᵀ·Q_i·G½, with Q_i row i of `q` as a (c-1) × (c-1) matrix.
            let gh = &ghalves[i];
            let qi = |q: &Matrix<T>| Matrix::from_vec(cm1, cm1, q.row(i).to_vec());
            let sandwich = |q| gemm_at_b(gh, &gemm(&qi(q), gh));
            let mut inner = sandwich(&q1);
            inner.scale_inplace(eta);
            inner.add_diag(T::ONE);
            inner.symmetrize();
            let correction = match Cholesky::new(&inner) {
                Ok(ch) => ch.solve_mat(&sandwich(&q2)).trace(),
                Err(_) => T::ZERO, // degenerate candidate contributes nothing
            };
            tr_p - eta * correction
        })
        .collect()
}

/// Exact ROUND (Algorithm 1 lines 10–19). Returns the `b` selected pool
/// indices (distinct, in selection order).
pub fn exact_round<T: Scalar>(
    problem: &SelectionProblem<T>,
    z_diamond: &[T],
    budget: usize,
    eta: T,
) -> Vec<usize> {
    let n = problem.pool_size();
    let ehat = problem.ehat();
    assert!(budget <= n, "cannot select more points than the pool holds");
    let binv = T::ONE / T::from_usize(budget);

    // Σ⋄ = H_o + H_{z⋄}; whitening W = Σ⋄^{-1/2} (Eq. 8).
    let sigma = sigma_z(problem, z_diamond.to_vec());
    let w = spd_inv_sqrt(&sigma.to_dense()).expect("Σ⋄ must be SPD");
    let ho_tilde = gemm(&gemm(&w, &sigma.ho.to_dense()), &w);

    // Per-point G_i^{1/2} factors (cheap, reused every round).
    let ghalves: Vec<Matrix<T>> = (0..n).map(|i| g_half(problem.pool_h.row(i))).collect();

    // A₁ = √ê·I; accumulated H̃ starts at zero.
    let mut a_t = Matrix::<T>::identity(ehat);
    a_t.scale_inplace(T::from_usize(ehat).sqrt());
    let mut h_acc = Matrix::<T>::zeros(ehat, ehat);

    let mut selected = Vec::with_capacity(budget);
    let mut taken = vec![false; n];

    for _t in 0..budget {
        // B = A_t + η/b·H̃_o; the first strict minimum of the scores wins.
        let mut base = a_t.clone();
        base.add_scaled(eta * binv, &ho_tilde);
        base.symmetrize();
        let scores = candidate_scores(problem, &ghalves, &w, &base, eta, &taken);
        let mut best = (T::INFINITY, usize::MAX);
        for (i, &r) in scores.iter().enumerate() {
            if r < best.0 {
                best = (r, i);
            }
        }
        let it = best.1;
        assert!(it != usize::MAX, "no candidate available in ROUND");
        taken[it] = true;
        selected.push(it);

        // H̃ ← H̃ + (1/b)H̃_o + H̃_{i_t}, with H̃_{i_t} = UUᵀ for the
        // ê × (c-1) factor U = W·(G½ ⊗ x).
        h_acc.add_scaled(binv, &ho_tilde);
        let xcol = Matrix::from_vec(problem.dim(), 1, problem.pool_x.row(it).to_vec());
        let ui = gemm(&w, &firal_linalg::kron(&ghalves[it], &xcol));
        h_acc.add_scaled(T::ONE, &firal_linalg::gemm_a_bt(&ui, &ui));
        h_acc.symmetrize();

        // ν_{t+1}: Σ_j (ν + ηλ_j)⁻² = 1 over the spectrum of H̃.
        let nu = solve_nu(&eigvalsh(&h_acc).expect("H̃ eigenvalues"), eta);
        // A_{t+1} = νI + ηH̃ (equals V(νI+Λ)Vᵀ).
        a_t = h_acc.clone();
        a_t.scale_inplace(eta);
        a_t.add_diag(nu);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hessian::dense_hessian;
    use crate::problem::tiny_problem;
    use firal_linalg::kron;

    /// `(d, c, n, b)` of the golden cases, each at seeds `0..8` and at
    /// `η = m·√ê` for every `m` in [`GOLDEN_ETAS`].
    const GOLDEN_SHAPES: [(usize, usize, usize, usize); 4] =
        [(1, 3, 30, 5), (3, 4, 40, 6), (3, 6, 60, 8), (20, 3, 60, 6)];
    const GOLDEN_ETAS: [f64; 3] = [0.5, 2.0, 8.0];

    /// `exact_round` selections recorded from the per-candidate
    /// `A·(G½ ⊗ x)` implementation this module's block-quadratic-form
    /// scoring replaced: one row per (shape, seed), one selection per η
    /// multiplier. f32 and f64 selected the same points in every case.
    #[rustfmt::skip]
    const GOLDEN: &[[&[usize]; 3]] = &[
        // (d, c, n, b) = (1, 3, 30, 5), seeds 0–7
        [&[5, 21, 23, 17, 26], &[5, 26, 21, 12, 17], &[5, 26, 21, 23, 17]],
        [&[26, 3, 5, 7, 13], &[26, 3, 5, 7, 13], &[26, 3, 5, 7, 13]],
        [&[29, 7, 21, 3, 11], &[29, 21, 7, 3, 6], &[29, 21, 7, 3, 6]],
        [&[12, 13, 5, 4, 6], &[12, 13, 5, 4, 6], &[12, 13, 5, 4, 6]],
        [&[16, 29, 26, 27, 21], &[16, 26, 29, 27, 21], &[16, 26, 29, 27, 21]],
        [&[1, 23, 19, 27, 7], &[1, 23, 27, 19, 7], &[1, 23, 27, 19, 7]],
        [&[18, 29, 1, 12, 3], &[18, 29, 1, 12, 3], &[18, 29, 1, 12, 3]],
        [&[1, 10, 26, 25, 11], &[1, 10, 26, 25, 11], &[1, 10, 26, 25, 11]],
        // (d, c, n, b) = (3, 4, 40, 6), seeds 0–7
        [&[39, 6, 30, 22, 36, 13], &[39, 13, 30, 24, 36, 6], &[39, 13, 19, 24, 20, 6]],
        [&[22, 8, 21, 16, 23, 27], &[22, 8, 21, 16, 24, 23], &[22, 8, 21, 16, 4, 31]],
        [&[4, 10, 33, 39, 21, 24], &[24, 10, 33, 39, 29, 16], &[24, 36, 21, 16, 12, 9]],
        [&[27, 32, 16, 7, 35, 8], &[27, 32, 35, 7, 16, 10], &[16, 32, 27, 8, 7, 35]],
        [&[36, 14, 28, 18, 34, 5], &[14, 36, 28, 18, 38, 5], &[14, 36, 28, 18, 15, 33]],
        [&[0, 28, 20, 35, 18, 27], &[28, 35, 20, 26, 18, 0], &[28, 35, 20, 26, 18, 21]],
        [&[13, 39, 30, 35, 38, 34], &[13, 39, 30, 24, 34, 38], &[13, 39, 30, 24, 34, 38]],
        [&[15, 17, 39, 0, 3, 30], &[15, 39, 17, 37, 0, 30], &[15, 37, 31, 0, 14, 32]],
        // (d, c, n, b) = (3, 6, 60, 8), seeds 0–7
        [&[56, 19, 8, 39, 20, 30, 15, 33], &[56, 19, 8, 39, 33, 58, 15, 30], &[56, 19, 8, 33, 39, 58, 15, 13]],
        [&[57, 59, 4, 43, 0, 21, 15, 16], &[57, 4, 59, 43, 22, 16, 15, 21], &[57, 4, 59, 22, 43, 16, 55, 15]],
        [&[42, 48, 51, 28, 7, 4, 27, 17], &[42, 28, 51, 48, 7, 4, 5, 17], &[28, 42, 51, 48, 4, 7, 5, 17]],
        [&[15, 1, 2, 39, 48, 27, 49, 14], &[15, 2, 1, 39, 49, 32, 48, 12], &[32, 48, 1, 2, 15, 39, 49, 22]],
        [&[41, 9, 58, 57, 46, 37, 38, 48], &[41, 9, 58, 57, 46, 37, 53, 0], &[41, 9, 58, 57, 46, 37, 53, 0]],
        [&[27, 29, 26, 32, 38, 28, 21, 3], &[29, 27, 26, 32, 38, 28, 21, 3], &[29, 27, 26, 32, 38, 28, 58, 7]],
        [&[11, 34, 44, 54, 37, 20, 57, 43], &[11, 44, 54, 34, 20, 37, 57, 43], &[37, 16, 34, 11, 54, 1, 57, 43]],
        [&[33, 51, 20, 19, 13, 25, 38, 57], &[33, 13, 51, 19, 20, 57, 2, 52], &[33, 51, 13, 53, 57, 1, 20, 52]],
        // (d, c, n, b) = (20, 3, 60, 6), seeds 0–7
        [&[31, 29, 6, 24, 43, 5], &[31, 6, 29, 24, 43, 45], &[17, 6, 45, 11, 47, 33]],
        [&[57, 25, 44, 50, 2, 55], &[57, 25, 50, 55, 2, 33], &[57, 25, 50, 55, 33, 2]],
        [&[48, 32, 57, 15, 3, 38], &[48, 32, 57, 52, 3, 38], &[32, 52, 50, 48, 0, 57]],
        [&[22, 49, 14, 6, 37, 26], &[22, 14, 35, 37, 55, 28], &[35, 37, 18, 28, 14, 17]],
        [&[51, 27, 31, 48, 49, 17], &[51, 27, 31, 48, 17, 24], &[51, 10, 11, 48, 17, 24]],
        [&[43, 31, 10, 53, 9, 16], &[31, 10, 23, 33, 4, 9], &[33, 20, 28, 23, 31, 9]],
        [&[52, 30, 4, 12, 26, 17], &[52, 30, 26, 11, 50, 22], &[26, 22, 11, 50, 52, 1]],
        [&[35, 33, 3, 26, 24, 48], &[35, 33, 3, 26, 24, 43], &[33, 35, 26, 43, 3, 29]],
    ];

    /// `tiny_problem(seed, n, d, c)` in precision `T`.
    fn tiny_in<T: Scalar>(seed: u64, n: usize, d: usize, c: usize) -> SelectionProblem<T> {
        let p = tiny_problem(seed, n, d, c);
        SelectionProblem::new(
            p.pool_x.cast(),
            p.pool_h.cast(),
            p.labeled_x.cast(),
            p.labeled_h.cast(),
            c,
        )
    }

    /// Four mirror-descent iterations: a non-uniform `z⋄` at a fraction of
    /// a converged RELAX's cost.
    fn short_relax<T: Scalar>(p: &SelectionProblem<T>, budget: usize) -> Vec<T> {
        let md = MirrorDescentConfig {
            max_iters: 4,
            obj_rel_tol: T::ZERO,
        };
        exact_relax(p, budget, &md).0
    }

    fn assert_golden<T: Scalar>(precision: &str) {
        let mut rows = GOLDEN.iter();
        for &(d, c, n, b) in &GOLDEN_SHAPES {
            for seed in 0..8 {
                let want = rows.next().expect("one golden row per (shape, seed)");
                let p = tiny_in::<T>(seed, n, d, c);
                let z = short_relax(&p, b);
                for (m, want) in GOLDEN_ETAS.iter().zip(want) {
                    let eta = T::from_f64(m * (p.ehat() as f64).sqrt());
                    let got = exact_round(&p, &z, b, eta);
                    assert_eq!(
                        &got[..],
                        *want,
                        "{precision} (d, c, n, b) = {:?}, seed {seed}, η = {m}·√ê",
                        (d, c, n, b)
                    );
                }
            }
        }
        assert!(rows.next().is_none(), "unused golden rows");
    }

    #[test]
    fn round_reproduces_golden_selections_f64() {
        assert_golden::<f64>("f64");
    }

    #[test]
    fn round_reproduces_golden_selections_f32() {
        assert_golden::<f32>("f32");
    }

    /// Algorithm 1 lines 10–19 in dense algebra: each candidate scores
    /// `Tr[(B + η·W H_i W)⁻¹]` from a dense inverse, with
    /// `H_i = G(h_i) ⊗ x_ix_iᵀ`, and `H̃`, `ν` and `A` follow the winner.
    /// At every pick `candidate_scores` on the same `B` must agree with
    /// the dense scores; returns the dense selection.
    fn dense_round_checking_scores(
        p: &SelectionProblem<f64>,
        z: &[f64],
        budget: usize,
        eta: f64,
    ) -> Vec<usize> {
        let n = p.pool_size();
        let ehat = p.ehat();
        let binv = 1.0 / budget as f64;
        let ho = PoolHessian::unweighted(&p.labeled_x, &p.labeled_h).to_dense();
        let mut sigma = ho.clone();
        sigma.add_scaled(
            1.0,
            &PoolHessian::weighted(&p.pool_x, &p.pool_h, z.to_vec()).to_dense(),
        );
        let w = spd_inv_sqrt(&sigma).unwrap();
        let whiten = |m: &Matrix<f64>| gemm(&gemm(&w, m), &w);
        let ho_tilde = whiten(&ho);
        let h_tilde: Vec<Matrix<f64>> = (0..n)
            .map(|i| whiten(&dense_hessian(p.pool_x.row(i), p.pool_h.row(i))))
            .collect();
        let ghalves: Vec<Matrix<f64>> = (0..n).map(|i| g_half(p.pool_h.row(i))).collect();

        let mut a_t = Matrix::<f64>::identity(ehat);
        a_t.scale_inplace((ehat as f64).sqrt());
        let mut h_acc = Matrix::<f64>::zeros(ehat, ehat);
        let mut taken = vec![false; n];
        let mut selected = Vec::new();
        for _ in 0..budget {
            let mut base = a_t.clone();
            base.add_scaled(eta * binv, &ho_tilde);
            base.symmetrize();
            let fast = candidate_scores(p, &ghalves, &w, &base, eta, &taken);
            let mut best = (f64::INFINITY, usize::MAX);
            for i in (0..n).filter(|&i| !taken[i]) {
                let mut m = base.clone();
                m.add_scaled(eta, &h_tilde[i]);
                m.symmetrize();
                let score = Cholesky::new(&m).unwrap().inverse().trace();
                let rel = (fast[i] - score).abs() / score.abs();
                assert!(rel < 1e-10, "candidate {i}: {} vs dense {score}", fast[i]);
                if score < best.0 {
                    best = (score, i);
                }
            }
            let it = best.1;
            taken[it] = true;
            selected.push(it);
            h_acc.add_scaled(binv, &ho_tilde);
            h_acc.add_scaled(1.0, &h_tilde[it]);
            h_acc.symmetrize();
            let nu = solve_nu(&eigvalsh(&h_acc).unwrap(), eta);
            a_t = h_acc.clone();
            a_t.scale_inplace(eta);
            a_t.add_diag(nu);
        }
        selected
    }

    #[test]
    fn round_matches_a_dense_algorithm_1_oracle() {
        for d in [1, 3] {
            for c in [2, 3, 4] {
                for seed in 0..2 {
                    let p = tiny_problem(seed, 30, d, c);
                    let b = 5;
                    let z = short_relax(&p, b);
                    let eta = 2.0 * (p.ehat() as f64).sqrt();
                    let dense = dense_round_checking_scores(&p, &z, b, eta);
                    assert_eq!(
                        exact_round(&p, &z, b, eta),
                        dense,
                        "d = {d}, c = {c}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn g_half_squares_to_g() {
        let h = [0.4, 0.3, 0.1];
        let root = g_half(&h);
        let sq = firal_linalg::gemm(&root, &root);
        let g = gmat(&h);
        for i in 0..3 {
            for j in 0..3 {
                assert!((sq[(i, j)] - g[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn low_rank_factor_reconstructs_hessian() {
        // U₀ = (G½ ⊗ x) must satisfy U₀U₀ᵀ = G ⊗ xxᵀ = H.
        let h = [0.3, 0.25, 0.15];
        let x = [0.5, -1.0];
        let gh = g_half(&h);
        let u0 = kron(&gh, &Matrix::from_vec(2, 1, x.to_vec()));
        let uut = firal_linalg::gemm_a_bt(&u0, &u0);
        let dense = dense_hessian(&x, &h);
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (uut[(i, j)] - dense[(i, j)]).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    uut[(i, j)],
                    dense[(i, j)]
                );
            }
        }
    }

    #[test]
    fn relax_objective_decreases() {
        let p = tiny_problem(1, 30, 3, 3);
        let (z, tel) = exact_relax(&p, 5, &MirrorDescentConfig::default());
        assert_eq!(z.len(), 30);
        // Weights are non-negative and sum to b.
        assert!(z.iter().all(|&v| v >= 0.0));
        let sum: f64 = z.iter().sum();
        assert!((sum - 5.0).abs() < 1e-9, "‖z⋄‖₁ = {sum}");
        // Objective history should show improvement overall.
        let first = tel.objective_history.first().unwrap();
        let last = tel.objective_history.last().unwrap();
        assert!(
            last <= first,
            "objective went up: {first} → {last} ({:?})",
            tel.objective_history
        );
    }

    /// The objective RELAX records for its last iterate is, bit for bit,
    /// `exact_objective` of the `z⋄` it returns: the one `Σ` per iterate
    /// is the iterate's own, not the one before it.
    #[test]
    fn relax_records_the_objective_of_the_weights_it_returns() {
        use crate::objective::exact_objective;
        let p = tiny_problem(4, 30, 3, 3);
        for t in 1..=4 {
            let md = MirrorDescentConfig {
                max_iters: t,
                obj_rel_tol: 0.0,
            };
            let (z, tel) = exact_relax(&p, 5, &md);
            assert_eq!(tel.objective_history.len(), t);
            let last = *tel.objective_history.last().unwrap();
            assert_eq!(
                last.to_bits(),
                exact_objective(&p, &z).to_bits(),
                "max_iters = {t}: recorded {last} vs {}",
                exact_objective(&p, &z)
            );
        }
    }

    #[test]
    fn round_selects_distinct_points() {
        let p = tiny_problem(2, 25, 3, 3);
        let (z, _) = exact_relax(&p, 4, &MirrorDescentConfig::default());
        let sel = exact_round(&p, &z, 4, 8.0 * (p.ehat() as f64).sqrt());
        assert_eq!(sel.len(), 4);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "duplicate selections: {sel:?}");
    }

    #[test]
    fn round_beats_random_on_fisher_objective() {
        // The whole point of FIRAL: its selection should have a lower
        // Fisher-information ratio than a random subset of the same size.
        use crate::objective::selection_objective;
        let p = tiny_problem(3, 40, 3, 3);
        let b = 5;
        let (z, _) = exact_relax(&p, b, &MirrorDescentConfig::default());
        let sel = exact_round(&p, &z, b, 8.0 * (p.ehat() as f64).sqrt());
        let f_firal = selection_objective(&p, &sel);
        // Average a few random selections.
        let mut f_random_sum = 0.0;
        let trials = 8;
        let mut state = 12345u64;
        for _ in 0..trials {
            let mut pick = Vec::new();
            while pick.len() < b {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (state >> 33) as usize % 40;
                if !pick.contains(&idx) {
                    pick.push(idx);
                }
            }
            f_random_sum += selection_objective(&p, &pick);
        }
        let f_random = f_random_sum / trials as f64;
        assert!(
            f_firal < f_random * 1.05,
            "FIRAL f = {f_firal} vs mean random f = {f_random}"
        );
    }
}
