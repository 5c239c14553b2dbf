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
//! The per-candidate ROUND objective uses the Woodbury identity on the
//! rank-`(c-1)` update `H̃_i = U_iU_iᵀ` instead of inverting an `ê × ê`
//! matrix per candidate, matching the complexity the paper reports for
//! Exact-FIRAL's ROUND.

use firal_linalg::{eigh, eigvalsh, spd_inv_sqrt, Cholesky, Matrix, Scalar};
use firal_solvers::solve_nu;

use crate::config::MirrorDescentConfig;
use crate::hessian::{gmat, PoolHessian};
use crate::objective::exact_objective;
use crate::problem::SelectionProblem;
use crate::procedure::{mirror_step, RelaxTelemetry};

/// `G_i^{1/2}` for one point: symmetric square root of `diag(h)-hhᵀ`.
fn g_half<T: Scalar>(h: &[T]) -> Matrix<T> {
    let g = gmat(h);
    let eig = eigh(&g).expect("G(h) eigendecomposition");
    eig.apply_fn(|x| x.maxv(T::ZERO).sqrt())
}

/// `A · (G^{1/2} ⊗ x)` without materializing the Kronecker factor:
/// `t_k = A[:, block k] · x`, column `l` = `Σ_k G½[k,l] t_k`.
fn kron_apply<T: Scalar>(a: &Matrix<T>, ghalf: &Matrix<T>, x: &[T]) -> Matrix<T> {
    let ehat = a.rows();
    let d = x.len();
    let c = ghalf.rows();
    debug_assert_eq!(a.cols(), d * c);
    // t_k = A[:, k·d..(k+1)·d] · x
    let mut t = Matrix::zeros(ehat, c);
    for row in 0..ehat {
        let arow = a.row(row);
        let trow = t.row_mut(row);
        for k in 0..c {
            let seg = &arow[k * d..(k + 1) * d];
            let mut acc = T::ZERO;
            for (av, &xv) in seg.iter().zip(x.iter()) {
                acc += *av * xv;
            }
            trow[k] = acc;
        }
    }
    firal_linalg::counters::add_flops(2 * ehat * d * c);
    // out[:, l] = Σ_k G½[k,l] t_k  →  out = t · G½ (G½ symmetric).
    firal_linalg::gemm(&t, ghalf)
}

/// Exact RELAX (Algorithm 1 lines 1–9). Returns `z⋄ = b·z` and telemetry.
pub fn exact_relax<T: Scalar>(
    problem: &SelectionProblem<T>,
    budget: usize,
    config: &MirrorDescentConfig<T>,
) -> (Vec<T>, RelaxTelemetry<T>) {
    let n = problem.pool_size();
    let d = problem.dim();
    let cm1 = problem.nblocks();
    let b = T::from_usize(budget);

    let ho_dense = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h).to_dense();
    let hp_dense = PoolHessian::unweighted(&problem.pool_x, &problem.pool_h).to_dense();

    let mut z = vec![T::ONE / T::from_usize(n); n];
    let mut telemetry = RelaxTelemetry::new();

    // The negated gradient −g_i, the direction the mirror step ascends.
    let mut neg_g = vec![T::ZERO; n];
    for t in 1..=config.max_iters {
        // Σ_z = H_o + H_{b·z}: z lives on the unit simplex for the
        // multiplicative update, but the gradient is evaluated at the
        // feasible point ‖b·z‖₁ = b of the relaxed problem (Eq. 5).
        let zb: Vec<T> = z.iter().map(|&v| v * b).collect();
        let hz = PoolHessian::weighted(&problem.pool_x, &problem.pool_h, zb).to_dense();
        let mut sigma = ho_dense.clone();
        sigma.add_scaled(T::ONE, &hz);
        let ch = Cholesky::new(&sigma).expect("Σ_z must be SPD");

        // M = Σ⁻¹ H_p Σ⁻¹ (dense).
        let m1 = ch.solve_mat(&hp_dense); // Σ⁻¹H_p
        let m = ch.solve_mat_t(&m1); // Σ⁻¹(Σ⁻¹H_p)ᵀ = Σ⁻¹H_pΣ⁻¹

        // g_i = -Σ_{k,l} G_i[k,l] · x_iᵀ M_{(l,k)} x_i, batched per block.
        let mut quads = Matrix::zeros(n, cm1 * cm1);
        for l in 0..cm1 {
            for k in 0..cm1 {
                let mlk = m.block(l * d, k * d, d);
                let y = firal_linalg::gemm(&problem.pool_x, &mlk);
                for i in 0..n {
                    let mut q = T::ZERO;
                    for (a, bv) in y.row(i).iter().zip(problem.pool_x.row(i)) {
                        q += *a * *bv;
                    }
                    quads[(i, l * cm1 + k)] = q;
                }
            }
        }
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
        let scaled: Vec<T> = z.iter().map(|&v| v * b).collect();
        if telemetry.record(t, exact_objective(problem, &scaled), config.obj_rel_tol) {
            break;
        }
    }

    let z_diamond: Vec<T> = z.iter().map(|&v| v * b).collect();
    (z_diamond, telemetry)
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
    let d = problem.dim();
    let cm1 = problem.nblocks();
    let ehat = problem.ehat();
    assert!(budget <= n, "cannot select more points than the pool holds");
    let binv = T::ONE / T::from_usize(budget);

    // Σ⋄ = H_o + H_{z⋄}; whitening W = Σ⋄^{-1/2} (Eq. 8).
    let ho_dense = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h).to_dense();
    let mut sigma = ho_dense.clone();
    sigma.add_scaled(
        T::ONE,
        &PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z_diamond.to_vec()).to_dense(),
    );
    let w = spd_inv_sqrt(&sigma).expect("Σ⋄ must be SPD");
    let ho_tilde = firal_linalg::gemm(&firal_linalg::gemm(&w, &ho_dense), &w);

    // Per-point G_i^{1/2} factors (cheap, reused every round).
    let ghalves: Vec<Matrix<T>> = (0..n).map(|i| g_half(problem.pool_h.row(i))).collect();

    // A₁ = √ê·I; accumulated H̃ starts at zero.
    let mut a_t = Matrix::<T>::identity(ehat);
    a_t.scale_inplace(T::from_usize(ehat).sqrt());
    let mut h_acc = Matrix::<T>::zeros(ehat, ehat);

    let mut selected = Vec::with_capacity(budget);
    let mut taken = vec![false; n];

    for _t in 0..budget {
        // P = (A_t + η/b·H̃_o)⁻¹.
        let mut base = a_t.clone();
        base.add_scaled(eta * binv, &ho_tilde);
        base.symmetrize();
        let p = Cholesky::new(&base)
            .expect("FTRL base matrix must be SPD")
            .inverse();
        let pw = firal_linalg::gemm(&p, &w);
        let wpw = firal_linalg::gemm(&w, &pw);
        let tr_p = p.trace();

        // Score every unselected candidate via Woodbury on H̃_i = U_iU_iᵀ.
        let mut best = (T::INFINITY, usize::MAX);
        for i in 0..n {
            if taken[i] {
                continue;
            }
            let xi = problem.pool_x.row(i);
            // With U_i = W·(G½⊗x): P·U_i = (P·W)(G½⊗x), and
            // U_iᵀP U_i = (G½⊗x)ᵀ(W·P·W)(G½⊗x).
            let pu = kron_apply(&pw, &ghalves[i], xi);
            let wpwu = kron_apply(&wpw, &ghalves[i], xi);
            // S1[k,l] = (G½⊗x)ᵀ_col k · wpwu_col l
            let mut s1 = Matrix::zeros(cm1, cm1);
            let mut s2 = Matrix::zeros(cm1, cm1);
            for kk in 0..cm1 {
                for ll in 0..cm1 {
                    // column kk of (G½⊗x): block m = G½[m,kk]·x
                    let mut acc1 = T::ZERO;
                    for mm in 0..cm1 {
                        let coeff = ghalves[i][(mm, kk)];
                        if coeff == T::ZERO {
                            continue;
                        }
                        let seg = (mm * d)..((mm + 1) * d);
                        let mut dotv = T::ZERO;
                        for (row, &xv) in seg.clone().zip(xi.iter()) {
                            dotv += wpwu[(row, ll)] * xv;
                        }
                        acc1 += coeff * dotv;
                    }
                    s1[(kk, ll)] = acc1;
                    let mut acc2 = T::ZERO;
                    for row in 0..ehat {
                        acc2 += pu[(row, kk)] * pu[(row, ll)];
                    }
                    s2[(kk, ll)] = acc2;
                }
            }
            // r_i = Tr(P) - η·Tr[(I + η·S1)⁻¹ S2]
            let mut inner = s1.clone();
            inner.scale_inplace(eta);
            inner.add_diag(T::ONE);
            inner.symmetrize();
            let correction = match Cholesky::new(&inner) {
                Ok(ch) => ch.solve_mat(&s2).trace(),
                Err(_) => T::ZERO, // degenerate candidate contributes nothing
            };
            let r = tr_p - eta * correction;
            if r < best.0 {
                best = (r, i);
            }
        }
        let it = best.1;
        assert!(it != usize::MAX, "no candidate available in ROUND");
        taken[it] = true;
        selected.push(it);

        // H̃ ← H̃ + (1/b)H̃_o + H̃_{i_t}
        h_acc.add_scaled(binv, &ho_tilde);
        let ui = kron_apply(&w, &ghalves[it], problem.pool_x.row(it));
        // U is ê × (c-1), so U·Uᵀ is gemm_a_bt over its ê rows.
        let hi_tilde = firal_linalg::gemm_a_bt(&ui, &ui);
        h_acc.add_scaled(T::ONE, &hi_tilde);
        h_acc.symmetrize();

        // ν_{t+1}: Σ_j (ν + ηλ_j)⁻² = 1 over the spectrum of H̃.
        let lambdas = eigvalsh(&h_acc).expect("H̃ eigenvalues");
        let nu = solve_nu(&lambdas, eta);
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
    fn kron_apply_matches_dense_kronecker() {
        let h = [0.5, 0.2];
        let gh = g_half(&h);
        let x = [1.0, -2.0, 0.5];
        let a = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let fast = kron_apply(&a, &gh, &x);
        // Dense: A · (G½ ⊗ x)
        let mut kron_mat = Matrix::zeros(6, 2);
        for l in 0..2 {
            for k in 0..2 {
                for p in 0..3 {
                    kron_mat[(k * 3 + p, l)] = gh[(k, l)] * x[p];
                }
            }
        }
        let slow = firal_linalg::gemm(&a, &kron_mat);
        for i in 0..6 {
            for j in 0..2 {
                assert!((fast[(i, j)] - slow[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn low_rank_factor_reconstructs_hessian() {
        // U₀ = (G½ ⊗ x) must satisfy U₀U₀ᵀ = G ⊗ xxᵀ = H.
        let h = [0.3, 0.25, 0.15];
        let x = [0.5, -1.0];
        let gh = g_half(&h);
        let identity = Matrix::<f64>::identity(6);
        let u0 = kron_apply(&identity, &gh, &x);
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
