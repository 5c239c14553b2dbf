//! Property-style tests for the paper's mathematical identities on seeded
//! randomized inputs (deterministic stand-in for the original proptest
//! suite, which needs crates.io):
//!
//! * Lemma 2 — the matrix-free matvec equals the dense `G⊗xxᵀ` action;
//! * Eq. 14 — the fused block-diagonal build equals Definition 1 applied
//!   to the dense operator;
//! * Lemma 3 — the per-block Sherman–Morrison inverse equals the dense
//!   block inverse after a rank-one `γ_k·xxᵀ` update;
//! * Prop. 4 — the Eq. 17 score is an affine transform of the block-diag
//!   trace objective (so their argext agree);
//! * ROUND in whitened coordinates — the rank-one-updated accumulator
//!   equals `L⁻¹(H)_kL⁻ᵀ` formed from scratch and the Eq. 17 scores through
//!   the Cholesky factor of `B` equal `w·y`, `y·y` from a dense `M⁻¹`
//!   (ridge-path `Σ⋄` blocks and `g = 0` picks included), the SPD back-off
//!   restarts cleanly, and the degenerate shapes (`d = 1`, `c = 2`,
//!   `budget ∈ {1, n}`, one-hot `h`, zeros in `z`, duplicated pool rows)
//!   yield well-formed batches;
//! * mirror descent preserves the simplex;
//! * Eq. 13 — the fused panel matvec equals the dense operator applied to
//!   the panel, at degenerate and ragged shapes, in both precisions.

use firal_comm::{CommScalar, SelfComm};
use firal_core::hessian::{dense_hessian, fast_matvec, PoolHessian};
use firal_core::round::{WhitenedFtrl, Whitening};
use firal_core::{Executor, SelectionProblem, ShardedProblem};
use firal_linalg::{BlockDiag, Cholesky, Matrix, Scalar};
use firal_solvers::LinearOperator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A valid `c-1` probability vector: positive entries with sum < 1.
fn random_probs(rng: &mut StdRng, cm1: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..cm1 + 1).map(|_| uniform(rng, 0.05, 1.0)).collect();
    let total: f64 = raw.iter().sum();
    raw[..cm1].iter().map(|v| v / total).collect()
}

fn random_point(rng: &mut StdRng, d: usize) -> Vec<f64> {
    (0..d).map(|_| uniform(rng, -1.5, 1.5)).collect()
}

#[test]
fn lemma2_fast_matvec_equals_dense() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + case);
        let x = random_point(&mut rng, 5);
        let h = random_probs(&mut rng, 3);
        let v: Vec<f64> = (0..15).map(|_| uniform(&mut rng, -1.0, 1.0)).collect();
        let fast = fast_matvec(&x, &h, &v);
        let dense = dense_hessian(&x, &h).matvec(&v);
        for (a, b) in fast.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-10, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn eq14_block_diagonal_matches_definition_1() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let n = 6;
        let mut xm = Matrix::zeros(n, 4);
        let mut hm = Matrix::zeros(n, 2);
        for i in 0..n {
            xm.row_mut(i).copy_from_slice(&random_point(&mut rng, 4));
            hm.row_mut(i).copy_from_slice(&random_probs(&mut rng, 2));
        }
        let z: Vec<f64> = (0..n).map(|_| uniform(&mut rng, 0.0, 2.0)).collect();
        let op = PoolHessian::weighted(&xm, &hm, z);
        let fused = op.block_diagonal();
        let dense_bd = BlockDiag::from_dense(&op.to_dense(), 2);
        for k in 0..2 {
            for p in 0..4 {
                for q in 0..4 {
                    assert!(
                        (fused.block(k)[(p, q)] - dense_bd.block(k)[(p, q)]).abs() < 1e-9,
                        "case {case}, block {k} ({p},{q})"
                    );
                }
            }
        }
    }
}

#[test]
fn lemma3_sherman_morrison_blockwise() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + case);
        let b0: Vec<f64> = (0..9).map(|_| uniform(&mut rng, -1.0, 1.0)).collect();
        let x = random_point(&mut rng, 3);
        let gammas: Vec<f64> = (0..2).map(|_| uniform(&mut rng, 0.01, 0.3)).collect();

        // A: block-diagonal SPD with 2 blocks of order 3.
        let mk_spd = |v: &[f64], shift: f64| {
            let b = Matrix::from_vec(3, 3, v.to_vec());
            let mut a = firal_linalg::gemm_a_bt(&b, &b);
            a.add_diag(3.0 + shift);
            a
        };
        let a = BlockDiag::from_blocks(vec![mk_spd(&b0, 0.0), mk_spd(&b0, 1.0)]);

        // Updated matrix: A + diag(γ) ⊗ xxᵀ.
        let mut updated = a.clone();
        updated.rank_one_update(&gammas, &x);

        // Lemma 3 block form vs dense inverse.
        let a_inv = a.inverse().unwrap();
        for k in 0..2 {
            let ak_inv = a_inv.block(k);
            let g = gammas[k];
            let ax = ak_inv.matvec(&x);
            let denom = 1.0 + g * firal_linalg::dot(&x, &ax);
            // Lemma 3: (A + γxxᵀ)⁻¹ = A⁻¹ - γ·A⁻¹xxᵀA⁻¹ / (1 + γxᵀA⁻¹x)
            let mut lemma = ak_inv.clone();
            for p in 0..3 {
                for q in 0..3 {
                    lemma[(p, q)] -= g * ax[p] * ax[q] / denom;
                }
            }
            let direct = Cholesky::new(updated.block(k)).unwrap().inverse();
            for p in 0..3 {
                for q in 0..3 {
                    assert!(
                        (lemma[(p, q)] - direct[(p, q)]).abs() < 1e-8,
                        "case {case}, block {k} ({p},{q}): {} vs {}",
                        lemma[(p, q)],
                        direct[(p, q)]
                    );
                }
            }
        }
    }
}

#[test]
fn mirror_descent_update_preserves_simplex() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + case);
        let z0: Vec<f64> = (0..12).map(|_| uniform(&mut rng, 0.01, 1.0)).collect();
        let g: Vec<f64> = (0..12).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
        // Normalize z0 to the simplex, apply the multiplicative update the
        // RELAX solvers use, and check the invariants.
        let total: f64 = z0.iter().sum();
        let mut z: Vec<f64> = z0.iter().map(|v| v / total).collect();
        let max_abs = g.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-30);
        let beta = 1.0 / max_abs;
        let mut sum = 0.0;
        for (zi, &gi) in z.iter_mut().zip(g.iter()) {
            *zi *= (beta * gi).exp();
            sum += *zi;
        }
        for zi in z.iter_mut() {
            *zi /= sum;
        }
        let new_total: f64 = z.iter().sum();
        assert!((new_total - 1.0).abs() < 1e-12, "case {case}");
        assert!(z.iter().all(|&v| v > 0.0 && v < 1.0 + 1e-12), "case {case}");
    }
}

/// Proposition 4: on a fixed random instance the Eq. 17 scores are an
/// affine transform of the exact block-diagonal trace objective, so the
/// induced rankings are identical. (Deterministic, but placed here with the
/// other algebraic identities.)
#[test]
fn proposition4_score_ordering_matches_trace_objective() {
    let ds = firal_data::SyntheticConfig::new(3, 4)
        .with_pool_size(15)
        .with_initial_per_class(2)
        .with_seed(10)
        .generate::<f64>();
    let model =
        firal_logreg::LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels)
            .unwrap();
    let problem = firal_core::SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        3,
    );
    // One ROUND pass on a tiny pool picks the same first point whether we
    // run Algorithm 3 (Eq. 17) or brute-force the t=1 trace objective.
    let n = problem.pool_size();
    let z = vec![2.0 / n as f64; n];
    let eta = 4.0 * (problem.ehat() as f64).sqrt();
    let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
    let algo = Executor::new(&comm, &shard).round(&z, 1, eta);

    // Brute force r_i = Tr[(B₁ + ηB(H_i))⁻¹ Σ⋄] over the block-diagonal
    // matrices.
    let bho = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h).block_diagonal();
    let mut sigma = PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z).block_diagonal();
    sigma.add_scaled(1.0, &bho);
    let cm1 = problem.nblocks();
    let mut b1 = sigma.clone();
    for k in 0..cm1 {
        b1.block_mut(k)
            .scale_inplace((problem.ehat() as f64).sqrt());
        b1.block_mut(k).add_scaled(eta / 1.0, bho.block(k));
    }
    let sigma_dense = sigma.to_dense();
    let mut best = (f64::INFINITY, usize::MAX);
    for i in 0..n {
        let hi = dense_hessian(problem.pool_x.row(i), problem.pool_h.row(i));
        let hi_bd = BlockDiag::from_dense(&hi, cm1).to_dense();
        let mut m = b1.to_dense();
        m.add_scaled(eta, &hi_bd);
        let r = Cholesky::new(&m).unwrap().solve_mat(&sigma_dense).trace();
        if r < best.0 {
            best = (r, i);
        }
    }
    assert_eq!(
        algo.selected[0], best.1,
        "Algorithm 3's Eq. 17 argmax disagrees with the brute-force argmin"
    );
}

/// `PoolHessian::apply_panel` against `to_dense()·V` computed in f64 from
/// the same (rounded) inputs. Tolerance: `tol · (1 + max|reference|)` with
/// `tol = 1e-10` in f64 and `1e-4` in f32 (sums of up to `n·d ≈ 10⁴`
/// products of O(1) terms at unit roundoff 1.1e-16 / 6e-8).
fn fused_panel_matches_dense<T: Scalar>(tol: f64) {
    // (n, d, c-1, s): n < 4, n % 4 ≠ 0, s = 1, an empty shard, several
    // sweep chunks, widths off every lane multiple.
    let shapes = [
        (0usize, 3usize, 2usize, 4usize),
        (1, 4, 3, 1),
        (3, 2, 1, 5),
        (7, 5, 4, 3),
        (30, 3, 2, 1),
        (301, 6, 3, 10),
        (600, 4, 2, 9),
    ];
    for (case, &(n, d, cm1, s)) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(600 + case as u64);
        let mut xm = Matrix::<f64>::zeros(n, d);
        let mut hm = Matrix::<f64>::zeros(n, cm1);
        for i in 0..n {
            xm.row_mut(i).copy_from_slice(&random_point(&mut rng, d));
            hm.row_mut(i).copy_from_slice(&random_probs(&mut rng, cm1));
        }
        // Every third weight is an exact zero.
        let z: Vec<f64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    uniform(&mut rng, 0.0, 2.0)
                }
            })
            .collect();
        let v = Matrix::from_fn(d * cm1, s, |_, _| uniform(&mut rng, -1.0, 1.0));

        let (xt, ht, vt): (Matrix<T>, Matrix<T>, Matrix<T>) = (xm.cast(), hm.cast(), v.cast());
        let zt: Vec<T> = z.iter().map(|&w| T::from_f64(w)).collect();
        let (xr, hr, vr): (Matrix<f64>, Matrix<f64>, Matrix<f64>) =
            (xt.cast(), ht.cast(), vt.cast());
        let zr: Vec<f64> = zt.iter().map(|w| w.to_f64()).collect();

        let operators = [
            (
                PoolHessian::unweighted(&xt, &ht),
                PoolHessian::unweighted(&xr, &hr),
            ),
            (
                PoolHessian::weighted(&xt, &ht, zt),
                PoolHessian::weighted(&xr, &hr, zr),
            ),
        ];
        for (fused, exact) in &operators {
            let got = fused.apply_panel(&vt);
            let want = firal_linalg::gemm(&exact.to_dense(), &vr);
            assert_eq!(got.shape(), want.shape());
            let bound = tol * (1.0 + want.max_abs());
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (g.to_f64() - w).abs() <= bound,
                    "n={n} d={d} c-1={cm1} s={s}: {g} vs {w} (bound {bound:e})"
                );
            }
        }
    }
}

#[test]
fn eq13_fused_panel_matvec_equals_dense_f64() {
    fused_panel_matches_dense::<f64>(1e-10);
}

#[test]
fn eq13_fused_panel_matvec_equals_dense_f32() {
    fused_panel_matches_dense::<f32>(1e-4);
}

/// A seeded selection problem in precision `T`. `one_hot_every`: every
/// that-many-th pool row gets an exact one-hot (or all-zero: the dropped
/// class) probability row, i.e. `g_ik = 0` in every block. `flat`: the last
/// feature coordinate is exactly zero everywhere, so every `(Σ⋄)_k` is
/// singular and takes the `1e-8` ridge factor.
fn round_problem<T: Scalar>(
    rng: &mut StdRng,
    (n, d, c): (usize, usize, usize),
    one_hot_every: usize,
    flat: bool,
) -> SelectionProblem<T> {
    let cm1 = c - 1;
    let m = 3 * d + c;
    let mut panel = |rows: usize| {
        let mut x = Matrix::<f64>::zeros(rows, d);
        let mut h = Matrix::<f64>::zeros(rows, cm1);
        for i in 0..rows {
            x.row_mut(i).copy_from_slice(&random_point(rng, d));
            h.row_mut(i).copy_from_slice(&random_probs(rng, cm1));
            if flat {
                x[(i, d - 1)] = 0.0;
            }
        }
        (x, h)
    };
    let (px, mut ph) = panel(n);
    let (lx, lh) = panel(m);
    for i in (0..n).step_by(one_hot_every) {
        ph.row_mut(i).fill(0.0);
        if i % c < cm1 {
            ph[(i, i % c)] = 1.0;
        }
    }
    SelectionProblem::new(px.cast(), ph.cast(), lx.cast(), lh.cast(), c)
}

/// `L⁻¹·A·L⁻ᵀ` for the factor `L` of `ch`, by `2d` triangular solves.
fn whiten<T: Scalar>(ch: &Cholesky<T>, a: &Matrix<T>) -> Matrix<T> {
    let d = a.rows();
    let mut half = Matrix::zeros(d, d);
    for j in 0..d {
        half.set_col(j, &ch.solve_l(&a.col(j)));
    }
    let mut out = Matrix::zeros(d, d);
    for j in 0..d {
        out.set_col(j, &ch.solve_l(half.row(j)));
    }
    out
}

/// A seeded ROUND instance: problem, `z⋄`, budget and η. Odd cases with
/// `d ≥ 2` are flat (every `(Σ⋄)_k` takes the ridge factor).
fn round_case<T: Scalar>(case: u64) -> (SelectionProblem<T>, Vec<T>, usize, T, bool) {
    let mut rng = StdRng::seed_from_u64(700 + case);
    let d = rng.gen_range(1..=6usize);
    let c = rng.gen_range(2..=5usize);
    let n = rng.gen_range(8..=30usize);
    let budget = rng.gen_range(1..=6usize);
    let flat = case % 2 == 1 && d >= 2;
    let problem = round_problem::<T>(&mut rng, (n, d, c), 4, flat);
    let z: Vec<T> = (0..n)
        .map(|_| T::from_f64(uniform(&mut rng, 0.0, 2.0 * budget as f64 / n as f64)))
        .collect();
    let eta = T::from_f64(uniform(&mut rng, 1.0, 16.0) * ((d * (c - 1)) as f64).sqrt());
    (problem, z, budget, eta, flat)
}

/// Drive [`WhitenedFtrl`] through `budget` picks exactly as
/// `Executor::round` does (minus the collectives). Before every pick the
/// Eq. 17 scores are compared with `Σ_k g·(y·y)/(1 + η·g·(w·y))` for
/// `w = L⁻¹x`, `y = M⁻¹w` and a dense inverse of
/// `M = νI + η·C_t + (η/b)·C_o` (`tol` relative to the largest score);
/// after it `C_t` with `L⁻¹(H)_kL⁻ᵀ` whitened afresh by triangular solves
/// (`tol` relative to `‖C‖_F`).
fn whitened_loop_matches_from_scratch<T: CommScalar>(tol: f64) {
    for case in 0..CASES {
        let (problem, z, budget, eta, flat) = round_case::<T>(case);
        let (n, d, cm1) = (problem.pool_size(), problem.dim(), problem.nblocks());
        let inv_b = T::ONE / T::from_usize(budget);

        let comm = SelfComm::new();
        let shard = ShardedProblem::replicate(&problem);
        let state = Executor::new(&comm, &shard).build_round_state(&z);
        assert_eq!(
            Cholesky::new(state.sigma().block(0)).is_err(),
            flat,
            "case {case}: the flat pool is what takes the ridge path"
        );
        let white = Whitening::new(&state, &problem.pool_x, &problem.pool_h);
        let mut ftrl = WhitenedFtrl::new(&white, budget, eta);

        let mut gik = Matrix::<T>::zeros(n, cm1);
        for i in 0..n {
            for k in 0..cm1 {
                let h = problem.pool_h[(i, k)];
                gik[(i, k)] = h * (T::ONE - h);
            }
        }
        let c_o: Vec<Matrix<T>> = (state.sigma_chol().iter().zip(state.bho().blocks()))
            .map(|(ch, ho)| whiten(ch, ho))
            .collect();
        let mut h_acc = BlockDiag::<T>::zeros(cm1, d);
        let mut scores = vec![T::ZERO; n];
        // Pick 0 is a one-hot row: the g = 0 branch of Line 8.
        for t in 0..budget {
            let i = (4 * t) % n;
            ftrl.scores(&mut scores);

            let mut want = vec![0.0f64; n];
            for (k, ch) in state.sigma_chol().iter().enumerate() {
                let mut m = ftrl.c_t().block(k).clone();
                m.scale_inplace(eta);
                m.add_scaled(eta * inv_b, &c_o[k]);
                m.add_diag(ftrl.nu());
                let m_inv = Cholesky::new(&m).expect("M is SPD").inverse();
                for (r, acc) in want.iter_mut().enumerate() {
                    let w = ch.solve_l(problem.pool_x.row(r));
                    let y = m_inv.matvec(&w);
                    let (q1, q2) = (firal_linalg::dot(&w, &y), firal_linalg::dot(&y, &y));
                    let g = gik[(r, k)];
                    *acc += (g * q2 / (T::ONE + eta * g * q1)).to_f64();
                }
            }
            let bound = tol * want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (r, (got, want)) in scores.iter().zip(&want).enumerate() {
                assert!(
                    (got.to_f64() - want).abs() <= bound,
                    "case {case} (d={d} c-1={cm1} b={budget} flat={flat}) pick {t} row {r}: \
                     score {got} vs {want} (bound {bound:e})"
                );
            }

            ftrl.pick(problem.pool_x.row(i), problem.pool_h.row(i));

            h_acc.add_scaled(inv_b, state.bho());
            h_acc.rank_one_update(gik.row(i), problem.pool_x.row(i));
            let mut lambdas = Vec::with_capacity(cm1 * d);
            for (k, ch) in state.sigma_chol().iter().enumerate() {
                let want = whiten(ch, h_acc.block(k));
                let got = ftrl.c_t().block(k);
                let bound = tol * want.fro_norm().to_f64();
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g.to_f64() - w.to_f64()).abs() <= bound,
                        "case {case} (d={d} c-1={cm1} b={budget} flat={flat}) pick {t} block {k}: \
                         {g} vs {w} (bound {bound:e})"
                    );
                }
                assert!(
                    got.as_slice() == got.transpose().as_slice(),
                    "case {case}: C_t must stay exactly symmetric"
                );
                lambdas.extend(firal_linalg::eigvalsh(got).unwrap());
            }
            ftrl.set_nu(firal_solvers::solve_nu(&lambdas, eta));
        }
    }
}

#[test]
fn whitened_accumulator_matches_from_scratch_f64() {
    whitened_loop_matches_from_scratch::<f64>(1e-10);
}

#[test]
fn whitened_accumulator_matches_from_scratch_f32() {
    whitened_loop_matches_from_scratch::<f32>(1e-4);
}

/// The SPD back-off of the scoring pass: a ν under which block 0 factors
/// and a later block does not must give, bit for bit, the scores and the
/// final ν of a loop that was handed the doubled ν to begin with — nothing
/// of the abandoned pass may survive the restart.
fn backoff_restarts_scoring_from_block_zero<T: CommScalar>() {
    let mut exercised = 0;
    for case in 0..CASES {
        let (problem, z, budget, eta, _) = round_case::<T>(case);
        let comm = SelfComm::new();
        let shard = ShardedProblem::replicate(&problem);
        let state = Executor::new(&comm, &shard).build_round_state(&z);
        let white = Whitening::new(&state, &problem.pool_x, &problem.pool_h);

        // At t = 1, M_k = νI + (η/b)·C_o,k: definite iff ν > -(η/b)·λ_min.
        let shift: Vec<f64> = (state.sigma_chol().iter().zip(state.bho().blocks()))
            .map(|(ch, ho)| {
                let lambda_min = firal_linalg::eigvalsh(&whiten(ch, ho)).unwrap()[0];
                (eta * lambda_min).to_f64() / budget as f64
            })
            .collect();
        let weakest_later = shift[1..].iter().copied().fold(f64::INFINITY, f64::min);
        if weakest_later >= 0.99 * shift[0] {
            continue;
        }
        exercised += 1;
        let nu = T::from_f64(-0.5 * (weakest_later + shift[0]));

        let n = problem.pool_size();
        let mut backed_off = WhitenedFtrl::new(&white, budget, eta);
        backed_off.set_nu(nu);
        let mut scores = vec![T::ZERO; n];
        backed_off.scores(&mut scores);
        let floor = T::from_usize(problem.ehat()).sqrt() * T::from_f64(1e-3);
        assert!(
            backed_off.nu() == floor * T::TWO,
            "case {case}: ν = {} after the back-off",
            backed_off.nu()
        );

        let mut direct = WhitenedFtrl::new(&white, budget, eta);
        direct.set_nu(backed_off.nu());
        let mut want = vec![T::ZERO; n];
        direct.scores(&mut want);
        assert!(direct.nu() == backed_off.nu(), "case {case}");
        assert!(
            scores == want,
            "case {case}: the abandoned pass leaked into the scores"
        );
    }
    assert!(
        exercised >= 6,
        "only {exercised} cases reached the back-off"
    );
}

#[test]
fn backoff_restarts_scoring_from_block_zero_f64() {
    backoff_restarts_scoring_from_block_zero::<f64>();
}

#[test]
fn backoff_restarts_scoring_from_block_zero_f32() {
    backoff_restarts_scoring_from_block_zero::<f32>();
}

/// Degenerate ROUND shapes through the public entry points: a batch is
/// `budget` distinct in-range indices. (A NaN score never wins the MAXLOC,
/// so a poisoned loop runs out of candidates and panics instead.) Each
/// shape also runs with exact zeros in `z` (every third point, the rest
/// reweighted to keep the sum at `budget`) and with a pool whose odd rows
/// duplicate the row before them, so every score ties with a twin.
fn round_edge_cases_are_well_formed<T: CommScalar>() {
    // (n, d, c, budget): d = 1, c = 2, budget = 1, budget = n, all three.
    let shapes = [
        (12usize, 1usize, 3usize, 4usize),
        (12, 3, 2, 4),
        (10, 3, 3, 1),
        (9, 2, 3, 9),
        (6, 1, 2, 6),
    ];
    for (case, &(n, d, c, budget)) in shapes.iter().enumerate() {
        for one_hot_every in [1usize, 3] {
            for input in ["uniform z", "zeros in z", "duplicated rows"] {
                let mut rng = StdRng::seed_from_u64(800 + case as u64);
                let mut problem = round_problem::<T>(&mut rng, (n, d, c), one_hot_every, false);
                let mut z = vec![T::from_f64(budget as f64 / n as f64); n];
                match input {
                    "zeros in z" => {
                        let kept = n - n.div_ceil(3);
                        for (i, zi) in z.iter_mut().enumerate() {
                            *zi = if i % 3 == 0 {
                                T::ZERO
                            } else {
                                T::from_f64(budget as f64 / kept as f64)
                            };
                        }
                    }
                    "duplicated rows" => {
                        for i in (1..n).step_by(2) {
                            let (x, h) = (
                                problem.pool_x.row(i - 1).to_vec(),
                                problem.pool_h.row(i - 1).to_vec(),
                            );
                            problem.pool_x.row_mut(i).copy_from_slice(&x);
                            problem.pool_h.row_mut(i).copy_from_slice(&h);
                        }
                    }
                    _ => {}
                }
                let eta = T::from_f64(8.0 * (problem.ehat() as f64).sqrt());
                let grid = [T::from_f64(1.0), T::from_f64(8.0)];
                let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
                let exec = Executor::new(&comm, &shard);
                let batches = [
                    exec.round(&z, budget, eta).selected,
                    exec.select_eta(&z, budget, &grid).selected,
                ];
                for sel in &batches {
                    let mut sorted = sel.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert!(
                        sel.len() == budget && sorted.len() == budget && sorted[budget - 1] < n,
                        "n={n} d={d} c={c} b={budget} one-hot every {one_hot_every}, {input}: {sel:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn round_edge_cases_are_well_formed_f64() {
    round_edge_cases_are_well_formed::<f64>();
}

#[test]
fn round_edge_cases_are_well_formed_f32() {
    round_edge_cases_are_well_formed::<f32>();
}
