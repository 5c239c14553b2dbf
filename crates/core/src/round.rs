//! Diagonal ROUND solver (Algorithm 3) — the replicated FTRL state.
//!
//! The FTRL iteration itself is implemented **once**, communicator-
//! generically, in [`crate::exec::Executor::round`]. This module keeps what
//! every rank count shares: the state the loop carries and the
//! `O(cd²)`–`O(ncd²)` arithmetic on it, none of which communicates.
//!
//! # Whitened coordinates
//!
//! Every matrix Algorithm 3 touches is, per block `k`, a combination of
//! `(Σ⋄)_k`, `(H_o)_k` and the accumulated `(H)_k`. With the cached factor
//! `(Σ⋄)_k = L_kL_kᵀ` the loop runs on `C = L_k⁻¹ · L_k⁻ᵀ` instead, where
//! `(Σ⋄)_k` is the identity:
//!
//! * once per sweep, shared by the whole η grid ([`Whitening`]): the
//!   lower-triangular `L_k⁻¹`, `C_o,k = L_k⁻¹(H_o)_kL_k⁻ᵀ`, and from the
//!   pool shard its transpose `Xᵀ` and its `g_ik` panel, which the Eq. 17
//!   sweep reads;
//! * **Line 8** is `C_t,k += (1/b)·C_o,k + g·uuᵀ` with `u = L_k⁻¹x_{i_t}` —
//!   `O(d²)`, where whitening `(H)_k` afresh costs `2d` triangular solves;
//! * **Line 9** is the spectrum of `C_t,k` as is, [`Scalar::BLOCK_LANES`]
//!   blocks at a time ([`firal_linalg::eigvalsh_blocks`], one SIMD lane
//!   per block, bitwise the one-block solve);
//! * **Lines 4/11**: `B = L_kM_kL_kᵀ` with
//!   `M_k = νI + η·C_t,k + (η/b)·C_o,k` is never formed or inverted. Line
//!   11 only records `ν`; the next scoring pass factors `M_k = N_kN_kᵀ`,
//!   which fails only when `ν + ηλ_min ≤ 0` — never through the
//!   conditioning of `(Σ⋄)_k`;
//! * **Eq. 17**: `R_k = L_kN_k` is lower triangular with `B = R_kR_kᵀ` —
//!   `B`'s own Cholesky factor — so `x_iᵀB⁻¹x_i = ‖R_k⁻¹x_i‖²` and
//!   `x_iᵀB⁻¹(Σ⋄)_kB⁻¹x_i = ‖N_k⁻ᵀR_k⁻¹x_i‖²`: two triangular pool products
//!   in one fused sweep ([`firal_linalg::QuadSweep`]) that folds each row
//!   block straight into the scores (note: the published Eq. 17 prints
//!   `(Σ⋄)_k^{-1}` in the numerator; the derivation in Eqs. 18–20 shows the
//!   factor is `(Σ⋄)_k` — we implement the derived form and cross-check it
//!   against the dense trace objective in tests).
//!
//! [`WhitenedFtrl`] holds `C_t`; with the two prologue sets that is three
//! `cd²` working sets. Per block and pick the scoring pass spends `d³`
//! flops next to the pool products (factor `M_k`, `N_k⁻¹`,
//! `R_k⁻¹ = N_k⁻¹L_k⁻¹`, a third each), [`Scalar::BLOCK_LANES`] blocks in
//! lockstep ([`firal_linalg::QuadSweep::factor_group`]) in one `3d²`-per-lane
//! scratch.
//!
//! Storage is `O(n(d+c) + cd²)` and compute `O(bncd²)` (Table II).

use firal_linalg::{counters, gemm, gemm_at_b, invert_lower, BlockDiag, Matrix, QuadSweep, Scalar};

use crate::exec::RoundState;
use crate::hessian::fisher_g;

/// The η-independent whitening prologue of a ROUND sweep: per block the
/// lower-triangular `L_k⁻¹` of `(Σ⋄)_k = L_kL_kᵀ` and
/// `C_o,k = L_k⁻¹(H_o)_kL_k⁻ᵀ` (exactly symmetric), plus what the pool shard
/// contributes: `Xᵀ` (`d × n`), the layout [`QuadSweep::accumulate`] reads,
/// and the `g_ik = h_ik(1−h_ik)` panel (`n × (c−1)`). Derived once from a
/// [`RoundState`] and the shard, and shared by every η of a grid sweep.
pub struct Whitening<T: Scalar> {
    l_inv: BlockDiag<T>,
    c_o: BlockDiag<T>,
    pool_xt: Matrix<T>,
    gik: Matrix<T>,
}

impl<T: Scalar> Whitening<T> {
    /// Derive the prologue from the state's `Σ⋄` factors and `B(H_o)`,
    /// transpose the pool shard's `pool_x` and form `g_ik` from its row-aligned
    /// `pool_h` (both copies are booked to the byte counter).
    pub fn new(state: &RoundState<T>, pool_x: &Matrix<T>, pool_h: &Matrix<T>) -> Self {
        let bho = state.bho();
        let (cm1, d) = (bho.nblocks(), bho.dim());
        assert_eq!(
            pool_h.shape(),
            (pool_x.rows(), cm1),
            "Whitening: one row of c-1 probabilities per pool row"
        );
        let mut l_inv = BlockDiag::zeros(cm1, d);
        let mut c_o = BlockDiag::zeros(cm1, d);
        for (k, ch) in state.sigma_chol().iter().enumerate() {
            let li = l_inv.block_mut(k);
            invert_lower(ch.l().as_slice(), d, li.as_mut_slice(), d, d);
            let lit = li.transpose();
            let co = c_o.block_mut(k);
            *co = gemm_at_b(&lit, &gemm(bho.block(k), &lit));
            co.symmetrize();
        }
        let pool_xt = pool_x.transpose();
        let elem = std::mem::size_of::<T>();
        counters::add_bytes(counters::pack_panel_bytes(d, pool_x.rows(), elem));
        let mut gik = Matrix::zeros(pool_h.rows(), cm1);
        for (g, &h) in gik.as_mut_slice().iter_mut().zip(pool_h.as_slice()) {
            *g = fisher_g(h);
        }
        Self {
            l_inv,
            c_o,
            pool_xt,
            gik,
        }
    }
}

/// The replicated FTRL state of Algorithm 3 for one η, in the coordinates
/// of a [`Whitening`] (see the module docs): the accumulator `C_t`, the
/// regularizer weight `ν`, and the scratch of the scoring pass.
pub struct WhitenedFtrl<'a, T: Scalar> {
    white: &'a Whitening<T>,
    eta: T,
    inv_budget: T,
    nu: T,
    c_t: BlockDiag<T>,
    /// `u = L_k⁻¹x` of [`WhitenedFtrl::pick`].
    u: Vec<T>,
    quad: QuadSweep<T>,
}

impl<'a, T: Scalar> WhitenedFtrl<'a, T> {
    /// Lines 4–5: `(H)_k ← 0` and `B₁ = √ê·Σ⋄ + (η/b)·H_o`, i.e.
    /// `M = √ê·I + (η/b)·C_o`.
    pub fn new(white: &'a Whitening<T>, budget: usize, eta: T) -> Self {
        let (cm1, d) = (white.c_o.nblocks(), white.c_o.dim());
        Self {
            white,
            eta,
            inv_budget: T::ONE / T::from_usize(budget),
            nu: T::from_usize(cm1 * d).sqrt(),
            c_t: BlockDiag::zeros(cm1, d),
            u: vec![T::ZERO; d],
            quad: QuadSweep::new(d),
        }
    }

    /// The whitened accumulator `C_t,k = L_k⁻¹(H)_kL_k⁻ᵀ` (exactly
    /// symmetric) — the Line-9 eigenproblem's operand.
    pub fn c_t(&self) -> &BlockDiag<T> {
        &self.c_t
    }

    /// The regularizer weight in effect: what [`WhitenedFtrl::set_nu`]
    /// recorded, grown by whatever back-off the scoring passes since needed.
    pub fn nu(&self) -> T {
        self.nu
    }

    /// Lines 4/11: `B = ν·Σ⋄ + η·(H) + (η/b)·H_o`. Only `ν` is recorded —
    /// the next [`WhitenedFtrl::scores`] factors `B` block by block.
    pub fn set_nu(&mut self, nu: T) {
        self.nu = nu;
    }

    /// Per-candidate scores for one ROUND iteration (Eq. 17, derived form):
    /// `score_i = Σ_k g_ik · x_iᵀ B_k⁻¹ (Σ⋄)_k B_k⁻¹ x_i / (1 + η g_ik x_iᵀ B_k⁻¹ x_i)`
    /// with `g_ik = h_ik(1-h_ik)`, through the Cholesky factor of each
    /// `B_k` (module docs), for every point of the pool shard the
    /// [`Whitening`] was built with — the kernel is purely local. `scores`
    /// is overwritten.
    ///
    /// In f32, ν can come out too small for
    /// `M_k = νI + η·C_t,k + (η/b)·C_o,k` to be positive definite; back off
    /// by growing ν geometrically and scoring again from block 0: a
    /// conservative FTRL regularizer is always admissible.
    pub fn scores(&mut self, scores: &mut [T]) {
        let floor = T::from_usize(self.c_t.order()).sqrt() * T::from_f64(1e-3);
        let nu = self.nu;
        for _attempt in 0..60 {
            if self.try_scores(scores) {
                return;
            }
            // Clamp to the floor, then keep doubling: the growth must
            // engage even when the bisection result was at/below the
            // floor, or the retry loop would spin on one value.
            self.nu = self.nu.maxv(floor) * T::TWO;
        }
        panic!("B_{{t+1}} never became SPD (η = {}, ν = {nu})", self.eta);
    }

    /// One scoring pass at the current ν; `false` as soon as some `M_k`
    /// fails to factor (`scores` is then partial and must be recomputed).
    /// The `M_k` factor in groups of [`Scalar::BLOCK_LANES`], one block per
    /// lane; a group is swept, each row taking its blocks' terms `k`
    /// ascending, only once all of it has factored.
    fn try_scores(&mut self, scores: &mut [T]) -> bool {
        let (gik, pool_xt) = (&self.white.gik, &self.white.pool_xt);
        let (eta, nu) = (self.eta, self.nu);
        let eta_over_b = eta * self.inv_budget;
        let (c_t, c_o, l_inv) = (&self.c_t, &self.white.c_o, self.white.l_inv.blocks());
        scores.fill(T::ZERO);
        for k0 in (0..c_t.nblocks()).step_by(T::BLOCK_LANES) {
            let ks = k0..(k0 + T::BLOCK_LANES).min(c_t.nblocks());
            let m_row = |lane: usize, i: usize, row: &mut [T]| {
                let (ct, co) = (c_t.block(k0 + lane).row(i), c_o.block(k0 + lane).row(i));
                for ((mv, &ctv), &cov) in row.iter_mut().zip(ct).zip(co) {
                    *mv = eta * ctv + eta_over_b * cov;
                }
                row[i] += nu;
            };
            if self.quad.factor_group(&l_inv[ks], m_row).is_err() {
                return false;
            }
            self.quad.accumulate(pool_xt, gik, k0, eta, scores);
        }
        true
    }

    /// Line 8: `(H)_k += (1/b)(H_o)_k + g_k·xxᵀ` with `g_k = h_k(1-h_k)`,
    /// as `C_t,k += (1/b)·C_o,k + g_k·uuᵀ`, `u = L_k⁻¹x`. Both triangles
    /// receive the same addends, so `C_t` stays exactly symmetric.
    pub fn pick(&mut self, x: &[T], h: &[T]) {
        let d = x.len();
        for (k, &hk) in h.iter().enumerate() {
            let c = self.c_t.block_mut(k);
            c.add_scaled(self.inv_budget, self.white.c_o.block(k));
            let g = fisher_g(hk);
            if g == T::ZERO {
                continue;
            }
            // u and the rank-one term: one multiply-add per lower-triangle
            // entry each.
            counters::add_flops(2 * d * (d + 1));
            let li = self.white.l_inv.block(k);
            for (p, up) in self.u.iter_mut().enumerate() {
                *up = T::ZERO;
                for (&l, &xq) in li.row(p)[..=p].iter().zip(x) {
                    *up += l * xq;
                }
            }
            let u = &self.u;
            for p in 0..d {
                let s = g * u[p];
                for q in 0..p {
                    let v = s * u[q];
                    c[(p, q)] += v;
                    c[(q, p)] += v;
                }
                c[(p, p)] += s * u[p];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RelaxConfig;
    use crate::exec::{Executor, ShardedProblem};
    use crate::hessian::{dense_hessian, PoolHessian};
    use crate::problem::{tiny_problem, SelectionProblem};
    use firal_comm::SelfComm;

    #[test]
    fn selects_distinct_points_within_budget() {
        let p = tiny_problem(1, 50, 4, 3);
        let z = vec![6.0 / 50.0; 50];
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let eta = 8.0 * (p.ehat() as f64).sqrt();
        let out = Executor::new(&comm, &shard).round(&z, 6, eta);
        assert_eq!(out.selected.len(), 6);
        let mut sorted = out.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert!(out.selected.iter().all(|&i| i < 50));
    }

    #[test]
    fn proposition_4_equivalence_with_dense_trace() {
        // At t = 1 the Eq. 17 score must be the per-candidate decrease of
        // the exact block-diagonal trace objective,
        // (Tr(B₁⁻¹Σ⋄) − Tr((B₁ + ηB(H_i))⁻¹Σ⋄))/η. Per block,
        // Sherman–Morrison puts (Σ⋄)_k between the two B_k⁻¹ (Eqs. 18–20);
        // the published Eq. 17 prints (Σ⋄)_k⁻¹ there. The second problem
        // scales the feature columns by 0.05, 1 and 20, so Σ⋄ is far from
        // I (block condition numbers near 10⁵) and the published form must
        // miss the decrease there.
        let cases = [(2, 12, [1.0; 3], false), (11, 16, [0.05, 1.0, 20.0], true)];
        for (seed, n, col_scale, far_from_identity) in cases {
            let mut p = tiny_problem(seed, n, 3, 3);
            for x in [&mut p.pool_x, &mut p.labeled_x] {
                for i in 0..x.rows() {
                    for (v, s) in x.row_mut(i).iter_mut().zip(col_scale) {
                        *v *= s;
                    }
                }
            }
            let (cm1, budget) = (p.nblocks(), 3);
            let ehat = p.ehat() as f64;
            let eta = 4.0 * ehat.sqrt();
            let z = vec![budget as f64 / n as f64; n];

            let bho = PoolHessian::unweighted(&p.labeled_x, &p.labeled_h).block_diagonal();
            let mut sigma = PoolHessian::weighted(&p.pool_x, &p.pool_h, z.clone()).block_diagonal();
            sigma.add_scaled(1.0, &bho);
            // B₁ = √ê Σ⋄ + (η/b) H_o
            let mut b1 = sigma.clone();
            for k in 0..cm1 {
                b1.block_mut(k).scale_inplace(ehat.sqrt());
                b1.block_mut(k)
                    .add_scaled(eta / budget as f64, bho.block(k));
            }
            let chol = |m: &Matrix<f64>| firal_linalg::Cholesky::new(m).unwrap();
            let (b1_dense, sigma_dense) = (b1.to_dense(), sigma.to_dense());
            let base = chol(&b1_dense).solve_mat(&sigma_dense).trace();
            let b_chol: Vec<_> = b1.blocks().iter().map(chol).collect();
            let sigma_chol: Vec<_> = sigma.blocks().iter().map(chol).collect();

            // The whitened score function (M = √ê·I + (η/b)·C_o).
            let comm = SelfComm::new();
            let shard = ShardedProblem::replicate(&p);
            let state = Executor::new(&comm, &shard).build_round_state(&z);
            let white = Whitening::new(&state, &p.pool_x, &p.pool_h);
            let mut scores = vec![0.0; n];
            WhitenedFtrl::new(&white, budget, eta).scores(&mut scores);

            let mut published_gap = 0.0f64;
            for i in 0..n {
                let hi = dense_hessian(p.pool_x.row(i), p.pool_h.row(i));
                let mut m = b1_dense.clone();
                m.add_scaled(
                    eta,
                    &firal_linalg::BlockDiag::from_dense(&hi, cm1).to_dense(),
                );
                let decrease = (base - chol(&m).solve_mat(&sigma_dense).trace()) / eta;

                let (mut derived, mut published) = (0.0, 0.0);
                let x = p.pool_x.row(i);
                for k in 0..cm1 {
                    let g = p.pool_h[(i, k)] * (1.0 - p.pool_h[(i, k)]);
                    let y = b_chol[k].solve(x);
                    let denom = 1.0 + eta * g * firal_linalg::dot(x, &y);
                    derived += g * firal_linalg::dot(&y, &sigma.block(k).matvec(&y)) / denom;
                    published += g * firal_linalg::dot(&y, &sigma_chol[k].solve(&y)) / denom;
                }
                let tol = 1e-6 * decrease.abs().max(1.0);
                assert!(
                    (derived - decrease).abs() < tol,
                    "point {i}: derived form {derived} vs {decrease}"
                );
                assert!(
                    (scores[i] - decrease).abs() < tol,
                    "point {i}: score {} vs {decrease}",
                    scores[i]
                );
                published_gap = published_gap.max((published - decrease).abs() / decrease.abs());
            }
            if far_from_identity {
                assert!(
                    published_gap > 1.0,
                    "the published (Σ⋄)⁻¹ numerator should miss the trace decrease, \
                     worst relative gap {published_gap}"
                );
            }
        }
    }

    #[test]
    fn eta_grid_selection_returns_valid_run() {
        let p = tiny_problem(3, 40, 3, 3);
        let z = vec![4.0 / 40.0; 40];
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let out = Executor::new(&comm, &shard).select_eta(&z, 4, &[1.0, 4.0, 16.0]);
        assert_eq!(out.selected.len(), 4);
        assert!(out.eta > 0.0);
    }

    #[test]
    fn selection_min_eig_grows_with_more_points() {
        let p = tiny_problem(4, 30, 3, 3);
        let z = vec![8.0 / 30.0; 30];
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let exec = Executor::new(&comm, &shard);
        let eta = 8.0 * (p.ehat() as f64).sqrt();
        let out = exec.round(&z, 8, eta);
        let m4 = exec.selection_min_eig(&out.selected[..4]);
        let m8 = exec.selection_min_eig(&out.selected);
        assert!(m8 >= m4 - 1e-12, "adding PSD terms cannot shrink λ_min");
    }

    #[test]
    fn round_covers_classes_reasonably() {
        // FIRAL's design goal: the selection should touch diverse regions.
        // With c classes and budget = c on a separated mixture, expect at
        // least half the classes represented.
        let ds = firal_data::SyntheticConfig::new(4, 6)
            .with_pool_size(80)
            .with_initial_per_class(2)
            .with_separation(6.0)
            .with_seed(5)
            .generate::<f64>();
        let model =
            firal_logreg::LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels)
                .unwrap();
        let p = SelectionProblem::new(
            ds.pool_features.clone(),
            model.class_probs_cm1(&ds.pool_features),
            ds.initial_features.clone(),
            model.class_probs_cm1(&ds.initial_features),
            4,
        );
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let exec = Executor::new(&comm, &shard);
        let relax = exec.relax(4, &RelaxConfig::default());
        let eta = 8.0 * (p.ehat() as f64).sqrt();
        let out = exec.round(&relax.z_local, 4, eta);
        let classes: std::collections::BTreeSet<usize> =
            out.selected.iter().map(|&i| ds.pool_labels[i]).collect();
        assert!(
            classes.len() >= 2,
            "selection collapsed to classes {classes:?} via {:?}",
            out.selected
        );
    }
}
