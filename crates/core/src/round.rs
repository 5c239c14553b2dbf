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
//!   lower-triangular `L_k⁻¹` and `C_o,k = L_k⁻¹(H_o)_kL_k⁻ᵀ`;
//! * **Line 8** is `C_t,k += (1/b)·C_o,k + g·uuᵀ` with `u = L_k⁻¹x_{i_t}` —
//!   `O(d²)`, where whitening `(H)_k` afresh costs `2d` triangular solves;
//! * **Line 9** is `eigvalsh(C_t,k)` as is (the Lanczos variant applies the
//!   same dense block);
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
//! `R_k⁻¹ = N_k⁻¹L_k⁻¹`, a third each) in one `2d²` scratch.
//!
//! Also here: the Line-9 eigensolver choice ([`EigSolver`], `pad_spectrum`).
//!
//! Storage is `O(n(d+c) + cd²)` and compute `O(bncd²)` (Table II).

use firal_linalg::{counters, gemm, gemm_at_b, invert_lower, BlockDiag, Matrix, QuadSweep, Scalar};

use crate::exec::RoundState;

/// Which eigensolver backs Line 9 of Algorithm 3.
///
/// `Exact` is the paper's configuration (`cupy.linalg.eigvalsh` →
/// tridiagonal QL here). `Lanczos { steps }` is the §V future-work variant:
/// a matrix-free Krylov estimate of each block's spectrum in `steps ≪ d`
/// operator applications, density-padded to `d` values before the `ν`
/// bisection. The `ablation_lanczos` bench binary quantifies the fidelity/
/// cost trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigSolver {
    /// Dense tridiagonal-QL eigensolve per block (paper configuration).
    Exact,
    /// Lanczos Ritz-value estimate with the given Krylov dimension.
    Lanczos {
        /// Krylov steps per block (clamped to the block order).
        steps: usize,
    },
}

/// Stretch `k` Ritz values into a surrogate for a `d`-point spectrum by
/// proportional repetition (a piecewise-constant spectral density), so the
/// `Σ_j (ν+ηλ_j)^{-2} = 1` bisection sees the right measure.
pub(crate) fn pad_spectrum<T: Scalar>(ritz: &[T], d: usize) -> Vec<T> {
    assert!(!ritz.is_empty());
    (0..d).map(|i| ritz[i * ritz.len() / d]).collect()
}

/// The η-independent whitening prologue of a ROUND sweep: per block the
/// lower-triangular `L_k⁻¹` of `(Σ⋄)_k = L_kL_kᵀ` and
/// `C_o,k = L_k⁻¹(H_o)_kL_k⁻ᵀ` (exactly symmetric). Derived once from a
/// [`RoundState`], which it keeps borrowed, and shared by every η of a grid
/// sweep.
pub struct Whitening<'a, T: Scalar> {
    state: &'a RoundState<T>,
    l_inv: BlockDiag<T>,
    c_o: BlockDiag<T>,
}

impl<'a, T: Scalar> Whitening<'a, T> {
    /// Derive the prologue from the state's `Σ⋄` factors and `B(H_o)`.
    pub fn new(state: &'a RoundState<T>) -> Self {
        let bho = state.bho();
        let (cm1, d) = (bho.nblocks(), bho.dim());
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
        Self { state, l_inv, c_o }
    }
}

/// The replicated FTRL state of Algorithm 3 for one η, in the coordinates
/// of a [`Whitening`] (see the module docs): the accumulator `C_t`, the
/// regularizer weight `ν`, and the scratch of the scoring pass.
pub struct WhitenedFtrl<'a, T: Scalar> {
    white: &'a Whitening<'a, T>,
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
    pub fn new(white: &'a Whitening<'a, T>, budget: usize, eta: T) -> Self {
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
    /// `B_k` (module docs). `pool_x` is this rank's pool shard, row-aligned
    /// with the state's `g_ik` panel — the kernel is purely local. `scores`
    /// is overwritten.
    ///
    /// With an approximate (Lanczos) spectrum — or in f32 — ν can come out
    /// too small for `M_k = νI + η·C_t,k + (η/b)·C_o,k` to be positive
    /// definite; back off by growing ν geometrically and scoring again from
    /// block 0: a conservative FTRL regularizer is always admissible.
    pub fn scores(&mut self, pool_x: &Matrix<T>, scores: &mut [T]) {
        let floor = T::from_usize(self.c_t.order()).sqrt() * T::from_f64(1e-3);
        let nu = self.nu;
        for _attempt in 0..60 {
            if self.try_scores(pool_x, scores) {
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
    fn try_scores(&mut self, pool_x: &Matrix<T>, scores: &mut [T]) -> bool {
        let gik = &self.white.state.gik;
        let eta_over_b = self.eta * self.inv_budget;
        scores.fill(T::ZERO);
        for k in 0..self.c_t.nblocks() {
            let (ct, co) = (self.c_t.block(k), self.white.c_o.block(k));
            for i in 0..ct.rows() {
                let m = self.quad.m_row_mut(i);
                for ((mv, &ctv), &cov) in m.iter_mut().zip(ct.row(i)).zip(co.row(i)) {
                    *mv = self.eta * ctv + eta_over_b * cov;
                }
                m[i] += self.nu;
            }
            if self.quad.factor(self.white.l_inv.block(k)).is_err() {
                return false;
            }
            self.quad.accumulate(pool_x, gik, k, self.eta, scores);
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
            let g = hk * (T::ONE - hk);
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
        let out = Executor::new(&comm, &shard).round(&z, 6, eta, EigSolver::Exact);
        assert_eq!(out.selected.len(), 6);
        let mut sorted = out.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert!(out.selected.iter().all(|&i| i < 50));
    }

    #[test]
    fn proposition_4_equivalence_with_dense_trace() {
        // The Eq. 17 score ordering must match the exact block-diagonal
        // trace objective r_i = Tr[(B_t + ηH_i^{bd})⁻¹ Σ⋄] at t = 1.
        let p = tiny_problem(2, 12, 3, 3);
        let n = p.pool_size();
        let cm1 = p.nblocks();
        let ehat = p.ehat();
        let eta = 4.0 * (ehat as f64).sqrt();
        let z = vec![3.0 / n as f64; n];

        let bho = PoolHessian::unweighted(&p.labeled_x, &p.labeled_h).block_diagonal();
        let mut sigma = PoolHessian::weighted(&p.pool_x, &p.pool_h, z.clone()).block_diagonal();
        sigma.add_scaled(1.0, &bho);
        // B₁ = √ê Σ⋄ + (η/3) H_o
        let mut b1 = sigma.clone();
        for k in 0..cm1 {
            b1.block_mut(k).scale_inplace((ehat as f64).sqrt());
            b1.block_mut(k).add_scaled(eta / 3.0, bho.block(k));
        }

        // The whitened score function at t = 1, budget 3 (M = √ê·I + (η/3)·C_o).
        let comm = SelfComm::new();
        let shard = ShardedProblem::replicate(&p);
        let state = Executor::new(&comm, &shard).build_round_state(&z);
        let white = Whitening::new(&state);
        let mut scores = vec![0.0; n];
        WhitenedFtrl::new(&white, 3, eta).scores(&p.pool_x, &mut scores);

        // Dense reference: r_i = Tr[(B₁ + η B(H_i))⁻¹ Σ⋄].
        let b1_dense = b1.to_dense();
        let sigma_dense = sigma.to_dense();
        for i in 0..n {
            let hi = dense_hessian(p.pool_x.row(i), p.pool_h.row(i));
            let hi_bd = firal_linalg::BlockDiag::from_dense(&hi, cm1).to_dense();
            let mut m = b1_dense.clone();
            m.add_scaled(eta, &hi_bd);
            let ch = firal_linalg::Cholesky::new(&m).unwrap();
            let r_i = ch.solve_mat(&sigma_dense).trace();
            // Eq. 20: r_i = Tr(B⁻¹Σ⋄) - η·score_i
            let base = firal_linalg::Cholesky::new(&b1_dense)
                .unwrap()
                .solve_mat(&sigma_dense)
                .trace();
            let expect_score = (base - r_i) / eta;
            assert!(
                (scores[i] - expect_score).abs() < 1e-6 * expect_score.abs().max(1.0),
                "point {i}: score {} vs derived {expect_score}",
                scores[i]
            );
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
        let out = exec.round(&z, 8, eta, EigSolver::Exact);
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
        let out = exec.round(&relax.z_local, 4, eta, EigSolver::Exact);
        let classes: std::collections::BTreeSet<usize> =
            out.selected.iter().map(|&i| ds.pool_labels[i]).collect();
        assert!(
            classes.len() >= 2,
            "selection collapsed to classes {classes:?} via {:?}",
            out.selected
        );
    }

    #[test]
    fn lanczos_round_matches_exact_round_selection() {
        // Future-work variant (§V): with a generous Krylov dimension the
        // Lanczos-backed ROUND must reproduce the exact ROUND's selection.
        let p = tiny_problem(7, 40, 6, 3);
        let z = vec![5.0 / 40.0; 40];
        let eta = 4.0 * (p.ehat() as f64).sqrt();
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let exec = Executor::new(&comm, &shard);
        let exact = exec.round(&z, 5, eta, EigSolver::Exact);
        let lanczos = exec.round(&z, 5, eta, EigSolver::Lanczos { steps: 6 });
        assert_eq!(exact.selected, lanczos.selected);
        // With an aggressive (tiny) Krylov dimension, selections may drift
        // but must remain a valid batch.
        let rough = exec.round(&z, 5, eta, EigSolver::Lanczos { steps: 2 });
        assert_eq!(rough.selected.len(), 5);
        let mut sorted = rough.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn pad_spectrum_preserves_range_and_length() {
        let ritz = vec![1.0f64, 5.0, 9.0];
        let padded = pad_spectrum(&ritz, 9);
        assert_eq!(padded.len(), 9);
        assert_eq!(padded[0], 1.0);
        assert_eq!(padded[8], 9.0);
        // Monotone non-decreasing.
        assert!(padded.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pad_spectrum_single_ritz_value_floods_the_spectrum() {
        // k = 1: the density surrogate is a point mass — every padded entry
        // is the lone Ritz value.
        let padded = pad_spectrum(&[2.5f64], 6);
        assert_eq!(padded, vec![2.5; 6]);
    }

    #[test]
    fn pad_spectrum_full_krylov_is_identity() {
        // k = d: proportional repetition reduces to the identity, so an
        // exact Krylov spectrum passes through untouched.
        let ritz = vec![0.5f64, 1.0, 2.0, 4.0];
        assert_eq!(pad_spectrum(&ritz, 4), ritz);
    }

    #[test]
    fn pad_spectrum_more_ritz_values_than_dims_subsamples_monotonically() {
        // k > d (possible when a caller does not clamp the Krylov
        // dimension): the padding must subsample without going out of
        // bounds, keep the extreme values' order, and stay monotone.
        let ritz = vec![1.0f64, 2.0, 3.0, 4.0, 5.0];
        let padded = pad_spectrum(&ritz, 3);
        assert_eq!(padded.len(), 3);
        assert_eq!(padded[0], ritz[0]);
        assert!(padded.windows(2).all(|w| w[0] <= w[1]));
        assert!(*padded.last().unwrap() <= *ritz.last().unwrap());
    }

    #[test]
    fn timer_covers_round_phases() {
        let p = tiny_problem(6, 20, 3, 3);
        let z = vec![2.0 / 20.0; 20];
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&p));
        let out = Executor::new(&comm, &shard).round(&z, 2, 10.0, EigSolver::Exact);
        for phase in ["objective", "eig", "other"] {
            assert!(
                out.timer.phases().any(|(n, _)| n == phase),
                "missing {phase}"
            );
        }
    }
}
