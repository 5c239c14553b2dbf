//! Fisher-information machinery: dense Hessians (Eq. 2), the matrix-free
//! fast matvec (Lemma 2), pooled operators (`H_p`, `H_z`, `Σ_z`), and the
//! block-diagonal extraction of Definition 1 (Eqs. 14–15).
//!
//! Conventions (see DESIGN.md): the classifier uses the `c-1` block
//! parameterization, so a "probability vector" `h ∈ R^{c-1}` holds the first
//! `c-1` softmax probabilities, `G(h) = diag(h) - hhᵀ` is `(c-1)×(c-1)` SPD,
//! and every Fisher-information matrix is `H = G(h) ⊗ (xxᵀ)` of order
//! `ê = d(c-1)`. Stacked vectors `v ∈ R^ê` are the column-stacking `vec(V)`
//! of `V ∈ R^{d×(c-1)}`, matching the paper's notation.

use std::cell::RefCell;

/// Rearrange an `ê × s` stacked panel into the `d × (c·s)` wide layout of
/// the Eq. 13 GEMMs (wide column `k·s + j` is probe `j`'s block `k`).
pub use firal_linalg::to_wide;
use firal_linalg::{
    fisher_sweep, gemm_into, gram_weighted_multi, kron, unvec, vec_of, BlockDiag, Matrix, Scalar,
    SweepInput, SweepWorkspace,
};
use firal_solvers::{LinearOperator, PanelScratch, Preconditioner};
use rayon::prelude::*;

/// `G(h) = diag(h) - hhᵀ` — the class-coupling factor of Eq. 2.
pub fn gmat<T: Scalar>(h: &[T]) -> Matrix<T> {
    let c = h.len();
    let mut g = Matrix::zeros(c, c);
    for k in 0..c {
        for l in 0..c {
            g[(k, l)] = if k == l {
                h[k] - h[k] * h[l]
            } else {
                -h[k] * h[l]
            };
        }
    }
    g
}

/// Dense Fisher-information matrix `H = G(h) ⊗ (xxᵀ)` (Eq. 2).
/// `O(d²c²)` storage — exact-FIRAL / test path only.
pub fn dense_hessian<T: Scalar>(x: &[T], h: &[T]) -> Matrix<T> {
    let d = x.len();
    let mut xxt = Matrix::zeros(d, d);
    for p in 0..d {
        for q in 0..d {
            xxt[(p, q)] = x[p] * x[q];
        }
    }
    kron(&gmat(h), &xxt)
}

/// Fast matrix-free matvec `H_i v` (Lemma 2): `γ ← Vᵀx`, `α ← γᵀh`,
/// `γ ← (γ - α) ⊙ h`, `H_i v = vec(γ ⊗ x)`. `O(dc)` instead of `O(d²c²)`.
pub fn fast_matvec<T: Scalar>(x: &[T], h: &[T], v: &[T]) -> Vec<T> {
    let d = x.len();
    let c = h.len();
    assert_eq!(v.len(), d * c, "fast_matvec: v must have length d(c-1)");
    firal_linalg::counters::add_flops(4 * d * c);

    // γ_k = block_kᵀ x  (block k of v is V[:,k])
    let mut gamma = vec![T::ZERO; c];
    for (k, g) in gamma.iter_mut().enumerate() {
        let block = &v[k * d..(k + 1) * d];
        let mut acc = T::ZERO;
        for (bv, &xv) in block.iter().zip(x.iter()) {
            acc += *bv * xv;
        }
        *g = acc;
    }
    // α = γᵀ h
    let mut alpha = T::ZERO;
    for (g, &hk) in gamma.iter().zip(h.iter()) {
        alpha += *g * hk;
    }
    // out block k = (γ_k - α) h_k · x
    let mut out = vec![T::ZERO; d * c];
    for k in 0..c {
        let coeff = (gamma[k] - alpha) * h[k];
        let block = &mut out[k * d..(k + 1) * d];
        for (o, &xv) in block.iter_mut().zip(x.iter()) {
            *o = coeff * xv;
        }
    }
    out
}

/// Quadratic form `vᵀ H_i w` via the factored Lemma-2 pieces — the inner
/// kernel of the Hutchinson gradient estimate (Algorithm 2, line 9):
/// `vᵀH_iw = Σ_k p_k (q_k - qᵀh) h_k` with `p = Vᵀx`, `q = Wᵀx`.
pub fn bilinear_form<T: Scalar>(x: &[T], h: &[T], v: &[T], w: &[T]) -> T {
    let d = x.len();
    let c = h.len();
    debug_assert_eq!(v.len(), d * c);
    debug_assert_eq!(w.len(), d * c);
    let mut qh = T::ZERO;
    let mut q = vec![T::ZERO; c];
    for k in 0..c {
        let block = &w[k * d..(k + 1) * d];
        let mut acc = T::ZERO;
        for (bv, &xv) in block.iter().zip(x.iter()) {
            acc += *bv * xv;
        }
        q[k] = acc;
        qh += acc * h[k];
    }
    let mut out = T::ZERO;
    for k in 0..c {
        let block = &v[k * d..(k + 1) * d];
        let mut p = T::ZERO;
        for (bv, &xv) in block.iter().zip(x.iter()) {
            p += *bv * xv;
        }
        out += p * (q[k] - qh) * h[k];
    }
    out
}

/// A weighted sum of per-point Fisher matrices over a point panel,
/// `H(z) = Σ_i z_i · G(h_i) ⊗ (x_i x_iᵀ)`, applied matrix-free.
///
/// With `z ≡ 1` this is `H_p` (or `H_o` over the labeled panel); with the
/// mirror-descent weights it is `H_z`. The panel application vectorizes
/// Lemma 2 across both points and probe columns (Eq. 13) and runs as one
/// fused pass over the points — [`firal_linalg::fisher_sweep`] — whose
/// scratch this operator keeps, so repeated applications (a CG solve)
/// allocate on the first one only.
pub struct PoolHessian<'a, T: Scalar> {
    /// Point panel (`n × d`).
    x: &'a Matrix<T>,
    /// Probability panel (`n × (c-1)`).
    h: &'a Matrix<T>,
    /// Optional per-point weights (uniform 1 when `None`).
    z: Option<Vec<T>>,
    /// Scratch of the fused sweep.
    ws: RefCell<SweepWorkspace<T>>,
}

impl<'a, T: Scalar> PoolHessian<'a, T> {
    /// Unweighted sum (`H_p` over the pool, `H_o` over the labeled panel).
    pub fn unweighted(x: &'a Matrix<T>, h: &'a Matrix<T>) -> Self {
        assert_eq!(x.rows(), h.rows(), "points/probabilities mismatch");
        Self {
            x,
            h,
            z: None,
            ws: RefCell::new(SweepWorkspace::new()),
        }
    }

    /// Weighted sum `H_z` with mirror-descent weights.
    pub fn weighted(x: &'a Matrix<T>, h: &'a Matrix<T>, z: Vec<T>) -> Self {
        assert_eq!(z.len(), x.rows(), "weights length mismatch");
        Self {
            z: Some(z),
            ..Self::unweighted(x, h)
        }
    }

    /// Number of points in the panel.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when the panel is empty.
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Number of blocks `c-1`.
    pub fn nblocks(&self) -> usize {
        self.h.cols()
    }

    /// Point dimension `d`.
    pub fn point_dim(&self) -> usize {
        self.x.cols()
    }

    /// `out ← H(z)·V` for `s` stacked columns, through the fused sweep.
    fn sweep(&self, input: SweepInput<'_, T>, s: usize, out: &mut [T]) {
        let mut ws = self.ws.borrow_mut();
        fisher_sweep(self.x, self.h, self.z.as_deref(), input, s, &mut ws, out);
    }

    /// `H(z)·V` from `P = X·V_wide` as [`probe_products`] forms it over
    /// this operator's points — the same bits as `apply_panel(V)` without
    /// repeating the product, for callers that need `P` anyway (RELAX
    /// shares it with [`hutchinson_gradients_shared`]).
    pub fn apply_products(&self, products: &Matrix<T>) -> Matrix<T> {
        let s = products.cols() / self.nblocks().max(1);
        let mut out = Matrix::zeros(self.dim(), s);
        self.sweep(SweepInput::Products(products), s, out.as_mut_slice());
        out
    }

    /// Block diagonal `B(H(z))` (Definition 1 / Eq. 15): block `k` is
    /// `Σ_i z_i h_ik (1-h_ik) x_i x_iᵀ`, built in one fused pass.
    pub fn block_diagonal(&self) -> BlockDiag<T> {
        let n = self.len();
        let c = self.nblocks();
        let mut w = Matrix::zeros(n, c);
        for i in 0..n {
            let zi = self.z.as_ref().map_or(T::ONE, |z| z[i]);
            let hrow = self.h.row(i);
            let wrow = w.row_mut(i);
            for k in 0..c {
                wrow[k] = zi * hrow[k] * (T::ONE - hrow[k]);
            }
        }
        BlockDiag::from_blocks(gram_weighted_multi(self.x, &w))
    }

    /// Assemble the dense `ê × ê` operator (test / exact-FIRAL path).
    pub fn to_dense(&self) -> Matrix<T> {
        let d = self.point_dim();
        let c = self.nblocks();
        let mut acc = Matrix::zeros(d * c, d * c);
        for i in 0..self.len() {
            let zi = self.z.as_ref().map_or(T::ONE, |z| z[i]);
            let hi = dense_hessian(self.x.row(i), self.h.row(i));
            acc.add_scaled(zi, &hi);
        }
        acc
    }
}

impl<T: Scalar> LinearOperator<T> for PoolHessian<'_, T> {
    fn dim(&self) -> usize {
        self.point_dim() * self.nblocks()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.sweep(SweepInput::Panel(x), 1, y);
    }

    fn apply_panel_into(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        assert_eq!(x.shape(), y.shape(), "apply_panel_into shape mismatch");
        self.sweep(SweepInput::Panel(x.as_slice()), x.cols(), y.as_mut_slice());
    }
}

/// The regularized information operator `Σ_z = H_o + H_z` (Eq. 7),
/// applied matrix-free as the sum of two [`PoolHessian`]s.
pub struct SigmaZ<'a, T: Scalar> {
    /// Labeled-set term `H_o`.
    pub ho: PoolHessian<'a, T>,
    /// Weighted pool term `H_z`.
    pub hz: PoolHessian<'a, T>,
    /// Holds `H_z·x` while it is added to `H_o·x`.
    tmp: PanelScratch<T>,
}

impl<'a, T: Scalar> SigmaZ<'a, T> {
    /// Combine the two panels. Dimensions must agree.
    pub fn new(ho: PoolHessian<'a, T>, hz: PoolHessian<'a, T>) -> Self {
        assert_eq!(ho.point_dim(), hz.point_dim());
        assert_eq!(ho.nblocks(), hz.nblocks());
        Self {
            ho,
            hz,
            tmp: PanelScratch::new(),
        }
    }

    /// Block diagonal `B(Σ_z) = B(H_o) + B(H_z)` (Algorithm 2 line 5).
    pub fn block_diagonal(&self) -> BlockDiag<T> {
        let mut b = self.ho.block_diagonal();
        b.add_scaled(T::ONE, &self.hz.block_diagonal());
        b
    }

    /// Dense assembly (test path).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = self.ho.to_dense();
        m.add_scaled(T::ONE, &self.hz.to_dense());
        m
    }
}

impl<T: Scalar> LinearOperator<T> for SigmaZ<'_, T> {
    fn dim(&self) -> usize {
        self.ho.dim()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.ho.apply(x, y);
        self.tmp.with(y.len(), 1, |tmp| {
            self.hz.apply(x, tmp.as_mut_slice());
            for (a, b) in y.iter_mut().zip(tmp.as_slice()) {
                *a += *b;
            }
        });
    }

    fn apply_panel_into(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        self.ho.apply_panel_into(x, y);
        self.tmp.with(x.rows(), x.cols(), |tmp| {
            self.hz.apply_panel_into(x, tmp);
            y.add_scaled(T::ONE, tmp);
        });
    }
}

/// Block-Jacobi preconditioner: per-block Cholesky solves with
/// `B(Σ_z)^{-1}` (the preconditioner of §III-A, Fig. 1).
pub struct BlockJacobi<T: Scalar> {
    factors: Vec<firal_linalg::Cholesky<T>>,
    dim: usize,
}

impl<T: Scalar> BlockJacobi<T> {
    /// Factor every block of `B(Σ_z)`. Fails if any block is not SPD.
    pub fn new(bd: &BlockDiag<T>) -> firal_linalg::Result<Self> {
        Ok(Self {
            factors: bd.cholesky()?,
            dim: bd.dim(),
        })
    }

    /// Factor with a diagonal ridge fallback for near-singular blocks.
    pub fn new_with_ridge(bd: &BlockDiag<T>, ridge: T) -> firal_linalg::Result<Self> {
        let factors: firal_linalg::Result<Vec<_>> = bd
            .blocks()
            .iter()
            .map(|b| firal_linalg::Cholesky::new_with_ridge(b, ridge))
            .collect();
        Ok(Self {
            factors: factors?,
            dim: bd.dim(),
        })
    }
}

impl<T: Scalar> Preconditioner<T> for BlockJacobi<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        debug_assert_eq!(r.len(), self.dim * self.factors.len());
        z.copy_from_slice(r);
        for (ch, seg) in self.factors.iter().zip(z.chunks_exact_mut(self.dim)) {
            ch.solve_in_place(seg);
        }
    }

    fn apply_panel(&self, r: &Matrix<T>, z: &mut Matrix<T>) {
        let s = r.cols();
        debug_assert_eq!(r.rows(), self.dim * self.factors.len());
        z.as_mut_slice().copy_from_slice(r.as_slice());
        let blocks = z.as_mut_slice().chunks_exact_mut(self.dim * s);
        for (ch, rows) in self.factors.iter().zip(blocks) {
            ch.solve_panel_in_place(rows, s);
        }
    }
}

/// Convert between a stacked `ê`-vector and its `d × (c-1)` matrix form
/// (re-exported vec/unvec with the crate's block convention).
pub fn stack<T: Scalar>(v: &Matrix<T>) -> Vec<T> {
    vec_of(v)
}

/// Inverse of [`stack`].
pub fn unstack<T: Scalar>(v: &[T], d: usize, c: usize) -> Matrix<T> {
    unvec(v, d, c)
}

/// `P = X·V_wide` (`n × c·s`, [`to_wide`] column order): the first GEMM of
/// Eq. 13 for a stacked probe panel, as a matrix of its own for the
/// consumers that read it per point.
pub fn probe_products<T: Scalar>(x: &Matrix<T>, panel: &Matrix<T>, c: usize) -> Matrix<T> {
    let mut out = Matrix::zeros(x.rows(), c * panel.cols());
    probe_products_into(x, panel, c, &mut out);
    out
}

/// [`probe_products`] into a caller-owned `n × c·s` matrix (overwritten),
/// for a loop that forms the products of a fresh panel every iteration.
pub fn probe_products_into<T: Scalar>(
    x: &Matrix<T>,
    panel: &Matrix<T>,
    c: usize,
    out: &mut Matrix<T>,
) {
    assert_eq!(
        out.shape(),
        (x.rows(), c * panel.cols()),
        "products have the wrong shape"
    );
    gemm_into(
        x.as_slice(),
        &to_wide(panel, x.cols(), c),
        out.as_mut_slice(),
    );
}

/// Batched Hutchinson gradient kernel (Algorithm 2 line 9):
/// returns `g_i = (1/s) Σ_j v_jᵀ H_i w_j` for every pool point, evaluated
/// through two `n × (c·s)` GEMMs: `P = X·V_wide`, `Q = X·W_wide`, then
/// `v_jᵀH_iw_j = Σ_k P_{ikj} (Q_{ikj} - Q_{i·j}·h_i) h_{ik}` per point.
/// (The caller negates for the descent direction.)
pub fn hutchinson_gradients<T: Scalar>(
    x: &Matrix<T>,
    h: &Matrix<T>,
    v_panel: &Matrix<T>,
    w_panel: &Matrix<T>,
) -> Vec<T> {
    assert_eq!(w_panel.shape(), v_panel.shape(), "panels disagree");
    hutchinson_gradients_shared(x, h, &probe_products(x, v_panel, h.cols()), w_panel)
}

/// Points per task of [`hutchinson_gradients_shared`]; each task holds
/// `Q = X·W_wide` for its own points only.
const HUTCHINSON_ROWS: usize = 256;

/// [`hutchinson_gradients`] with `P = X·V_wide` supplied by the caller
/// ([`probe_products`]), who has another use for it. Bitwise the same.
///
/// `Q = X·W_wide` is formed `HUTCHINSON_ROWS` points at a time and
/// consumed on the spot, so only `P` is ever `n × c·s`. Per point the
/// probes stay apart until the end: `(Q·h)_j` and the probe's quadratic
/// form each ascend the class blocks, lanes across `j`, and the `s` forms
/// are summed in probe order last.
pub fn hutchinson_gradients_shared<T: Scalar>(
    x: &Matrix<T>,
    h: &Matrix<T>,
    p: &Matrix<T>,
    w_panel: &Matrix<T>,
) -> Vec<T> {
    let (n, d) = x.shape();
    let c = h.cols();
    let s = w_panel.cols();
    let m = c * s;
    assert_eq!(w_panel.rows(), d * c, "probe panel has wrong height");
    assert_eq!(p.shape(), (n, m), "products have the wrong shape");
    firal_linalg::counters::add_flops(4 * n * m);

    let mut g = vec![T::ZERO; n];
    if n == 0 || m == 0 || d == 0 {
        return g;
    }
    let w_wide = to_wide(w_panel, d, c);
    let inv_s = T::ONE / T::from_usize(s);
    g.par_chunks_mut(HUTCHINSON_ROWS)
        .zip(x.as_slice().par_chunks(HUTCHINSON_ROWS * d))
        .zip(h.as_slice().par_chunks(HUTCHINSON_ROWS * c))
        .zip(p.as_slice().par_chunks(HUTCHINSON_ROWS * m))
        .for_each(|(((gs, xs), hs), ps)| {
            let mut q = vec![T::ZERO; gs.len() * m];
            gemm_into(xs, &w_wide, &mut q);
            let mut qh = vec![T::ZERO; s];
            let mut form = vec![T::ZERO; s];
            let points = hs
                .chunks_exact(c)
                .zip(ps.chunks_exact(m).zip(q.chunks_exact(m)));
            for (gi, (hrow, (prow, qrow))) in gs.iter_mut().zip(points) {
                qh.fill(T::ZERO);
                for (qseg, &hk) in qrow.chunks_exact(s).zip(hrow) {
                    for (a, &qv) in qh.iter_mut().zip(qseg) {
                        *a += qv * hk;
                    }
                }
                form.fill(T::ZERO);
                let segments = prow.chunks_exact(s).zip(qrow.chunks_exact(s));
                for ((pseg, qseg), &hk) in segments.zip(hrow) {
                    for (((f, &pv), &qv), &a) in form.iter_mut().zip(pseg).zip(qseg).zip(&qh) {
                        *f += pv * (qv - a) * hk;
                    }
                }
                let mut acc = T::ZERO;
                for &f in &form {
                    acc += f;
                }
                *gi = acc * inv_s;
            }
        });
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use firal_solvers::LinearOperator;

    fn test_pool(n: usize, d: usize, c: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let x = Matrix::from_fn(n, d, |_, _| next() - 1.0);
        // Probabilities: softmax-ish rows with sum < 1 (c-1 entries of a
        // c-class softmax).
        let h = {
            let mut h = Matrix::zeros(n, c - 1);
            for i in 0..n {
                let raw: Vec<f64> = (0..c).map(|_| next().exp()).collect();
                let total: f64 = raw.iter().sum();
                for k in 0..(c - 1) {
                    h[(i, k)] = raw[k] / total;
                }
            }
            h
        };
        (x, h)
    }

    #[test]
    fn gmat_is_spd_for_valid_probabilities() {
        let h = [0.3, 0.2, 0.1]; // sums to 0.6 < 1
        let g = gmat(&h);
        let eig = firal_linalg::eigvalsh(&g).unwrap();
        assert!(eig[0] > 0.0, "G should be SPD, min eig {}", eig[0]);
    }

    #[test]
    fn gmat_full_softmax_is_singular() {
        // With the FULL softmax (sums to 1) G is singular — this is the
        // reason the implementation uses c-1 blocks (see DESIGN.md).
        let h = [0.5, 0.3, 0.2];
        let g = gmat(&h);
        let eig = firal_linalg::eigvalsh(&g).unwrap();
        assert!(eig[0].abs() < 1e-12, "nullvector 1 should exist: {eig:?}");
    }

    #[test]
    fn fast_matvec_matches_dense_hessian() {
        let (x, h) = test_pool(5, 4, 4, 1);
        for i in 0..5 {
            let dense = dense_hessian(x.row(i), h.row(i));
            let v: Vec<f64> = (0..12).map(|j| (j as f64).sin()).collect();
            let fast = fast_matvec(x.row(i), h.row(i), &v);
            let slow = dense.matvec(&v);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn bilinear_form_matches_dense() {
        let (x, h) = test_pool(3, 3, 3, 2);
        let v: Vec<f64> = (0..6).map(|j| (j as f64 * 0.7).cos()).collect();
        let w: Vec<f64> = (0..6).map(|j| (j as f64 * 1.3).sin()).collect();
        for i in 0..3 {
            let dense = dense_hessian(x.row(i), h.row(i));
            let expect = firal_linalg::dot(&v, &dense.matvec(&w));
            let got = bilinear_form(x.row(i), h.row(i), &v, &w);
            assert!((got - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn pool_hessian_apply_matches_dense_sum() {
        let (x, h) = test_pool(20, 3, 4, 3);
        let op = PoolHessian::unweighted(&x, &h);
        let dense = op.to_dense();
        let v: Vec<f64> = (0..9).map(|j| 0.5 - (j as f64 * 0.37).fract()).collect();
        let mut fast = vec![0.0; 9];
        op.apply(&v, &mut fast);
        let slow = dense.matvec(&v);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn weighted_pool_hessian_scales_contributions() {
        let (x, h) = test_pool(10, 3, 3, 4);
        let z: Vec<f64> = (0..10).map(|i| 0.1 * (i + 1) as f64).collect();
        let op = PoolHessian::weighted(&x, &h, z.clone());
        let dense = op.to_dense();
        // Reference: manual weighted sum.
        let mut reference = Matrix::zeros(6, 6);
        for i in 0..10 {
            reference.add_scaled(z[i], &dense_hessian(x.row(i), h.row(i)));
        }
        for i in 0..6 {
            for j in 0..6 {
                assert!((dense[(i, j)] - reference[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn panel_apply_matches_per_column() {
        let (x, h) = test_pool(15, 4, 3, 5);
        let op = PoolHessian::unweighted(&x, &h);
        let panel = Matrix::from_fn(8, 3, |i, j| ((i * 3 + j) as f64 * 0.21).sin());
        let out = op.apply_panel(&panel);
        for j in 0..3 {
            let mut col = vec![0.0; 8];
            op.apply(&panel.col(j), &mut col);
            for i in 0..8 {
                assert!((out[(i, j)] - col[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn block_diagonal_matches_dense_extraction() {
        let (x, h) = test_pool(12, 3, 4, 6);
        let z: Vec<f64> = (0..12).map(|i| 0.05 * (i + 1) as f64).collect();
        let op = PoolHessian::weighted(&x, &h, z);
        let bd = op.block_diagonal();
        let dense_bd = BlockDiag::from_dense(&op.to_dense(), 3);
        for k in 0..3 {
            for p in 0..3 {
                for q in 0..3 {
                    assert!(
                        (bd.block(k)[(p, q)] - dense_bd.block(k)[(p, q)]).abs() < 1e-10,
                        "block {k} ({p},{q})"
                    );
                }
            }
        }
    }

    #[test]
    fn sigma_z_is_sum_of_parts() {
        let (xo, ho) = test_pool(6, 3, 3, 7);
        let (xu, hu) = test_pool(14, 3, 3, 8);
        let z: Vec<f64> = vec![1.0 / 14.0; 14];
        let sigma = SigmaZ::new(
            PoolHessian::unweighted(&xo, &ho),
            PoolHessian::weighted(&xu, &hu, z),
        );
        let dense = sigma.to_dense();
        let v: Vec<f64> = (0..6).map(|j| (j as f64 - 2.5) * 0.4).collect();
        let mut fast = vec![0.0; 6];
        sigma.apply(&v, &mut fast);
        let slow = dense.matvec(&v);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn block_jacobi_preconditioner_is_exact_on_block_diagonal_operator() {
        let (x, h) = test_pool(30, 4, 3, 9);
        let op = PoolHessian::unweighted(&x, &h);
        let bd = op.block_diagonal();
        let prec = BlockJacobi::new(&bd).unwrap();
        // Applying the preconditioner to B(Σ)v must recover v.
        let v: Vec<f64> = (0..8).map(|j| (j as f64 * 0.9).cos()).collect();
        let bv = bd.matvec(&v);
        let mut z = vec![0.0; 8];
        Preconditioner::apply(&prec, &bv, &mut z);
        for (a, b) in z.iter().zip(v.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn preconditioner_reduces_cg_iterations() {
        // The Fig. 1 claim, as a regression test: block-Jacobi CG converges
        // in fewer iterations than unpreconditioned CG on Σ_z.
        use firal_solvers::{cg_solve_panel, rademacher_panel, CgConfig, IdentityPreconditioner};
        use rand::{rngs::StdRng, SeedableRng};
        let p = crate::problem::tiny_problem(7, 80, 5, 4);
        let n = p.pool_size();
        let z = vec![1.0 / n as f64; n];
        let sigma = SigmaZ::new(
            PoolHessian::unweighted(&p.labeled_x, &p.labeled_h),
            PoolHessian::weighted(&p.pool_x, &p.pool_h, z),
        );
        let prec = BlockJacobi::new(&sigma.block_diagonal()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let v: Matrix<f64> = rademacher_panel(p.ehat(), 4, &mut rng);
        let cfg = CgConfig {
            rel_tol: 1e-6,
            max_iter: 4 * p.ehat(),
        };
        let (_, tel_prec) = cg_solve_panel(&sigma, &prec, &v, &cfg);
        let (_, tel_plain) = cg_solve_panel(&sigma, &IdentityPreconditioner, &v, &cfg);
        let iters_prec: usize = tel_prec.iter().map(|t| t.iterations).sum();
        let iters_plain: usize = tel_plain.iter().map(|t| t.iterations).sum();
        assert!(
            iters_prec < iters_plain,
            "preconditioned {iters_prec} !< plain {iters_plain}"
        );
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        let v = stack(&m);
        let back = unstack(&v, 3, 2);
        assert_eq!(m, back);
    }

    #[test]
    fn hutchinson_gradients_match_per_point_bilinear_forms() {
        let (x, h) = test_pool(9, 4, 3, 10);
        let ehat = 4 * 2;
        let s = 3;
        let v = Matrix::from_fn(ehat, s, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
        let w = Matrix::from_fn(ehat, s, |i, j| ((i * 3 + j * 13) % 5) as f64 - 2.0);
        let g = hutchinson_gradients(&x, &h, &v, &w);
        for i in 0..9 {
            let mut expect = 0.0;
            for j in 0..s {
                expect += bilinear_form(x.row(i), h.row(i), &v.col(j), &w.col(j));
            }
            expect /= s as f64;
            assert!(
                (g[i] - expect).abs() < 1e-10,
                "point {i}: {} vs {expect}",
                g[i]
            );
        }
    }

    #[test]
    fn shared_probe_products_change_no_bit() {
        // n spans several sweep chunks and Hutchinson tasks.
        let (x, h) = test_pool(700, 5, 4, 11);
        let s = 10;
        let v = Matrix::from_fn(15, s, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
        let w = Matrix::from_fn(15, s, |i, j| ((i * 3 + j * 13) % 5) as f64 * 0.25 - 0.5);
        let xv = probe_products(&x, &v, 3);
        assert_eq!(
            hutchinson_gradients_shared(&x, &h, &xv, &w),
            hutchinson_gradients(&x, &h, &v, &w)
        );
        let z: Vec<f64> = (0..700).map(|i| (i % 3) as f64 * 0.01).collect();
        for op in [
            PoolHessian::unweighted(&x, &h),
            PoolHessian::weighted(&x, &h, z),
        ] {
            assert_eq!(op.apply_products(&xv), op.apply_panel(&v));
        }
    }

    #[test]
    fn to_wide_layout() {
        // ê = d·c with d=2, c=2; probe panel with s=2 columns.
        let panel = Matrix::from_fn(4, 2, |i, j| (10 * j + i) as f64);
        let wide = to_wide(&panel, 2, 2);
        assert_eq!(wide.shape(), (2, 4));
        // wide[(p, k*s+j)] = panel[(k*d+p, j)]
        assert_eq!(wide[(0, 0)], 0.0); // k=0,j=0,p=0
        assert_eq!(wide[(1, 2)], 3.0); // k=1,j=0,p=1
        assert_eq!(wide[(0, 1)], 10.0); // k=0,j=1,p=0
        assert_eq!(wide[(1, 3)], 13.0); // k=1,j=1,p=1
    }
}
