//! Matrix-free linear operator and preconditioner abstractions.
//!
//! The CG solver never sees matrix entries — only `y = A x` products. This
//! is the contract that lets Approx-FIRAL plug in the fast Hessian matvec of
//! Lemma 2 (implemented in `firal-core::hessian`) without materializing the
//! `ê × ê` operators of Exact-FIRAL.

use std::cell::RefCell;

use firal_linalg::{Matrix, Scalar};

/// A symmetric positive-definite linear operator given by its action.
///
/// Not `Sync`: SPMD rank-local operators hold a communicator endpoint that
/// is single-threaded by design; the CG solver drives operators from one
/// thread (internal kernels parallelize with rayon on their own).
pub trait LinearOperator<T: Scalar> {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// `y ← A x`. `y` is pre-zeroed by callers that require it; the
    /// implementation must fully overwrite `y`.
    fn apply(&self, x: &[T], y: &mut [T]);

    /// Panel application `Y ← A X` into a caller-owned panel of `X`'s
    /// shape, fully overwritten (column-wise by default; implementations
    /// with a batched fast path — like the pool-panel Hessian matvec, which
    /// sweeps the pool once for all `s` columns — should override). This is
    /// what [`crate::cg_solve_panel`] calls, so an override that does not
    /// allocate makes the solve's iterations allocation-free.
    fn apply_panel_into(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        let (n, s) = x.shape();
        assert_eq!(n, self.dim(), "apply_panel dimension mismatch");
        assert_eq!(y.shape(), (n, s), "apply_panel_into shape mismatch");
        let mut xv = vec![T::ZERO; n];
        let mut yv = vec![T::ZERO; n];
        for j in 0..s {
            for i in 0..n {
                xv[i] = x[(i, j)];
            }
            self.apply(&xv, &mut yv);
            y.set_col(j, &yv);
        }
    }

    /// [`LinearOperator::apply_panel_into`] into a fresh panel.
    fn apply_panel(&self, x: &Matrix<T>) -> Matrix<T> {
        let mut y = Matrix::zeros(x.rows(), x.cols());
        self.apply_panel_into(x, &mut y);
        y
    }
}

/// A preconditioner application `z = M⁻¹ r`.
pub trait Preconditioner<T: Scalar> {
    /// `z ← M⁻¹ r`. Must fully overwrite `z`.
    fn apply(&self, r: &[T], z: &mut [T]);

    /// `Z ← M⁻¹ R` for a panel of residual columns, `Z` of `R`'s shape and
    /// fully overwritten (column-wise by default; a preconditioner whose
    /// solves run along panel rows should override and skip the copies).
    fn apply_panel(&self, r: &Matrix<T>, z: &mut Matrix<T>) {
        let n = r.rows();
        let mut rc = vec![T::ZERO; n];
        let mut zc = vec![T::ZERO; n];
        for j in 0..r.cols() {
            for i in 0..n {
                rc[i] = r[(i, j)];
            }
            self.apply(&rc, &mut zc);
            z.set_col(j, &zc);
        }
    }
}

/// A reusable panel-shaped temporary for operators that sum two
/// applications (`Σ_z = H_o + H_z`, an Allreduced shard plus a replicated
/// term): reallocated only when the requested shape changes, so a CG solve
/// pays for it once. Single-threaded like the operators that hold it.
#[derive(Debug)]
pub struct PanelScratch<T: Scalar>(RefCell<Matrix<T>>);

impl<T: Scalar> PanelScratch<T> {
    /// Empty scratch.
    pub fn new() -> Self {
        Self(RefCell::new(Matrix::zeros(0, 0)))
    }

    /// Run `f` on a `rows × cols` panel with unspecified contents.
    pub fn with<R>(&self, rows: usize, cols: usize, f: impl FnOnce(&mut Matrix<T>) -> R) -> R {
        let mut panel = self.0.borrow_mut();
        if panel.shape() != (rows, cols) {
            *panel = Matrix::zeros(rows, cols);
        }
        f(&mut panel)
    }
}

impl<T: Scalar> Default for PanelScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl<T: Scalar> Preconditioner<T> for IdentityPreconditioner {
    #[inline]
    fn apply(&self, r: &[T], z: &mut [T]) {
        z.copy_from_slice(r);
    }

    fn apply_panel(&self, r: &Matrix<T>, z: &mut Matrix<T>) {
        z.as_mut_slice().copy_from_slice(r.as_slice());
    }
}

/// Dense-matrix operator wrapper (tests and Exact-FIRAL cross-checks).
#[derive(Debug, Clone)]
pub struct DenseOperator<T: Scalar> {
    matrix: Matrix<T>,
}

impl<T: Scalar> DenseOperator<T> {
    /// Wrap a square dense matrix.
    pub fn new(matrix: Matrix<T>) -> Self {
        assert_eq!(matrix.rows(), matrix.cols(), "DenseOperator needs square");
        Self { matrix }
    }

    /// Borrow the wrapped matrix.
    pub fn matrix(&self) -> &Matrix<T> {
        &self.matrix
    }
}

impl<T: Scalar> LinearOperator<T> for DenseOperator<T> {
    fn dim(&self) -> usize {
        self.matrix.rows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(&self.matrix.matvec(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_operator_applies() {
        let m = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 3.0]);
        let op = DenseOperator::new(m);
        let mut y = vec![0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn identity_preconditioner_copies() {
        let p = IdentityPreconditioner;
        let mut z = vec![0.0f32; 3];
        Preconditioner::apply(&p, &[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn default_panel_matches_columns() {
        let m = Matrix::from_vec(3, 3, vec![1.0, 2.0, 0.0, 2.0, 5.0, 1.0, 0.0, 1.0, 4.0]);
        let op = DenseOperator::new(m.clone());
        let x = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let y = op.apply_panel(&x);
        for j in 0..2 {
            let yj = m.matvec(&x.col(j));
            for i in 0..3 {
                assert!((y[(i, j)] - yj[i]).abs() < 1e-14);
            }
        }
    }
}
