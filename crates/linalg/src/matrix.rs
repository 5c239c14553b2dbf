//! Dense row-major matrix.
//!
//! `Matrix<T>` is the storage type for everything dense in the workspace:
//! data-point panels (`n × d`), probe blocks (`d(c-1) × s` reshaped), the
//! `d × d` blocks of Definition 1, and the full `ê × ê` matrices of
//! Exact-FIRAL. Row-major layout matches the access pattern of the hot
//! kernels (row-streaming GEMMs over the pool panel).

use crate::counters;
use crate::scalar::Scalar;

/// Dense row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        counters::add_bytes(rows * cols * std::mem::size_of::<T>());
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Build from a row-major `Vec` (length must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {} elements for {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major data slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a `Vec`.
    pub fn col(&self, j: usize) -> Vec<T> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Set column `j` from a slice.
    pub fn set_col(&mut self, j: usize, v: &[T]) {
        assert_eq!(v.len(), self.rows);
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Explicit transpose (allocates). Tiled so both the source rows and the
    /// destination rows stay cache-resident within a tile — large panels
    /// (e.g. the `ê × s` probe blocks) otherwise stride-miss on every write.
    pub fn transpose(&self) -> Self {
        const TILE: usize = 32;
        let mut t = Self::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TILE) {
            let imax = (i0 + TILE).min(self.rows);
            for j0 in (0..self.cols).step_by(TILE) {
                let jmax = (j0 + TILE).min(self.cols);
                for i in i0..imax {
                    for j in j0..jmax {
                        t[(j, i)] = self[(i, j)];
                    }
                }
            }
        }
        t
    }

    /// Matrix-vector product `y = A x` (sequential; hot paths use `gemm`).
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        counters::add_flops(2 * self.rows * self.cols);
        let mut y = vec![T::ZERO; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = T::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        y
    }

    /// `self += alpha * other` (element-wise).
    pub fn add_scaled(&mut self, alpha: T, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        counters::add_flops(2 * self.data.len());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// `self *= alpha` (element-wise).
    pub fn scale_inplace(&mut self, alpha: T) {
        counters::add_flops(self.data.len());
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Add `alpha` to the diagonal.
    pub fn add_diag(&mut self, alpha: T) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> T {
        let n = self.rows.min(self.cols);
        let mut t = T::ZERO;
        for i in 0..n {
            t += self[(i, i)];
        }
        t
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> T {
        let mut acc = T::ZERO;
        for &v in &self.data {
            acc += v * v;
        }
        acc.sqrt()
    }

    /// Max-abs entry (used by convergence checks and tests).
    pub fn max_abs(&self) -> T {
        let mut m = T::ZERO;
        for &v in &self.data {
            m = m.maxv(v.abs());
        }
        m
    }

    /// Symmetrize in place: `A ← (A + Aᵀ)/2`. Keeps accumulated SPD matrices
    /// numerically symmetric after long update chains.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize needs a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = (self[(i, j)] + self[(j, i)]) * T::HALF;
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Matrix inner product `A · B = Σᵢⱼ AᵢⱼBᵢⱼ` (the `·` of Eq. 4).
    pub fn inner(&self, other: &Self) -> T {
        assert_eq!(self.shape(), other.shape(), "inner shape mismatch");
        counters::add_flops(2 * self.data.len());
        let mut acc = T::ZERO;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            acc += *a * *b;
        }
        acc
    }

    /// Extract the square sub-block starting at (`r0`, `c0`) of size `n`.
    pub fn block(&self, r0: usize, c0: usize, n: usize) -> Self {
        assert!(
            r0 + n <= self.rows && c0 + n <= self.cols,
            "block out of range"
        );
        let mut b = Self::zeros(n, n);
        for i in 0..n {
            b.row_mut(i).copy_from_slice(&self.row(r0 + i)[c0..c0 + n]);
        }
        b
    }

    /// Convert precision (e.g. build in f64, run in f32).
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        )
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>10.4} ", self[(i, j)].to_f64())?;
            }
            if self.cols > show_cols {
                write!(f, "…")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::<f64>::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn trace_and_inner() {
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 1.0 });
        assert_eq!(a.trace(), 6.0);
        let i3 = Matrix::<f64>::identity(3);
        // A · I = trace(A)
        assert_eq!(a.inner(&i3), a.trace());
    }

    #[test]
    fn block_extraction() {
        let a = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let b = a.block(1, 2, 2);
        assert_eq!(b[(0, 0)], 12.0);
        assert_eq!(b[(1, 1)], 23.0);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        a.symmetrize();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::<f32>::identity(2);
        let b = Matrix::<f32>::identity(2);
        a.add_scaled(3.0, &b);
        a.scale_inplace(0.5);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn cast_f64_to_f32() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64 + 0.25);
        let b: Matrix<f32> = a.cast();
        assert_eq!(b[(1, 1)], 2.25f32);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_panics_on_mismatch() {
        let m = Matrix::<f64>::identity(3);
        let _ = m.matvec(&[1.0, 2.0]);
    }
}
