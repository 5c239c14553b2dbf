//! Block-diagonal matrices with uniform `d × d` blocks.
//!
//! Definition 1 of the paper: `B(H)` keeps the `c-1` diagonal `d × d` blocks
//! of an `ê × ê` matrix. Approx-FIRAL's ROUND step (Algorithm 3) works
//! entirely in this representation — storage `O(cd²)` instead of `O(c²d²)` —
//! and its Sherman–Morrison update (Lemma 3) and Eq. 17 objective are
//! per-block operations implemented here.

use rayon::prelude::*;

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::Result;

/// Block-diagonal matrix: `nblocks` dense blocks, each `dim × dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDiag<T: Scalar> {
    dim: usize,
    blocks: Vec<Matrix<T>>,
}

impl<T: Scalar> BlockDiag<T> {
    /// Zero block-diagonal with `nblocks` blocks of order `dim`.
    pub fn zeros(nblocks: usize, dim: usize) -> Self {
        Self {
            dim,
            blocks: (0..nblocks).map(|_| Matrix::zeros(dim, dim)).collect(),
        }
    }

    /// Block-diagonal identity (each block `I_dim`).
    pub fn identity(nblocks: usize, dim: usize) -> Self {
        Self {
            dim,
            blocks: (0..nblocks).map(|_| Matrix::identity(dim)).collect(),
        }
    }

    /// Wrap existing equal-sized square blocks.
    pub fn from_blocks(blocks: Vec<Matrix<T>>) -> Self {
        assert!(!blocks.is_empty(), "BlockDiag needs at least one block");
        let dim = blocks[0].rows();
        for b in &blocks {
            assert_eq!(
                b.shape(),
                (dim, dim),
                "BlockDiag blocks must be square and equal"
            );
        }
        Self { dim, blocks }
    }

    /// Number of blocks (`c-1` in the paper's usage).
    pub fn nblocks(&self) -> usize {
        self.blocks.len()
    }

    /// Order of each block (`d` in the paper's usage).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total order of the represented matrix (`nblocks * dim = ê`).
    pub fn order(&self) -> usize {
        self.nblocks() * self.dim
    }

    /// Borrow block `k`.
    pub fn block(&self, k: usize) -> &Matrix<T> {
        &self.blocks[k]
    }

    /// Mutably borrow block `k`.
    pub fn block_mut(&mut self, k: usize) -> &mut Matrix<T> {
        &mut self.blocks[k]
    }

    /// Iterate blocks.
    pub fn blocks(&self) -> &[Matrix<T>] {
        &self.blocks
    }

    /// `self += alpha * other` block-wise.
    pub fn add_scaled(&mut self, alpha: T, other: &Self) {
        assert_eq!(self.nblocks(), other.nblocks());
        assert_eq!(self.dim, other.dim);
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            a.add_scaled(alpha, b);
        }
    }

    /// Rank-one update on every block: `block_k += γ_k · x xᵀ`.
    ///
    /// This is how a (block-diagonalized) Fisher-information matrix of a
    /// single point enters an accumulator: Eq. 14,
    /// `B(H_i) = diag(h⊙(1-h)) ⊗ x xᵀ`, i.e. `γ_k = h_k(1-h_k)`.
    pub fn rank_one_update(&mut self, gammas: &[T], x: &[T]) {
        assert_eq!(gammas.len(), self.nblocks(), "one γ per block");
        assert_eq!(x.len(), self.dim, "x must have block dimension");
        crate::counters::add_flops(self.nblocks() * self.dim * self.dim * 2);
        for (blk, &g) in self.blocks.iter_mut().zip(gammas.iter()) {
            if g == T::ZERO {
                continue;
            }
            for p in 0..x.len() {
                let s = g * x[p];
                let row = blk.row_mut(p);
                for (q, &xq) in x.iter().enumerate() {
                    row[q] += s * xq;
                }
            }
        }
    }

    /// Matvec on the stacked vector `v ∈ R^{nblocks·dim}`.
    pub fn matvec(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.order(), "BlockDiag::matvec length mismatch");
        let d = self.dim;
        let mut out = vec![T::ZERO; v.len()];
        // Parallel over blocks: each block touches a disjoint output slice.
        out.par_chunks_mut(d)
            .zip(self.blocks.par_iter())
            .zip(v.par_chunks(d))
            .for_each(|((yk, blk), vk)| {
                let y = blk.matvec(vk);
                yk.copy_from_slice(&y);
            });
        out
    }

    /// Per-block Cholesky-based inverse (the `cupy.linalg.inv` batched call
    /// of Algorithm 3 lines 4/11 and Algorithm 2 line 5). Blocks invert in
    /// parallel.
    pub fn inverse(&self) -> Result<Self> {
        let inv: Result<Vec<Matrix<T>>> = self
            .blocks
            .par_iter()
            .map(|b| Cholesky::new(b).map(|ch| ch.inverse()))
            .collect();
        Ok(Self {
            dim: self.dim,
            blocks: inv?,
        })
    }

    /// Trace of the full represented matrix.
    pub fn trace(&self) -> T {
        let mut t = T::ZERO;
        for b in &self.blocks {
            t += b.trace();
        }
        t
    }

    /// Assemble the dense `order × order` matrix (test/diagnostic use only).
    pub fn to_dense(&self) -> Matrix<T> {
        let n = self.order();
        let d = self.dim;
        let mut m = Matrix::zeros(n, n);
        for (k, blk) in self.blocks.iter().enumerate() {
            for p in 0..d {
                for q in 0..d {
                    m[(k * d + p, k * d + q)] = blk[(p, q)];
                }
            }
        }
        m
    }

    /// Extract the block diagonal of a dense matrix (Definition 1's `B(·)`).
    pub fn from_dense(m: &Matrix<T>, nblocks: usize) -> Self {
        let n = m.rows();
        assert_eq!(m.rows(), m.cols());
        assert_eq!(n % nblocks, 0, "order must divide into equal blocks");
        let d = n / nblocks;
        let blocks = (0..nblocks).map(|k| m.block(k * d, k * d, d)).collect();
        Self { dim: d, blocks }
    }

    /// Sum of per-block minimum eigenvalues' minimum — the η-selection
    /// criterion of §IV-A (`max_η min_k λ_min((H)_k)`). Lane groups of
    /// [`Scalar::BLOCK_LANES`] blocks ([`crate::eigen::eigvalsh_blocks`])
    /// are the parallel tasks.
    pub fn min_block_eigenvalue(&self) -> Result<T> {
        let d = self.dim;
        let groups: Result<Vec<Vec<T>>> = self
            .blocks
            .par_chunks(T::BLOCK_LANES)
            .map(crate::eigen::eigvalsh_blocks)
            .collect();
        let mins = groups?
            .into_iter()
            .flat_map(|v| v.into_iter().step_by(d.max(1)));
        Ok(mins.fold(T::INFINITY, |acc, v| acc.minv(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_blockdiag() -> BlockDiag<f64> {
        let b0 = Matrix::from_vec(2, 2, vec![2.0, 0.5, 0.5, 3.0]);
        let b1 = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 5.0]);
        BlockDiag::from_blocks(vec![b0, b1])
    }

    #[test]
    fn matvec_matches_dense() {
        let bd = test_blockdiag();
        let dense = bd.to_dense();
        let v = vec![1.0, -2.0, 3.0, 0.5];
        let y1 = bd.matvec(&v);
        let y2 = dense.matvec(&v);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_per_block() {
        let bd = test_blockdiag();
        let inv = bd.inverse().unwrap();
        let prod = crate::gemm::gemm(inv.block(0), bd.block(0));
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rank_one_update_matches_manual() {
        let mut bd = BlockDiag::<f64>::zeros(2, 2);
        bd.rank_one_update(&[0.5, 2.0], &[1.0, 2.0]);
        // block 0: 0.5 * [1 2; 2 4]
        assert_eq!(bd.block(0)[(0, 0)], 0.5);
        assert_eq!(bd.block(0)[(0, 1)], 1.0);
        assert_eq!(bd.block(0)[(1, 1)], 2.0);
        // block 1: 2 * [1 2; 2 4]
        assert_eq!(bd.block(1)[(1, 1)], 8.0);
    }

    #[test]
    fn from_dense_roundtrip() {
        let bd = test_blockdiag();
        let dense = bd.to_dense();
        let back = BlockDiag::from_dense(&dense, 2);
        assert_eq!(bd, back);
    }

    #[test]
    fn trace_matches_dense() {
        let bd = test_blockdiag();
        assert!((bd.trace() - bd.to_dense().trace()).abs() < 1e-12);
    }

    #[test]
    fn min_block_eigenvalue_picks_global_min() {
        let bd = test_blockdiag();
        let m = bd.min_block_eigenvalue().unwrap();
        // block0 eigs: 2.5 ± sqrt(0.25+0.25) → min ≈ 1.79; block1: 4.5 ± sqrt(0.25+1) → min ≈ 3.38
        assert!((m - (2.5 - 0.5f64.sqrt())).abs() < 1e-9);
    }

    #[test]
    fn identity_behaves() {
        let id = BlockDiag::<f32>::identity(3, 2);
        let v: Vec<f32> = (0..6).map(|i| i as f32).collect();
        assert_eq!(id.matvec(&v), v);
        assert_eq!(id.trace(), 6.0);
    }
}
