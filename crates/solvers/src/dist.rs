//! Communicator-aware operator composition.
//!
//! The SPMD decomposition of §III-C shards the pool term of `Σ_z` across
//! ranks: each rank applies its local partial operator and the partial
//! results are summed with `MPI_Allreduce`, while the labeled term is
//! replicated and added locally. [`AllreduceOperator`] packages exactly that
//! pattern behind the ordinary [`LinearOperator`] interface, so the CG
//! solver (and any other operator consumer) is written once and runs
//! unchanged on one rank (`SelfComm`, where the reduction is a no-op) or on
//! a full process group.

use firal_comm::{CommScalar, Communicator, ReduceOp};
use firal_linalg::{BlockDiag, Matrix};

use crate::op::{LinearOperator, PanelScratch};

/// Allreduce-sum a block diagonal in place: the §III-C partial-sum pattern
/// for `B(Σ_z)`, `(Σ⋄)_k` and the η-criterion blocks. One Sum-Allreduce of
/// the blocks' lower triangles, `nblocks·d(d+1)/2` entries packed straight
/// into the `f64` wire buffer, then mirrored back into the upper triangles.
///
/// Determinism: each packed entry is reduced exactly as a full-block
/// reduction would reduce it (rank-ordered Sum on the `f64` wire, narrowed
/// once), so the lower triangles are those bits. The upper triangles are
/// too wherever the partial blocks are exactly symmetric, which the Gram
/// kernels guarantee (`firal_linalg::gram_weighted_multi` mirrors its upper
/// triangle); the eigensolvers read the lower triangle only.
pub fn allreduce_block_diag<T: CommScalar>(comm: &dyn Communicator, bd: &mut BlockDiag<T>) {
    let d = bd.dim();
    let mut packed: Vec<f64> = Vec::with_capacity(bd.nblocks() * d * (d + 1) / 2);
    for blk in bd.blocks() {
        for p in 0..d {
            packed.extend(blk.row(p)[..=p].iter().map(|v| v.to_f64()));
        }
    }
    comm.allreduce_f64(&mut packed, ReduceOp::Sum);
    let mut sums = packed.into_iter();
    for k in 0..bd.nblocks() {
        let blk = bd.block_mut(k);
        for p in 0..d {
            for q in 0..=p {
                let v = T::from_f64(sums.next().expect("packed triangle entry"));
                blk[(p, q)] = v;
                blk[(q, p)] = v;
            }
        }
    }
}

/// `A = allreduce(A_local) + A_replicated`: a distributed operator whose
/// matvec performs the §III-C partial-sum Allreduce.
///
/// `local` is this rank's shard of the pool term (partial sums); the
/// optional `replicated` term is identical on every rank and is added
/// *after* the reduction so it is counted exactly once.
pub struct AllreduceOperator<'a, T: CommScalar> {
    comm: &'a dyn Communicator,
    local: &'a dyn LinearOperator<T>,
    replicated: Option<&'a dyn LinearOperator<T>>,
    /// Holds the replicated term's product while it is added.
    tmp: PanelScratch<T>,
}

impl<'a, T: CommScalar> AllreduceOperator<'a, T> {
    /// Compose a sharded operator (and an optional replicated term) over a
    /// communicator.
    pub fn new(
        comm: &'a dyn Communicator,
        local: &'a dyn LinearOperator<T>,
        replicated: Option<&'a dyn LinearOperator<T>>,
    ) -> Self {
        if let Some(rep) = replicated {
            assert_eq!(
                rep.dim(),
                local.dim(),
                "replicated term dimension disagrees with the local shard"
            );
        }
        Self {
            comm,
            local,
            replicated,
            tmp: PanelScratch::new(),
        }
    }
}

impl<T: CommScalar> LinearOperator<T> for AllreduceOperator<'_, T> {
    fn dim(&self) -> usize {
        self.local.dim()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.local.apply(x, y);
        T::allreduce(self.comm, y, ReduceOp::Sum);
        if let Some(rep) = self.replicated {
            self.tmp.with(y.len(), 1, |tmp| {
                rep.apply(x, tmp.as_mut_slice());
                for (a, b) in y.iter_mut().zip(tmp.as_slice()) {
                    *a += *b;
                }
            });
        }
    }

    fn apply_panel_into(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        self.local.apply_panel_into(x, y);
        T::allreduce(self.comm, y.as_mut_slice(), ReduceOp::Sum);
        if let Some(rep) = self.replicated {
            self.tmp.with(x.rows(), x.cols(), |tmp| {
                rep.apply_panel_into(x, tmp);
                y.add_scaled(T::ONE, tmp);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::DenseOperator;
    use firal_comm::{launch, SelfComm};
    use firal_linalg::Matrix;

    fn diag_op(entries: &[f64]) -> DenseOperator<f64> {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        DenseOperator::new(m)
    }

    #[test]
    fn selfcomm_is_local_plus_replicated() {
        let comm = SelfComm::new();
        let local = diag_op(&[1.0, 2.0, 3.0]);
        let rep = diag_op(&[10.0, 10.0, 10.0]);
        let op = AllreduceOperator::new(&comm, &local, Some(&rep));
        let mut y = vec![0.0; 3];
        op.apply(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![11.0, 12.0, 13.0]);
    }

    #[test]
    fn multi_rank_sums_partial_operators() {
        let results = launch(3, |comm| {
            // Rank r contributes diag(r + 1): the reduced operator is
            // diag(1 + 2 + 3) = 6·I, plus a replicated identity = 7·I.
            let local = diag_op(&[comm.rank() as f64 + 1.0; 4]);
            let rep = diag_op(&[1.0; 4]);
            let op = AllreduceOperator::new(comm, &local, Some(&rep));
            let panel = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
            op.apply_panel(&panel)
        });
        for out in &results {
            for i in 0..4 {
                for j in 0..2 {
                    assert_eq!(out[(i, j)], 7.0 * (i + j) as f64);
                }
            }
        }
    }

    #[test]
    fn panel_and_vector_paths_agree() {
        let comm = SelfComm::new();
        let local = diag_op(&[2.0, 5.0]);
        let op = AllreduceOperator::new(&comm, &local, None);
        let panel = Matrix::from_fn(2, 3, |i, j| (1 + i * 3 + j) as f64);
        let by_panel = op.apply_panel(&panel);
        for j in 0..3 {
            let mut y = vec![0.0; 2];
            op.apply(&panel.col(j), &mut y);
            for i in 0..2 {
                assert_eq!(by_panel[(i, j)], y[i]);
            }
        }
    }
}
