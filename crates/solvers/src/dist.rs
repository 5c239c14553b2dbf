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

/// Delta-Allreduce of block-diagonal partial sums: the **streaming**
/// counterpart of the [`AllreduceOperator`] full-sum seam. Where the full
/// seam reduces every block of a §III-C partial sum on every call, this one
/// ships only the blocks some rank actually changed since the last sync.
///
/// Protocol (collective — every rank must call with the same block
/// geometry): first the per-block changed flags are agreed with one small
/// Max-Allreduce, then the union of flagged blocks is packed in ascending
/// block order and Sum-Allreduced in a single payload. On return `deltas`
/// holds the **reduced** delta for every globally flagged block (unflagged
/// blocks are untouched) and `changed` holds the global flag union.
///
/// Determinism: the flag union is order-insensitive (Max over {0,1}) and
/// the payload reduction inherits the backend's rank-ordered deterministic
/// Sum, so for a fixed rank count the reduced deltas are bitwise identical
/// across backends, threads, and repeated runs; block packing order is
/// ascending block index on every rank by construction.
pub fn delta_allreduce_blocks<T: CommScalar>(
    comm: &dyn Communicator,
    deltas: &mut BlockDiag<T>,
    changed: &mut [bool],
) {
    let cm1 = deltas.nblocks();
    assert_eq!(changed.len(), cm1, "changed mask / block count mismatch");
    let d = deltas.dim();

    // Agree on the union of changed blocks.
    let mut flags: Vec<f64> = changed.iter().map(|&c| if c { 1.0 } else { 0.0 }).collect();
    comm.allreduce_f64(&mut flags, ReduceOp::Max);
    for (c, f) in changed.iter_mut().zip(flags.iter()) {
        *c = *f > 0.5;
    }

    // Pack only the flagged blocks (ascending block order) and reduce them
    // in one payload.
    let flagged: Vec<usize> = (0..cm1).filter(|&k| changed[k]).collect();
    if flagged.is_empty() {
        return;
    }
    let mut flat: Vec<T> = Vec::with_capacity(flagged.len() * d * d);
    for &k in &flagged {
        flat.extend_from_slice(deltas.block(k).as_slice());
    }
    T::allreduce(comm, &mut flat, ReduceOp::Sum);
    for (slot, &k) in flagged.iter().enumerate() {
        deltas
            .block_mut(k)
            .as_mut_slice()
            .copy_from_slice(&flat[slot * d * d..(slot + 1) * d * d]);
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
    fn delta_allreduce_ships_only_flagged_blocks() {
        use firal_linalg::BlockDiag;
        let results = launch(3, |comm| {
            let mut bd = BlockDiag::<f64>::zeros(4, 2);
            let mut changed = [false; 4];
            // Rank r changed block r only; block 3 is touched by nobody.
            let r = comm.rank();
            changed[r] = true;
            bd.block_mut(r).add_diag((r + 1) as f64);
            super::delta_allreduce_blocks(comm, &mut bd, &mut changed);
            (bd, changed)
        });
        for (bd, changed) in &results {
            assert_eq!(changed, &[true, true, true, false]);
            for k in 0..3 {
                for i in 0..2 {
                    assert_eq!(bd.block(k)[(i, i)], (k + 1) as f64, "block {k}");
                }
            }
            // The unflagged block was never shipped nor written.
            assert_eq!(bd.block(3).max_abs(), 0.0);
        }
    }

    #[test]
    fn delta_allreduce_with_no_changes_is_a_cheap_no_op() {
        let comm = SelfComm::new();
        let mut bd = firal_linalg::BlockDiag::<f64>::zeros(2, 3);
        let mut changed = [false; 2];
        super::delta_allreduce_blocks(&comm, &mut bd, &mut changed);
        assert_eq!(changed, [false, false]);
        assert_eq!(bd.block(0).max_abs(), 0.0);
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
