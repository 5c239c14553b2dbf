//! Mirror-descent weights with exact zeros, through the two kernels RELAX
//! runs on them: the fused Fisher sweep behind `PoolHessian`'s panel
//! application and the weighted Gram kernel behind
//! `PoolHessian::block_diagonal` and `PoolHessian::to_dense`.
//!
//! Two weight vectors: one holds a run of 150 exact zeros, longer than any
//! sweep row block (at most 64 rows), the other is all zeros. On every
//! available SIMD tier both kernels must give the bits the operator gives
//! on the process-wide tier; the dense assembly's diagonal blocks must be
//! the block diagonal's bits; and the all-zero vector must give an
//! all-zero panel product, block diagonal and dense matrix.

use firal_core::hessian::PoolHessian;
use firal_linalg::{
    available_tiers, fisher_sweep_planned, gram_weighted_multi_planned, plan_for, BlockDiag,
    Matrix, Scalar, SweepWorkspace,
};
use firal_solvers::LinearOperator;

/// Seeded panel in `[lo, lo + 1)`.
fn lcg<T: Scalar>(rows: usize, cols: usize, seed: u64, lo: f64) -> Matrix<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(lo + (state >> 33) as f64 / (1u64 << 31) as f64 / 2.0)
    })
}

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|e| e.to_f64().to_bits()).collect()
}

fn zero_weight_case<T: Scalar>() {
    // `relax_bound`'s CG shape: d = 20, c − 1 = 9 blocks, s = 10 probes.
    let (n, d, c, s) = (400usize, 20usize, 9usize, 10usize);
    let x = lcg::<T>(n, d, 1, -0.5);
    // Probabilities of the non-reference classes: each in (0, 0.1).
    let h = Matrix::from_fn(n, c, |i, k| {
        T::from_f64(0.01 + 0.08 * ((i * 7 + k * 5) % 17) as f64 / 17.0)
    });
    let v = lcg::<T>(d * c, s, 2, -0.5);
    let run: Vec<T> = (0..n)
        .map(|i| {
            if (100..250).contains(&i) {
                T::ZERO
            } else {
                T::from_f64(0.25 + (i % 9) as f64 / 9.0)
            }
        })
        .collect();
    let all_zero = vec![T::ZERO; n];

    for (label, z) in [("zero run", &run), ("all zero", &all_zero)] {
        let op = PoolHessian::weighted(&x, &h, z.clone());
        let mut want = Matrix::zeros(d * c, s);
        op.apply_panel_into(&v, &mut want);
        let want_blocks = op.block_diagonal();
        let dense = op.to_dense();
        let dense_blocks = BlockDiag::from_dense(&dense, c);
        for (k, (g, b)) in dense_blocks
            .blocks()
            .iter()
            .zip(want_blocks.blocks())
            .enumerate()
        {
            assert_eq!(
                bits(g.as_slice()),
                bits(b.as_slice()),
                "{label}: diagonal block {k} of PoolHessian::to_dense differs \
                 from PoolHessian::block_diagonal"
            );
        }
        let gram_w = Matrix::from_fn(n, c, |i, k| z[i] * h[(i, k)] * (T::ONE - h[(i, k)]));

        for tier in available_tiers() {
            let plan = plan_for::<T>(d);
            let mut got = vec![T::ZERO; d * c * s];
            let mut ws = SweepWorkspace::new();
            fisher_sweep_planned(
                tier,
                plan,
                &x,
                &h,
                Some(z),
                v.as_slice(),
                s,
                &mut ws,
                &mut got,
            );
            assert_eq!(
                bits(&got),
                bits(want.as_slice()),
                "{label}: fisher_sweep on tier {tier} differs from PoolHessian"
            );
            let blocks = gram_weighted_multi_planned(tier, plan, &x, &gram_w);
            assert_eq!(blocks.len(), c);
            for (k, (g, b)) in blocks.iter().zip(want_blocks.blocks()).enumerate() {
                assert_eq!(
                    bits(g.as_slice()),
                    bits(b.as_slice()),
                    "{label}: block {k} of the Gram kernel on tier {tier} differs \
                     from PoolHessian::block_diagonal"
                );
            }
        }

        if label == "all zero" {
            assert!(
                want.as_slice().iter().all(|&e| e == T::ZERO),
                "an all-zero weight vector gives a non-zero panel product"
            );
            assert!(
                want_blocks
                    .blocks()
                    .iter()
                    .all(|b| b.as_slice().iter().all(|&e| e == T::ZERO)),
                "an all-zero weight vector gives a non-zero block diagonal"
            );
            assert!(
                dense.as_slice().iter().all(|&e| e == T::ZERO),
                "an all-zero weight vector gives a non-zero dense matrix"
            );
        } else {
            assert!(
                want.as_slice().iter().any(|&e| e != T::ZERO),
                "the zero run must not zero the whole product"
            );
        }
    }
}

#[test]
fn zero_weights_are_bitwise_equal_across_tiers_f32() {
    zero_weight_case::<f32>();
}

#[test]
fn zero_weights_are_bitwise_equal_across_tiers_f64() {
    zero_weight_case::<f64>();
}
