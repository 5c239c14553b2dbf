//! Cross-tier bitwise equality matrix for the four hot kernels, the fused
//! Fisher-panel sweep and the Eq. 17 quadratic-form sweep.
//!
//! The determinism contract of `firal_linalg::gemm` says every available
//! SIMD tier implements the same canonical per-element summation tree as
//! the scalar panels, so results are **bitwise** identical — not merely
//! close — across tiers, for both dtypes, at any shape. This suite sweeps
//! deliberately awkward shapes: `n` values that are not multiples of any
//! lane width (and straddle the parallel threshold and the 4-row tile),
//! `d ∈ {1, 3, 64, 65}` (sub-lane, odd, lane-aligned, lane-misaligned),
//! and `m ∈ {1, 4, 8, 12}` (degenerate, half, one and one-and-a-half of the
//! `AᵀB` microkernel's fixed eight-column block), plus the paper's Table V
//! dimensions `d ∈ {20, 50, 100}` — none a lane multiple in f32 — against
//! `m = (c-1)·s ∈ {9, 90}`. It also pins that the blocking plan
//! (`class_block`, `sweep_bytes`), which differs between hosts, is
//! bit-neutral, and that the fused sweep gives one answer on every tier, at
//! 1, 2 and 4 pool threads, under every plan, whether it forms `X·V`
//! itself or is handed it. The quadratic-form sweep is held to a dense
//! oracle: two `gemm_into` products on its zero-filled triangles and a row
//! sum, bit for bit, on every tier, thread count and row blocking.

use firal_linalg::simd::{available_tiers, Tier};
use firal_linalg::{
    fisher_sweep_planned, gemm_a_bt, gemm_a_bt_tier, gemm_at_b_tier, gemm_into, gemm_tier,
    gram_weighted_multi_planned, invert_lower, plan_for, to_wide, Cholesky, KernelPlan, Matrix,
    QuadSweep, Scalar, SweepInput, SweepWorkspace, QUAD_BLOCK_ROWS,
};

/// Deterministic LCG test matrix, generic over dtype. A sprinkling of
/// exact zeros exercises the `w == 0` skip path of the Gram kernels.
fn test_mat<T: Scalar>(rows: usize, cols: usize, seed: u64, with_zeros: bool) -> Matrix<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut idx = 0u64;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        idx += 1;
        if with_zeros && idx.is_multiple_of(7) {
            T::ZERO
        } else {
            T::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
        }
    })
}

/// Bit pattern of a matrix, dtype-independent (`f32 → f64` is exact, so
/// equal f64 bits ⇔ equal original bits).
fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// All four kernels at one shape on one tier, concatenated bit patterns.
fn kernel_bits<T: Scalar>(tier: Tier, n: usize, d: usize, m: usize) -> Vec<u64> {
    let a = test_mat::<T>(n, d, 1000 + n as u64, false);
    let b = test_mat::<T>(n, m, 2000 + d as u64, false);
    let sq = test_mat::<T>(d, m, 3000 + m as u64, false);
    let bm = test_mat::<T>(m, d, 4000 + n as u64, false);
    // `m` class blocks of order `d` would dominate the suite at m = 90.
    let wpanel = test_mat::<T>(n, m.min(9), 6000 + n as u64, true);

    let mut out = Vec::new();
    out.extend(bits(&gemm_tier(tier, &a, &sq)));
    out.extend(bits(&gemm_at_b_tier(tier, &a, &b)));
    out.extend(bits(&gemm_a_bt_tier(tier, &a, &bm)));
    for g in gram_weighted_multi_planned(tier, plan_for::<T>(d), &a, &wpanel) {
        out.extend(bits(&g));
    }
    out
}

fn equality_sweep<T: Scalar>() {
    let tiers = available_tiers();
    assert_eq!(tiers[0], Tier::Scalar);
    let awkward: (&[usize], &[usize], &[usize]) =
        (&[1, 7, 129, 1003], &[1, 3, 64, 65], &[1, 4, 8, 12]);
    let table_v: (&[usize], &[usize], &[usize]) = (&[6, 301], &[20, 50, 100], &[9, 90]);
    for (ns, ds, ms) in [awkward, table_v] {
        for &n in ns {
            for &d in ds {
                for &m in ms {
                    let reference = kernel_bits::<T>(Tier::Scalar, n, d, m);
                    for &tier in &tiers[1..] {
                        assert_eq!(
                            kernel_bits::<T>(tier, n, d, m),
                            reference,
                            "tier {tier} diverges from scalar at n={n} d={d} m={m}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_tiers_bitwise_equal_scalar_f64() {
    equality_sweep::<f64>();
}

#[test]
fn all_tiers_bitwise_equal_scalar_f32() {
    equality_sweep::<f32>();
}

/// Every class blocking yields identical bits: the plan follows the host's
/// cache sizes, so this is what keeps SPMD ranks on different hosts bitwise
/// reproducible.
#[test]
fn block_plan_is_bit_neutral() {
    let n = 777;
    for d in [3usize, 20, 50, 64, 65, 100] {
        let a = test_mat::<f64>(n, d, 42, false);
        let wpanel = test_mat::<f64>(n, 5, 44, true);
        for tier in available_tiers() {
            let host = plan_for::<f64>(d);
            let reference = gram_weighted_multi_planned(tier, host, &a, &wpanel);
            for class_block in [1usize, 2, 16] {
                let plan = KernelPlan {
                    class_block,
                    ..host
                };
                let gs = gram_weighted_multi_planned(tier, plan, &a, &wpanel);
                assert_eq!(gs.len(), reference.len());
                for (g, r) in gs.iter().zip(reference.iter()) {
                    assert_eq!(bits(g), bits(r), "multi: tier {tier} d={d} plan {plan:?}");
                }
            }
        }
    }
}

/// Probabilities shaped like `c` entries of a softmax row, with a
/// sprinkling of exact zeros in the weights.
fn sweep_operands<T: Scalar>(n: usize, d: usize, c: usize) -> (Matrix<T>, Matrix<T>, Vec<T>) {
    let x = test_mat::<T>(n, d, 7000 + (n * d) as u64, false);
    let h = Matrix::from_fn(n, c, |i, k| {
        T::from_f64(0.02 + 0.9 * ((i * 5 + k * 3) % 13) as f64 / 13.0 / c as f64)
    });
    let z = (0..n)
        .map(|i| T::from_f64((i % 5) as f64 * 0.125))
        .collect();
    (x, h, z)
}

/// Bits of the fused sweep on one tier and plan, for the weighted and the
/// unweighted panel, formed from the stacked panel and from `X·V` computed
/// by `gemm` on the same tier (all four must agree pairwise too).
fn sweep_bits<T: Scalar>(
    tier: Tier,
    plan: KernelPlan,
    (n, d, c, s): (usize, usize, usize, usize),
) -> Vec<u64> {
    let (x, h, z) = sweep_operands::<T>(n, d, c);
    let v = test_mat::<T>(d * c, s, 8000 + (c * s) as u64, false);
    let products = gemm_tier(tier, &x, &to_wide(&v, d, c));
    let mut ws = SweepWorkspace::new();
    let mut out = Vec::new();
    for z in [None, Some(z.as_slice())] {
        let mut from_panel = vec![T::ZERO; d * c * s];
        let mut from_products = vec![T::ZERO; d * c * s];
        let panel = SweepInput::Panel(v.as_slice());
        fisher_sweep_planned(tier, plan, &x, &h, z, panel, s, &mut ws, &mut from_panel);
        let shared = SweepInput::Products(&products);
        fisher_sweep_planned(
            tier,
            plan,
            &x,
            &h,
            z,
            shared,
            s,
            &mut ws,
            &mut from_products,
        );
        assert!(
            from_panel
                .iter()
                .zip(&from_products)
                .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits()),
            "tier {tier}: shared X·V changes the sweep at n={n} d={d} c={c} s={s}"
        );
        out.extend(from_panel.iter().map(|v| v.to_f64().to_bits()));
    }
    out
}

fn fused_sweep_equality<T: Scalar>() {
    // n < 4, n % 4 ≠ 0, several reduction chunks (n > 256); d and c·s off
    // every lane multiple; s below, at and above the lane counts.
    let shapes = [
        (1usize, 3usize, 2usize, 1usize),
        (3, 20, 9, 10),
        (7, 5, 4, 3),
        (301, 20, 9, 10),
        (1003, 50, 2, 16),
        (777, 100, 1, 9),
    ];
    for shape in shapes {
        let d = shape.1;
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let reference = serial.install(|| sweep_bits::<T>(Tier::Scalar, plan_for::<T>(d), shape));
        let tuned = plan_for::<T>(d);
        for tier in available_tiers() {
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for sweep_bytes in [1usize, 1 << 12, tuned.sweep_bytes, 1 << 22] {
                    let plan = KernelPlan {
                        sweep_bytes,
                        ..tuned
                    };
                    assert_eq!(
                        pool.install(|| sweep_bits::<T>(tier, plan, shape)),
                        reference,
                        "sweep: tier {tier} threads {threads} {plan:?} at {shape:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_sweep_is_bitwise_equal_across_tiers_threads_and_plans_f64() {
    fused_sweep_equality::<f64>();
}

#[test]
fn fused_sweep_is_bitwise_equal_across_tiers_threads_and_plans_f32() {
    fused_sweep_equality::<f32>();
}

/// `A·Aᵀ + d·I` for a seeded `A`: SPD and well conditioned in f32.
fn spd_mat<T: Scalar>(d: usize, seed: u64) -> Matrix<T> {
    let a = test_mat::<T>(d, d, seed, false);
    let mut m = gemm_a_bt(&a, &a);
    m.add_diag(T::from_usize(d));
    m
}

/// A sweep on `tier` loaded with the block `B = L·M·Lᵀ` of seeded SPD `M`
/// and `L·Lᵀ`.
fn loaded_quad<T: Scalar>(tier: Tier, block_rows: usize, d: usize) -> QuadSweep<T> {
    let l = Cholesky::new(&spd_mat::<T>(d, 9100 + d as u64)).unwrap();
    let mut l_inv = Matrix::zeros(d, d);
    invert_lower(l.l().as_slice(), d, l_inv.as_mut_slice(), d, d);
    let m = spd_mat::<T>(d, 9200 + d as u64);
    let mut sweep = QuadSweep::on_tier(tier, block_rows, d);
    for i in 0..d {
        sweep.m_row_mut(i).copy_from_slice(&m.row(i)[..=i]);
    }
    sweep.factor(&l_inv).unwrap();
    sweep
}

fn quad_sweep_equals_dense_oracle<T: Scalar>() {
    let eta = T::from_f64(3.5);
    // d below a lane, off a lane multiple, on one; n empty, under a 4-row
    // tile, under a block, several tasks.
    for d in [1usize, 3, 16, 20, 50] {
        for n in [0usize, 1, 3, 33, 600] {
            let x = test_mat::<T>(n, d, 9300 + (n * d) as u64, false);
            let g = test_mat::<T>(n, 3, 9400 + n as u64, true);
            let start = test_mat::<T>(n, 1, 9500 + n as u64, false);

            // The oracle: Z = X·R⁻ᵀ and Y = Z·N⁻¹ as dense products on the
            // zero-filled triangles, q = Σ_j v_j² ascending from zero.
            let (r_inv_t, n_inv) = loaded_quad::<T>(Tier::Scalar, QUAD_BLOCK_ROWS, d).triangles();
            let mut z = vec![T::ZERO; n * d];
            let mut y = vec![T::ZERO; n * d];
            gemm_into(x.as_slice(), &r_inv_t, &mut z);
            gemm_into(&z, &n_inv, &mut y);
            let norm = |v: &[T]| v.iter().fold(T::ZERO, |q, &e| q + e * e);
            let want: Vec<u64> = (0..n)
                .map(|i| {
                    let (q1, q2) = (norm(&z[i * d..(i + 1) * d]), norm(&y[i * d..(i + 1) * d]));
                    let gi = g[(i, 2)];
                    let score = start[(i, 0)] + gi * q2 / (T::ONE + eta * gi * q1);
                    score.to_f64().to_bits()
                })
                .collect();

            for tier in available_tiers() {
                for threads in [1usize, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    for block_rows in [1usize, 4, 30, QUAD_BLOCK_ROWS] {
                        let mut sweep = loaded_quad::<T>(tier, block_rows, d);
                        assert_eq!(
                            bits(&sweep.triangles().0),
                            bits(&r_inv_t),
                            "the loaded block is tier-independent"
                        );
                        let mut scores = start.as_slice().to_vec();
                        pool.install(|| sweep.accumulate(&x, &g, 2, eta, &mut scores));
                        let got: Vec<u64> = scores.iter().map(|s| s.to_f64().to_bits()).collect();
                        assert_eq!(
                            got, want,
                            "quad sweep: tier {tier} threads {threads} blocks of {block_rows} \
                             at n={n} d={d}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn quad_sweep_is_bitwise_the_dense_two_gemm_oracle_f64() {
    quad_sweep_equals_dense_oracle::<f64>();
}

#[test]
fn quad_sweep_is_bitwise_the_dense_two_gemm_oracle_f32() {
    quad_sweep_equals_dense_oracle::<f32>();
}

/// Degenerate shapes must not panic and must agree across tiers.
#[test]
fn degenerate_shapes_are_consistent() {
    for tier in available_tiers() {
        let empty = test_mat::<f64>(0, 4, 9, false);
        let b = test_mat::<f64>(0, 3, 10, false);
        assert_eq!(gemm_at_b_tier(tier, &empty, &b).shape(), (4, 3));
        let x1 = test_mat::<f64>(5, 4, 11, false);
        let w0 = Matrix::<f64>::zeros(5, 0);
        assert!(gram_weighted_multi_planned(tier, plan_for::<f64>(4), &x1, &w0).is_empty());
    }
}
