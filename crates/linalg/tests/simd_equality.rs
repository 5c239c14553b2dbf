//! Cross-tier bitwise equality matrix for the four hot kernels, the fused
//! Fisher-panel sweep and the Eq. 17 quadratic-form sweep.
//!
//! The determinism contract of `firal_linalg::gemm` says every tier runs
//! one body per kernel that implements the kernel's canonical per-element
//! summation tree (the `firal_linalg::simd` module docs) at any lane
//! width, so results are **bitwise** identical — not merely close —
//! across tiers, for both dtypes, at any shape. The reference is a
//! plain-loop oracle written here from those trees, one output element at
//! a time and untiled: every tier, `off` (the bodies at one lane)
//! included, must equal it bit for bit. This suite sweeps
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
//! itself or is handed it, with probe counts `s` that straddle both vector
//! widths of the 8- and 16-lane tiers. The reduction kernels' chunking
//! depends on the row count alone, so the leading columns of a call equal
//! a narrower call's. The quadratic-form sweep is held to a dense
//! oracle: two `gemm_into` products on its zero-filled triangles and a row
//! sum, bit for bit, on every tier, thread count and row blocking.

use firal_linalg::simd::{available_tiers, Tier};
use firal_linalg::{
    fisher_sweep_planned, gemm_a_bt, gemm_a_bt_tier, gemm_at_b_tier, gemm_into, gemm_tier,
    gram_weighted_multi_planned, invert_lower, plan_for, Cholesky, KernelPlan, Matrix, QuadSweep,
    Scalar, SweepWorkspace, QUAD_BLOCK_ROWS,
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

/// The plain-loop oracle of the canonical summation trees: each output
/// element summed on its own, in the order the `firal_linalg::simd` module
/// docs pin, with every product rounded before it is added.
mod oracle {
    use super::{Matrix, Scalar};
    use std::ops::Range;

    /// The reduction chunks of `n` rows: `max(⌈n/64⌉, min_rows)` rows
    /// each, the last one short — a function of `n` alone.
    fn chunks(n: usize, min_rows: usize) -> Vec<Range<usize>> {
        let rows = n.div_ceil(64).max(min_rows);
        (0..n).step_by(rows).map(|r| r..(r + rows).min(n)).collect()
    }

    /// `Σ_p a_p·b_p` over `p = 0..k`, ascending from zero.
    fn dot<T: Scalar>(k: usize, term: impl Fn(usize) -> (T, T)) -> T {
        (0..k).fold(T::ZERO, |acc, p| {
            let (a, b) = term(p);
            acc + a * b
        })
    }

    /// `C = A·B`: one accumulator per element, depth ascending.
    pub fn gemm<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            dot(a.cols(), |p| (a[(i, p)], b[(p, j)]))
        })
    }

    /// `C = A·Bᵀ`: the `gemm` tree on `Bᵀ`.
    pub fn gemm_a_bt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            dot(a.cols(), |p| (a[(i, p)], b[(j, p)]))
        })
    }

    /// `C = AᵀB`: per chunk of at least 64 rows, rows join in groups of
    /// four from the chunk's first row, `acc += ((a₀b₀ + a₁b₁) + a₂b₂) +
    /// a₃b₃`, trailing rows singly; chunk sums added in order from zero.
    pub fn gemm_at_b<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let chunks = chunks(a.rows(), 64);
        Matrix::from_fn(a.cols(), b.cols(), |i, j| {
            let term = |r: usize| a[(r, i)] * b[(r, j)];
            chunks.iter().fold(T::ZERO, |total, rows| {
                let rows: Vec<usize> = rows.clone().collect();
                let groups = rows.chunks_exact(4);
                let tail = groups.remainder();
                let acc = groups.fold(T::ZERO, |acc, g| {
                    acc + (((term(g[0]) + term(g[1])) + term(g[2])) + term(g[3]))
                });
                total + tail.iter().fold(acc, |acc, &r| acc + term(r))
            })
        })
    }

    /// `G_k = Xᵀdiag(W[:, k])X`: element `(p, q)`, `p ≤ q`, is per chunk of
    /// at least 128 rows `acc += (w·x_p)·x_q` over the rows of non-zero
    /// weight ascending; chunk sums added in order from zero; mirrored.
    pub fn gram<T: Scalar>(x: &Matrix<T>, w: &Matrix<T>) -> Vec<Matrix<T>> {
        let chunks = chunks(x.rows(), 128);
        (0..w.cols())
            .map(|k| {
                Matrix::from_fn(x.cols(), x.cols(), |p, q| {
                    let (p, q) = (p.min(q), p.max(q));
                    chunks.iter().fold(T::ZERO, |total, rows| {
                        let live = rows.clone().filter(|&i| w[(i, k)] != T::ZERO);
                        total
                            + live.fold(T::ZERO, |acc, i| acc + (w[(i, k)] * x[(i, p)]) * x[(i, q)])
                    })
                })
            })
            .collect()
    }

    /// `Σᵢ zᵢ·(G(hᵢ) ⊗ xᵢxᵢᵀ)·V` for the stacked `ê × s` panel `v`, as the
    /// `firal_linalg::sweep` module docs pin it: `Γ[i][k·s+j]` in the `gemm`
    /// tree, `α[i][j]` over `k` ascending from zero,
    /// `Γ' = ((Γ − α)·zᵢ)·h[i][k]` (no `zᵢ` factor when unweighted), then
    /// `Σᵢ x[i][p]·Γ'[i][q]` rows ascending per chunk — `⌈n / r⌉` chunks of
    /// `⌈n / ⌈n / r⌉⌉` rows, `r = max(⌈n/64⌉, 256)` — chunk sums in order.
    pub fn fisher_sweep<T: Scalar>(
        x: &Matrix<T>,
        h: &Matrix<T>,
        z: Option<&[T]>,
        v: &Matrix<T>,
    ) -> Vec<T> {
        let ((n, d), c, s) = (x.shape(), h.cols(), v.cols());
        let scaled: Vec<Vec<T>> = (0..n)
            .map(|i| {
                let gamma: Vec<T> = (0..c * s)
                    .map(|q| dot(d, |t| (x[(i, t)], v[((q / s) * d + t, q % s)])))
                    .collect();
                (0..c * s)
                    .map(|q| {
                        let (k, j) = (q / s, q % s);
                        let alpha = dot(c, |k| (gamma[k * s + j], h[(i, k)]));
                        let t = gamma[q] - alpha;
                        match z {
                            Some(z) => (t * z[i]) * h[(i, k)],
                            None => t * h[(i, k)],
                        }
                    })
                    .collect()
            })
            .collect();
        let nchunks = n.div_ceil(n.div_ceil(64).max(256));
        let rows = n.div_ceil(nchunks);
        let mut out = vec![T::ZERO; d * c * s];
        for (e, o) in out.iter_mut().enumerate() {
            // Stacked element `e` is probe `j` of row `p` of block `k`.
            let (k, p, j) = (e / (d * s), e / s % d, e % s);
            *o = (0..nchunks).fold(T::ZERO, |total, ci| {
                let chunk = ci * rows..((ci + 1) * rows).min(n);
                total + chunk.fold(T::ZERO, |acc, i| acc + x[(i, p)] * scaled[i][k * s + j])
            });
        }
        out
    }
}

/// The operands of [`kernel_bits`] at one shape.
#[allow(
    clippy::type_complexity,
    reason = "a tuple of the operands, read once by destructuring"
)]
fn kernel_operands<T: Scalar>(
    n: usize,
    d: usize,
    m: usize,
) -> (Matrix<T>, Matrix<T>, Matrix<T>, Matrix<T>, Matrix<T>) {
    (
        test_mat::<T>(n, d, 1000 + n as u64, false),
        test_mat::<T>(n, m, 2000 + d as u64, false),
        test_mat::<T>(d, m, 3000 + m as u64, false),
        test_mat::<T>(m, d, 4000 + n as u64, false),
        // `m` class blocks of order `d` would dominate the suite at m = 90.
        test_mat::<T>(n, m.min(9), 6000 + n as u64, true),
    )
}

/// All four kernels at one shape on one tier, concatenated bit patterns.
fn kernel_bits<T: Scalar>(tier: Tier, n: usize, d: usize, m: usize) -> Vec<u64> {
    let (a, b, sq, bm, wpanel) = kernel_operands::<T>(n, d, m);
    let mut out = Vec::new();
    out.extend(bits(&gemm_tier(tier, &a, &sq)));
    out.extend(bits(&gemm_at_b_tier(tier, &a, &b)));
    out.extend(bits(&gemm_a_bt_tier(tier, &a, &bm)));
    for g in gram_weighted_multi_planned(tier, plan_for::<T>(d), &a, &wpanel) {
        out.extend(bits(&g));
    }
    out
}

/// [`kernel_bits`] from the plain-loop oracle.
fn oracle_bits<T: Scalar>(n: usize, d: usize, m: usize) -> Vec<u64> {
    let (a, b, sq, bm, wpanel) = kernel_operands::<T>(n, d, m);
    let mut out = Vec::new();
    out.extend(bits(&oracle::gemm(&a, &sq)));
    out.extend(bits(&oracle::gemm_at_b(&a, &b)));
    out.extend(bits(&oracle::gemm_a_bt(&a, &bm)));
    for g in oracle::gram(&a, &wpanel) {
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
                    let reference = oracle_bits::<T>(n, d, m);
                    for &tier in &tiers {
                        assert_eq!(
                            kernel_bits::<T>(tier, n, d, m),
                            reference,
                            "tier {tier} diverges from the oracle at n={n} d={d} m={m}"
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

/// The SIMD Gram body packs a chunk's zero-padded `X` once for all of a
/// class block's classes when none of their weights in the chunk is zero,
/// and once per class otherwise; both must give the canonical per-class
/// bits of the scalar tier. One zero weight (class 0, one row) sends its
/// chunk down the per-class path for every class of its class block; with
/// one class per block the other classes still pack once.
fn gram_pack_once_case<T: Scalar>() {
    let n = 777; // seven reduction chunks of 128 rows
    for d in [3usize, 20, 50] {
        let a = test_mat::<T>(n, d, 51, false);
        let live = Matrix::from_fn(n, 5, |i, k| {
            T::from_f64(0.1 + ((i * 3 + k * 7) % 11) as f64 / 11.0)
        });
        let mut one_zero = live.clone();
        one_zero[(300, 0)] = T::ZERO;
        for (label, w) in [("no zero weight", &live), ("one zero weight", &one_zero)] {
            let host = plan_for::<T>(d);
            let reference = gram_weighted_multi_planned(Tier::Scalar, host, &a, w);
            for tier in available_tiers() {
                for class_block in [1usize, 16] {
                    let plan = KernelPlan {
                        class_block,
                        ..host
                    };
                    let gs = gram_weighted_multi_planned(tier, plan, &a, w);
                    for (k, (g, r)) in gs.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            bits(g),
                            bits(r),
                            "gram {label}: tier {tier} d={d} class_block={class_block} block {k}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gram_pack_once_matches_per_class_packing_f64() {
    gram_pack_once_case::<f64>();
}

#[test]
fn gram_pack_once_matches_per_class_packing_f32() {
    gram_pack_once_case::<f32>();
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
/// unweighted panel. Each is also swept as the left half of `[W | V]`, the
/// `2s`-column panel RELAX's Line 7 sweeps once: both halves must equal
/// their own sweeps column for column, bit for bit.
fn sweep_bits<T: Scalar>(
    tier: Tier,
    plan: KernelPlan,
    (n, d, c, s): (usize, usize, usize, usize),
) -> Vec<u64> {
    let (x, h, z) = sweep_operands::<T>(n, d, c);
    let w = test_mat::<T>(d * c, s, 8000 + (c * s) as u64, false);
    let v = test_mat::<T>(d * c, s, 9000 + (c * s) as u64, false);
    let both = Matrix::from_fn(
        d * c,
        2 * s,
        |i, j| {
            if j < s {
                w[(i, j)]
            } else {
                v[(i, j - s)]
            }
        },
    );
    let to_bits = |vals: &[T]| {
        vals.iter()
            .map(|v| v.to_f64().to_bits())
            .collect::<Vec<_>>()
    };
    let mut ws = SweepWorkspace::new();
    let mut out = Vec::new();
    for z in [None, Some(z.as_slice())] {
        let mut sweep = |panel: &Matrix<T>| {
            let cols = panel.cols();
            let mut y = Matrix::zeros(d * c, cols);
            let (panel, y_out) = (panel.as_slice(), y.as_mut_slice());
            fisher_sweep_planned(tier, plan, &x, &h, z, panel, cols, &mut ws, y_out);
            y
        };
        let (alone_w, alone_v, stacked) = (sweep(&w), sweep(&v), sweep(&both));
        for (j, alone) in (0..2 * s).map(|j| (j, if j < s { &alone_w } else { &alone_v })) {
            assert_eq!(
                to_bits(&stacked.col(j)),
                to_bits(&alone.col(j % s)),
                "tier {tier}: column {j} of [W | V] differs from its own sweep at \
                 n={n} d={d} c={c} s={s}"
            );
        }
        out.extend(to_bits(alone_w.as_slice()));
    }
    out
}

/// [`sweep_bits`] from the plain-loop oracle.
fn oracle_sweep_bits<T: Scalar>((n, d, c, s): (usize, usize, usize, usize)) -> Vec<u64> {
    let (x, h, z) = sweep_operands::<T>(n, d, c);
    let w = test_mat::<T>(d * c, s, 8000 + (c * s) as u64, false);
    [None, Some(z.as_slice())]
        .into_iter()
        .flat_map(|z| oracle::fisher_sweep(&x, &h, z, &w))
        .map(|v| v.to_f64().to_bits())
        .collect()
}

fn fused_sweep_equality<T: Scalar>() {
    // n < 4, n % 4 ≠ 0, several reduction chunks (n > 256); d and c·s off
    // every lane multiple; s below, at and above the lane counts.
    let mut shapes = vec![
        (1usize, 3usize, 2usize, 1usize),
        (3, 20, 9, 10),
        (7, 5, 4, 3),
        (1003, 50, 2, 16),
        (777, 100, 1, 9),
    ];
    // Probe counts straddling both vector widths of the wide tiers (8 and
    // 16 lanes in f32, 4 and 8 in f64), so the Lemma-2 scaling runs at
    // full, half and scalar width; at c = 9, s = 20 is the m = 180 panel,
    // padded to 184 at 8 lanes and to 192 at 16.
    for d in [20usize, 50] {
        for s in [1usize, 7, 8, 9, 10, 15, 16, 17, 20] {
            shapes.push((301, d, 9, s));
        }
    }
    for shape in shapes {
        let reference = oracle_sweep_bits::<T>(shape);
        let tuned = plan_for::<T>(shape.1);
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

/// The first `k` columns of a reduction call equal a `k`-column call, bit
/// for bit: chunking follows the row count alone, so adding columns —
/// here up to the `k(k+1)/2` pairs of a dense Fisher assembly, enough to
/// cross the parallel threshold the `k`-column call stays under — moves no
/// partial-sum split.
fn leading_columns_case<T: Scalar>() {
    for (n, d, k) in [(200usize, 4usize, 9usize), (150, 5, 4)] {
        let wide = k * (k + 1) / 2;
        let x = test_mat::<T>(n, d, 9600 + n as u64, false);
        let w = test_mat::<T>(n, wide, 9700 + n as u64, true);
        let narrow = Matrix::from_fn(n, k, |i, j| w[(i, j)]);
        let plan = plan_for::<T>(d);
        for tier in available_tiers() {
            let grams = gram_weighted_multi_planned(tier, plan, &x, &w);
            for (j, g) in gram_weighted_multi_planned(tier, plan, &x, &narrow)
                .iter()
                .enumerate()
            {
                assert_eq!(
                    bits(g),
                    bits(&grams[j]),
                    "gram column {j} of {wide} vs of {k}: tier {tier} n={n} d={d}"
                );
            }
            let full = gemm_at_b_tier(tier, &x, &w);
            let lead = Matrix::from_fn(d, k, |i, j| full[(i, j)]);
            assert_eq!(
                bits(&lead),
                bits(&gemm_at_b_tier(tier, &x, &narrow)),
                "gemm_at_b {k} of {wide} columns: tier {tier} n={n} d={d}"
            );
        }
    }
}

#[test]
fn leading_columns_do_not_depend_on_the_call_width_f64() {
    leading_columns_case::<f64>();
}

#[test]
fn leading_columns_do_not_depend_on_the_call_width_f32() {
    leading_columns_case::<f32>();
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
    sweep
        .factor_group(std::slice::from_ref(&l_inv), |_, i, row| {
            row.copy_from_slice(&m.row(i)[..=i]);
        })
        .unwrap();
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
            let (r_inv_t, n_inv) = loaded_quad::<T>(Tier::Scalar, QUAD_BLOCK_ROWS, d).triangles(0);
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
                            bits(&sweep.triangles(0).0),
                            bits(&r_inv_t),
                            "the loaded block is tier-independent"
                        );
                        let mut scores = start.as_slice().to_vec();
                        pool.install(|| sweep.accumulate(&x.transpose(), &g, 2, eta, &mut scores));
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
