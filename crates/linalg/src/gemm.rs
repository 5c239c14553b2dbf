//! Parallel dense matrix-matrix kernels.
//!
//! These are the hot kernels of Approx-FIRAL's RELAX step: the matrix-free
//! Hessian matvec of Lemma 2 vectorizes into two tall-skinny GEMMs over the
//! pool panel (`X·V` then `Xᵀ·Γ` — RELAX runs them fused, see
//! [`mod@crate::sweep`], on the bodies defined here), and the CG
//! preconditioner of Definition 1 is a set of weighted Gram matrices
//! `Xᵀdiag(w_k)X`. All kernels are
//! rayon-parallel over the long (pool) dimension, mirroring how the paper
//! shards the pool across GPUs, with panel blocking over the pool dimension
//! and 4-wide register-tiled inner loops (the tall-skinny analogue of a
//! blocked GEMM: operand panels are reused across a 4-row tile instead of
//! being re-streamed per row).
//!
//! Every kernel exists in two forms: the plain entry point (`gemm` etc.),
//! which runs on the process-wide SIMD tier picked once by
//! [`crate::simd::active_tier`], and one explicit `*_tier` (or, where a
//! blocking plan is read, `*_planned`) variant that the equality harnesses
//! use to cross-check every available tier bitwise. This module holds the
//! shape checks, the row and chunk loops and the reductions; the one
//! body of each kernel lives in `crate::simd` and runs on every tier, `off`
//! included (at one lane). The class blocking of [`gram_weighted_multi`]
//! comes from [`crate::autotune`].
//!
//! # Determinism contract
//!
//! Every kernel's result depends only on operand shapes and values — never
//! on the worker-thread count **or the dispatch tier**:
//!
//! * **row-parallel kernels** ([`gemm`], [`gemm_a_bt`]) produce each output
//!   row in exactly one task with a fixed depth-ascending accumulation
//!   order, so any row grouping yields identical bits;
//! * **reduction kernels** ([`gemm_at_b`], [`gram_weighted_multi`]) split
//!   their rows at chunk boundaries fixed by the row count alone
//!   (`reduce_chunk_rows` — never `rayon::current_num_threads()`, nor the
//!   number of output columns) and add the chunks' partial accumulators in
//!   chunk-index order; a pure shape predicate (`PAR_THRESHOLD`) decides
//!   only whether the chunks are mapped on the pool or one after another.
//!   So an output column's bits do not depend on which other columns
//!   share the call;
//! * every tier runs the same body, which implements one canonical
//!   per-element summation tree at any lane width (lanes span output
//!   elements, never a reduction axis; all arithmetic unfused — see the
//!   `crate::simd` module docs), and the cache-derived blocking plan is
//!   bit-neutral by construction.
//!
//! Consequence: `FIRAL_NUM_THREADS ∈ {1, 2, …}` (or any
//! `ThreadPool::install` scope) crossed with `FIRAL_SIMD ∈ {off, sse2,
//! avx2, avx512, neon}` produces bitwise-identical numerics, which the SPMD
//! consistency matrix in `tests/parallel_consistency.rs` and the
//! `simd_equality` suite rely on.

use rayon::prelude::*;

use crate::autotune::{self, KernelPlan};
use crate::counters;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::{self, check_tier, AtBChunk, GemmPanel, GramRows, Tier};

/// Work threshold (in multiply-adds) below which kernels run sequentially.
/// Parallelizing tiny GEMMs costs more in task dispatch than it saves.
pub(crate) const PAR_THRESHOLD: usize = 1 << 15;

/// Rows per parallel task in the row-parallel kernels — a multiple of the
/// 4-row micro-tile so full tasks never run single-row tiles.
const ROW_BLOCK: usize = 32;

/// Cap on the number of reduction chunks: the most ways a reduction's sum
/// is ever split. Memory does not scale with it — `reduce_row_chunks`
/// holds one wave of partials, one per pool thread, plus the running
/// total — except in [`crate::sweep::fisher_sweep`], whose `d × c·s`
/// partials stay in its reusable workspace, one per chunk.
const MAX_REDUCE_CHUNKS: usize = 64;

/// Fewest rows in a reduction chunk of the Gram kernels. A chunk zeroes and
/// later reduces a whole `c·d²` accumulator set, which at a few dozen rows
/// costs as much as the chunk's arithmetic.
const GRAM_CHUNK_ROWS: usize = 128;

/// Deterministic reduction chunking: rows per chunk as a function of the
/// problem shape **only** (never the worker count), so chunk boundaries —
/// and therefore floating-point partial-sum splits — are identical at every
/// thread count.
pub(crate) fn reduce_chunk_rows(n: usize, min_rows: usize) -> usize {
    n.div_ceil(MAX_REDUCE_CHUNKS).max(min_rows)
}

/// The map-reduce shared by the reduction kernels: `partial(rows)` for the
/// row chunks of `0..n` that [`reduce_chunk_rows`] fixes, added **in chunk
/// order** onto a zero accumulator of `len` elements. With `par`, chunks
/// are mapped one wave at a time, as many per wave as the pool has
/// threads, and each wave is folded in before the next starts, so at most
/// one wave of partials is alive; without it, waves of one chunk, which
/// the pool maps inline on the calling thread. Neither `par` nor the wave
/// width changes the chunk boundaries or the fold order, so the sum is the
/// same bits either way.
fn reduce_row_chunks<T: Scalar>(
    n: usize,
    min_rows: usize,
    len: usize,
    par: bool,
    partial: impl Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let chunk_rows = reduce_chunk_rows(n, min_rows);
    let chunks: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk_rows)
        .map(|start| start..(start + chunk_rows).min(n))
        .collect();
    #[allow(
        clippy::disallowed_methods,
        reason = "sizes the wave of live partials only; chunks and fold order are shape-fixed"
    )]
    let threads = rayon::current_num_threads().max(1);
    let wave = if par { threads } else { 1 };
    let mut total = vec![T::ZERO; len];
    for group in chunks.chunks(wave) {
        let parts: Vec<Vec<T>> = group.to_vec().into_par_iter().map(&partial).collect();
        for part in &parts {
            for (t, v) in total.iter_mut().zip(part) {
                *t += *v;
            }
        }
    }
    total
}

/// `C = A · B` on the process-wide dispatch tier.
///
/// Row-parallel over 4-row tiles, `ikj` loop order so both `B` and `C`
/// stream row-major; each `B` row is reused across the 4-row tile.
pub fn gemm<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    gemm_tier(simd::active_tier(), a, b)
}

/// [`gemm`] on an explicit dispatch tier (must be available on this host;
/// see [`crate::simd::available_tiers`]). Bitwise identical across tiers.
pub fn gemm_tier<T: Scalar>(tier: Tier, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: A is {m}x{k}, B is {kb}x{n}");
    let mut c = Matrix::zeros(m, n);
    gemm_acc(tier, a.as_slice(), b, c.as_mut_slice());
    c
}

/// [`gemm`] on a block of rows into caller-owned storage: `a` is
/// `rows × k` row-major, `c` is `rows × n` and is overwritten. Output rows
/// are independent, so the product of a row block is bit for bit the
/// matching rows of the whole product — what lets a consumer that reads
/// `A·B` one block at a time (the Hutchinson gradients) never hold all
/// of it.
pub fn gemm_into<T: Scalar>(a: &[T], b: &Matrix<T>, c: &mut [T]) {
    c.fill(T::ZERO);
    gemm_acc(simd::active_tier(), a, b, c);
}

/// `C += A·B` on flat row-major `A` (`rows × k`) and `C` (`rows × n`).
fn gemm_acc<T: Scalar>(tier: Tier, a: &[T], b: &Matrix<T>, c: &mut [T]) {
    check_tier(tier);
    let (k, n) = b.shape();
    // The row count, from whichever operand has a non-zero width.
    let m = c
        .len()
        .checked_div(n)
        .or_else(|| a.len().checked_div(k))
        .unwrap_or(0);
    assert_eq!(a.len(), m * k, "gemm: A is not {m}x{k}");
    assert_eq!(c.len(), m * n, "gemm: C is not {m}x{n}");
    counters::add_flops(counters::gemm_flops(m, n, k));

    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_row_blocks(tier, a, b, c);
}

/// The row-parallel driver of [`gemm`] and [`gemm_a_bt`]: `C += A·B` for
/// non-empty row-major `A` (`m × k`), `B` (`k × n`), `C` (`m × n`), one
/// [`gemm_panel`] per [`ROW_BLOCK`] rows above [`PAR_THRESHOLD`].
fn gemm_row_blocks<T: Scalar>(tier: Tier, a: &[T], b: &Matrix<T>, c: &mut [T]) {
    let (k, n) = b.shape();
    let m = a.len() / k;
    let body = |ci: &mut [T], ai: &[T]| {
        gemm_panel(tier, ci, n, ai, k, b.as_slice(), n, ai.len() / k, k, n)
    };
    if m * n * k >= PAR_THRESHOLD && m > 1 {
        c.par_chunks_mut(ROW_BLOCK * n)
            .zip(a.par_chunks(ROW_BLOCK * k))
            .for_each(|(ci, ai)| body(ci, ai));
    } else {
        body(c, a);
    }
}

/// `C[r] += A[r] · B` for a panel of `rows` rows on `tier` (`A` is
/// `rows × k`, `B` is `k × n`, all row-major with leading dimensions
/// `lda`, `ldb`, `ldc`): the GEMM panel body of `crate::simd`. Per element
/// one accumulator, depth-ascending (`p`) onto the incoming `C` value, the
/// same for every row, so the result does not depend on how rows are
/// grouped into panels. Panics if a slice is too short for its shape.
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-shaped: each operand travels as a slice with its leading dimension"
)]
pub(crate) fn gemm_panel<T: Scalar>(
    tier: Tier,
    c: &mut [T],
    ldc: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    if rows == 0 || k == 0 || n == 0 {
        return;
    }
    let panel = GemmPanel {
        c,
        ldc,
        a,
        lda,
        b,
        ldb,
        rows,
        k,
        n,
    };
    T::simd_run(tier, panel);
}

/// `C = Aᵀ · B` where `A` is `n × d` and `B` is `n × m` (both tall-skinny),
/// on the process-wide dispatch tier.
///
/// This is the reduction-shaped GEMM of the fast Hessian matvec (Eq. 13):
/// the pool dimension `n` is long, the output `d × m` is small. Implemented
/// as a map-reduce over shape-fixed row chunks with per-chunk `d × m`
/// accumulators combined in chunk order — the shared-memory analogue of the
/// paper's per-GPU partial sums followed by `MPI_Allreduce`. The chunk body
/// is the reduction microkernel of `simd/body.rs`: rows in 4-row groups,
/// eight output columns per pass, `A` read in place, the last `d % lanes`
/// columns riding in a staged zero-padded strip of their own.
pub fn gemm_at_b<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    gemm_at_b_tier(simd::active_tier(), a, b)
}

/// [`gemm_at_b`] on an explicit dispatch tier. Bitwise identical across
/// tiers.
pub fn gemm_at_b_tier<T: Scalar>(tier: Tier, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    check_tier(tier);
    let (n, d) = a.shape();
    let (nb, m) = b.shape();
    assert_eq!(n, nb, "gemm_at_b: A is {n}x{d}, B is {nb}x{m}");
    counters::add_flops(counters::gemm_at_b_flops(n, d, m));
    if d == 0 || m == 0 {
        return Matrix::zeros(d, m);
    }

    let elem = std::mem::size_of::<T>();
    let lanes = autotune::lane_count(tier, elem);
    let dp = d.next_multiple_of(lanes);
    // The one staged operand: the zero-padded strip that carries the last
    // `d % lanes` columns of `A`.
    let staged = dp - (d - d % lanes);
    if staged > 0 {
        counters::add_bytes(counters::gemm_at_b_pack_bytes(n, staged, elem));
    }

    // The microkernel accumulates into a j-major m×dp scratch (`dp` = `d`
    // rounded up to whole vectors) so the contiguous d axis of each A row
    // is the vector axis; the reduced result is transposed once into the
    // row-major d×m output, dropping the padded columns.
    let par = n * d * m >= PAR_THRESHOLD;
    let jmajor = reduce_row_chunks(n, 64, m * dp, par, |rows| {
        let mut acc = vec![T::ZERO; m * dp];
        let chunk = AtBChunk {
            acc: &mut acc,
            a: &a.as_slice()[rows.start * d..rows.end * d],
            b: &b.as_slice()[rows.start * m..rows.end * m],
            d,
            m,
        };
        T::simd_run(tier, chunk);
        acc
    });
    let mut data = vec![T::ZERO; d * m];
    for j in 0..m {
        for (i, row) in data.chunks_exact_mut(m).enumerate() {
            row[j] = jmajor[j * dp + i];
        }
    }
    Matrix::from_vec(d, m, data)
}

/// `C = A · Bᵀ` where `A` is `n × d` and `B` is `m × d`, on the
/// process-wide dispatch tier.
///
/// `Bᵀ` is staged once (`d × m`, row-major) and the row-parallel GEMM panel
/// of [`gemm`] runs on it: per element one accumulator from zero, depth
/// ascending. Used for `d × d`-sized products (`U·Uᵀ` updates, applying a
/// function of an eigendecomposition) — none of them pool-sized on a hot
/// path.
pub fn gemm_a_bt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    gemm_a_bt_tier(simd::active_tier(), a, b)
}

/// [`gemm_a_bt`] on an explicit dispatch tier. Bitwise identical across
/// tiers.
pub fn gemm_a_bt_tier<T: Scalar>(tier: Tier, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    check_tier(tier);
    let (n, d) = a.shape();
    let (m, db) = b.shape();
    assert_eq!(d, db, "gemm_a_bt: A is {n}x{d}, B is {m}x{db}");
    counters::add_flops(counters::gemm_a_bt_flops(n, m, d));

    let mut c = Matrix::zeros(n, m);
    if n == 0 || m == 0 || d == 0 {
        return c;
    }
    let bt = b.transpose();
    counters::add_bytes(counters::gemm_a_bt_pack_bytes(
        d,
        m,
        std::mem::size_of::<T>(),
    ));
    gemm_row_blocks(tier, a.as_slice(), &bt, c.as_mut_slice());
    c
}

/// The symmetric `d × d` matrix whose upper triangle is the upper triangle
/// of the `d × ld` accumulator block `acc` (nothing else of it is read).
fn gram_from_upper<T: Scalar>(acc: &[T], d: usize, ld: usize) -> Matrix<T> {
    let mut g = Matrix::zeros(d, d);
    for p in 0..d {
        for q in p..d {
            let v = acc[p * ld + q];
            g[(p, q)] = v;
            g[(q, p)] = v;
        }
    }
    g
}

/// All class-block Gram matrices in one pass over the pool:
/// `G_k = Xᵀ diag(W[:,k]) X` for every column `k` of the `n × c` weight
/// panel `W`, on the process-wide dispatch tier. This is exactly Line 5 of
/// Algorithm 2 (preconditioner construction: one block of Definition 1 is
/// `B_k(Σ) = Σᵢ w_ik xᵢxᵢᵀ`, Eq. 15 summed over the pool), fused so `X`
/// streams through memory once per class block. Exploits symmetry
/// (computes the upper triangle, mirrors at the end); shape-fixed reduction
/// chunks combined in chunk order (see the module determinism contract).
///
/// Classes are processed in blocks of [`KernelPlan::class_block`] (from the
/// L2 size) so each reduction chunk's live accumulator set stays
/// cache-resident — an unblocked pass carries `c · d²` accumulator elements
/// per chunk (up to ~1 MiB at `c = 8`, `d = 128`, `f64`), which blows L2
/// and flatlines thread scaling. Blocking is bit-neutral: classes are
/// independent outputs and each keeps its exact per-chunk row order.
pub fn gram_weighted_multi<T: Scalar>(x: &Matrix<T>, w: &Matrix<T>) -> Vec<Matrix<T>> {
    let plan = autotune::plan_for::<T>(x.cols());
    gram_weighted_multi_planned(simd::active_tier(), plan, x, w)
}

/// [`gram_weighted_multi`] on an explicit dispatch tier and blocking plan
/// (the equality harnesses pin that both are bit-neutral).
pub fn gram_weighted_multi_planned<T: Scalar>(
    tier: Tier,
    plan: KernelPlan,
    x: &Matrix<T>,
    w: &Matrix<T>,
) -> Vec<Matrix<T>> {
    check_tier(tier);
    let (n, d) = x.shape();
    let (nw, c) = w.shape();
    assert_eq!(n, nw, "gram_weighted_multi: weight panel mismatch");
    counters::add_flops(counters::gram_weighted_multi_flops(c, n, d));
    if c == 0 {
        return Vec::new();
    }
    if d == 0 {
        return (0..c).map(|_| Matrix::zeros(0, 0)).collect();
    }

    let kb = plan.class_block.max(1);
    // The chunks depend on `n` alone, so partial-sum splits are identical
    // whatever `class_block` the host's caches give and however many
    // weight columns share the call.
    let par = n * c * d * d >= PAR_THRESHOLD;
    // Row stride of an accumulator block: `d` rounded up to whole vectors.
    let ld = d.next_multiple_of(autotune::lane_count(tier, std::mem::size_of::<T>()));
    let mut blocks = Vec::with_capacity(c);
    for k0 in (0..c).step_by(kb) {
        let k1 = (k0 + kb).min(c);
        let bw = (k1 - k0) * d * ld;
        let accumulate = |rows: std::ops::Range<usize>| -> Vec<T> {
            let mut acc = vec![T::ZERO; bw];
            let gram = GramRows {
                acc: &mut acc,
                x: &x.as_slice()[rows.start * d..rows.end * d],
                w: &w.as_slice()[rows.start * c..rows.end * c],
                wstride: c,
                k0,
                k1,
                d,
            };
            T::simd_run(tier, gram);
            acc
        };
        let pass = reduce_row_chunks(n, GRAM_CHUNK_ROWS, bw, par, accumulate);
        blocks.extend(
            pass.chunks_exact(d * ld)
                .map(|acc| gram_from_upper(acc, d, ld)),
        );
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let (m, k) = a.shape();
        let n = b.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
    }

    fn test_mat(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic LCG so tests need no RNG dependency.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemm_matches_naive() {
        let a = test_mat(7, 5, 1);
        let b = test_mat(5, 9, 2);
        let c = gemm(&a, &b);
        let r = naive_gemm(&a, &b);
        assert!((0..7).all(|i| (0..9).all(|j| (c[(i, j)] - r[(i, j)]).abs() < 1e-12)));
    }

    #[test]
    fn gemm_parallel_path_matches_naive() {
        let a = test_mat(80, 40, 3);
        let b = test_mat(40, 50, 4);
        let c = gemm(&a, &b);
        let r = naive_gemm(&a, &b);
        let diff = (0..80)
            .flat_map(|i| (0..50).map(move |j| (i, j)))
            .map(|(i, j)| (c[(i, j)] - r[(i, j)]).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn gemm_non_multiple_of_tile_shapes_match_naive() {
        // Rows/cols straddling the 4-row micro-tile and 4-wide unroll, on
        // both sides of the parallel threshold.
        for (m, k, n, seed) in [(5, 3, 6, 11), (33, 17, 35, 12), (66, 31, 45, 13)] {
            let a = test_mat(m, k, seed);
            let b = test_mat(k, n, seed + 100);
            let c = gemm(&a, &b);
            let r = naive_gemm(&a, &b);
            let diff = (0..m)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| (c[(i, j)] - r[(i, j)]).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "{m}x{k}x{n}: max diff {diff}");
        }
    }

    #[test]
    fn gemm_at_b_matches_explicit_transpose() {
        let a = test_mat(120, 6, 5);
        let b = test_mat(120, 4, 6);
        let c = gemm_at_b(&a, &b);
        let r = naive_gemm(&a.transpose(), &b);
        let diff = (0..6)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| (c[(i, j)] - r[(i, j)]).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn gemm_at_b_odd_row_counts_match_explicit_transpose() {
        for (n, d, m, seed) in [(7, 3, 5, 21), (129, 9, 7, 22), (1003, 11, 6, 23)] {
            let a = test_mat(n, d, seed);
            let b = test_mat(n, m, seed + 50);
            let c = gemm_at_b(&a, &b);
            let r = naive_gemm(&a.transpose(), &b);
            let diff = (0..d)
                .flat_map(|i| (0..m).map(move |j| (i, j)))
                .map(|(i, j)| (c[(i, j)] - r[(i, j)]).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-9, "{n}x{d}x{m}: max diff {diff}");
        }
    }

    #[test]
    fn gemm_a_bt_matches_explicit_transpose() {
        for (n, m, d, seed) in [(30, 20, 8, 7), (65, 19, 13, 8)] {
            let a = test_mat(n, d, seed);
            let b = test_mat(m, d, seed + 30);
            let c = gemm_a_bt(&a, &b);
            let r = naive_gemm(&a, &b.transpose());
            let diff = (0..n)
                .flat_map(|i| (0..m).map(move |j| (i, j)))
                .map(|(i, j)| (c[(i, j)] - r[(i, j)]).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "{n}x{m}x{d}: max diff {diff}");
        }
    }

    /// One weighted Gram matrix: the multi kernel on an `n × 1` panel.
    fn gram_single(x: &Matrix<f64>, w: &[f64]) -> Matrix<f64> {
        let panel = Matrix::from_vec(w.len(), 1, w.to_vec());
        gram_weighted_multi(x, &panel).remove(0)
    }

    #[test]
    fn gram_weighted_matches_definition() {
        let x = test_mat(50, 6, 9);
        let w: Vec<f64> = (0..50).map(|i| 0.01 * i as f64).collect();
        let g = gram_single(&x, &w);
        // Reference: Σ wᵢ xᵢxᵢᵀ
        let mut r = Matrix::<f64>::zeros(6, 6);
        for i in 0..50 {
            let xi = x.row(i);
            for p in 0..6 {
                for q in 0..6 {
                    r[(p, q)] += w[i] * xi[p] * xi[q];
                }
            }
        }
        let diff = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| (g[(i, j)] - r[(i, j)]).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn gram_weighted_multi_matches_per_class() {
        let x = test_mat(40, 5, 10);
        let w = test_mat(40, 3, 11);
        // make weights positive
        let w = Matrix::from_fn(40, 3, |i, j| w[(i, j)].abs() + 0.1);
        let gs = gram_weighted_multi(&x, &w);
        assert_eq!(gs.len(), 3);
        for k in 0..3 {
            let wk = w.col(k);
            let g_ref = gram_single(&x, &wk);
            let diff = (0..5)
                .flat_map(|i| (0..5).map(move |j| (i, j)))
                .map(|(i, j)| (gs[k][(i, j)] - g_ref[(i, j)]).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "class {k} max diff {diff}");
        }
    }

    #[test]
    fn gram_weighted_is_symmetric() {
        let x = test_mat(64, 7, 12);
        let w = vec![1.0; 64];
        let g = gram_single(&x, &w);
        for p in 0..7 {
            for q in 0..7 {
                assert_eq!(g[(p, q)], g[(q, p)]);
            }
        }
    }

    #[test]
    fn all_kernels_bitwise_deterministic_across_thread_counts() {
        // The module's determinism contract, pinned at shapes that cross
        // PAR_THRESHOLD (so the parallel paths really engage): identical
        // bits at 1, 2, and 4 pool threads for all four kernels (the Gram
        // kernel at one class and at several).
        let x = test_mat(900, 24, 31);
        let y = test_mat(900, 18, 32);
        let sq = test_mat(24, 900, 33);
        let w: Vec<f64> = (0..900).map(|i| 0.3 + ((i % 13) as f64) * 0.05).collect();
        let wpanel = Matrix::from_fn(900, 4, |i, j| 0.1 + ((i * 7 + j) % 11) as f64 * 0.02);
        let bits = || -> Vec<u64> {
            let mut out = Vec::new();
            out.extend(gemm(&sq, &x).as_slice().iter().map(|v| v.to_bits()));
            out.extend(gemm_at_b(&x, &y).as_slice().iter().map(|v| v.to_bits()));
            out.extend(
                gemm_a_bt(&x, &test_mat(40, 24, 34))
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits()),
            );
            out.extend(gram_single(&x, &w).as_slice().iter().map(|v| v.to_bits()));
            for g in gram_weighted_multi(&x, &wpanel) {
                out.extend(g.as_slice().iter().map(|v| v.to_bits()));
            }
            out
        };
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(bits);
        for threads in [2usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(bits), reference, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "gemm: A is")]
    fn gemm_shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(4, 2);
        let _ = gemm(&a, &b);
    }
}
