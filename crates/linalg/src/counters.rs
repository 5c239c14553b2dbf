//! Global flop/byte counters.
//!
//! The paper's Tables II and III make storage/compute complexity claims;
//! the `table2_complexity` and `table3_matvec` harnesses verify them
//! empirically by reading these counters around kernel invocations.
//!
//! Counters are relaxed atomics incremented once per kernel call (never per
//! scalar operation), so the overhead is unmeasurable next to the kernels
//! themselves.

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Pinned flop formulas for the four dense kernels (`firal_linalg::gemm`).
//
// Convention: one multiply-add = 2 flops (the standard `2·mnk` GEMM count).
// The kernels charge exactly these formulas, and the benchmark harnesses
// (`kernel_bench`, the Criterion benches) derive GF/s from the same
// functions, so throughput numbers stay comparable across PRs.
// ---------------------------------------------------------------------------

/// `C = A·B` with `A ∈ m×k`, `B ∈ k×n`: `2·m·n·k`.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> usize {
    2 * m * n * k
}

/// `C = Aᵀ·B` with `A ∈ n×d`, `B ∈ n×m`: `2·n·d·m`.
pub fn gemm_at_b_flops(n: usize, d: usize, m: usize) -> usize {
    2 * n * d * m
}

/// `C = A·Bᵀ` with `A ∈ n×d`, `B ∈ m×d`: `2·n·m·d`.
pub fn gemm_a_bt_flops(n: usize, m: usize, d: usize) -> usize {
    2 * n * m * d
}

/// `c` fused weighted Gram blocks `G_k = Xᵀdiag(w_k)X` with `X ∈ n×d`,
/// exploiting symmetry: per row and class, `d(d+1)/2` multiply-adds on the
/// upper triangle (2 flops each) plus `d` weight-scaling multiplies —
/// `c·n·d·(d+2)` total. (The historical `n·d·(d+1)` figure dropped the
/// weight scaling and so undercounted relative to the `2·` multiply-add
/// convention of the GEMM kernels.)
pub fn gram_weighted_multi_flops(c: usize, n: usize, d: usize) -> usize {
    c * n * d * (d + 2)
}

// ---------------------------------------------------------------------------
// Pinned byte formulas for the packed-panel SIMD paths. Packing stages an
// operand copy that the scalar kernels never make, so it is charged to the
// byte counter (one element write per packed element) — keeping Table-III
// style traffic accounting honest across dispatch tiers.
// ---------------------------------------------------------------------------

/// Bytes staged when packing a `rows × cols` operand panel into a
/// contiguous buffer: `rows·cols·elem`.
pub fn pack_panel_bytes(rows: usize, cols: usize, elem: usize) -> usize {
    rows * cols * elem
}

/// Packed-panel traffic of one `C = AᵀB` call on a SIMD tier: each of the
/// `n` rows stages `cols` columns once — the zero-padded strip holding the
/// last `d % lanes` columns, so `cols` is one vector's lanes, or zero when
/// `d` is a lane multiple — [`pack_panel_bytes`]`(n, cols, elem)`.
pub fn gemm_at_b_pack_bytes(n: usize, cols: usize, elem: usize) -> usize {
    pack_panel_bytes(n, cols, elem)
}

/// Packed-operand traffic of `C = A·Bᵀ`, which stages `Bᵀ` (`d × m`) once
/// per call so the panel kernel streams `B` row-major:
/// [`pack_panel_bytes`]`(d, m, elem)`.
pub fn gemm_a_bt_pack_bytes(d: usize, m: usize, elem: usize) -> usize {
    pack_panel_bytes(d, m, elem)
}

/// Record `n` floating-point operations.
#[inline(always)]
pub fn add_flops(n: usize) {
    FLOPS.fetch_add(n as u64, Ordering::Relaxed);
}

/// Record `n` bytes of allocation traffic.
#[inline(always)]
pub fn add_bytes(n: usize) {
    BYTES.fetch_add(n as u64, Ordering::Relaxed);
}

/// Snapshot of the global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Cumulative floating-point operations recorded.
    pub flops: u64,
    /// Cumulative bytes of matrix allocations recorded.
    pub bytes: u64,
}

/// Read the counters.
pub fn snapshot() -> CounterSnapshot {
    CounterSnapshot {
        flops: FLOPS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Reset both counters to zero (benchmark harness only; not thread-safe with
/// respect to concurrent kernels, which is fine for sequential measurement
/// sections).
pub fn reset() {
    FLOPS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
}

/// Measure the flops/bytes consumed by a closure.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, CounterSnapshot) {
    let before = snapshot();
    let r = f();
    let after = snapshot();
    (
        r,
        CounterSnapshot {
            flops: after.flops - before.flops,
            bytes: after.bytes - before.bytes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_captures_deltas() {
        let (_, delta) = measure(|| {
            add_flops(100);
            add_bytes(8);
        });
        assert!(delta.flops >= 100);
        assert!(delta.bytes >= 8);
    }

    #[test]
    fn kernel_flop_formulas_are_pinned() {
        // The four dense-kernel formulas, spelled out numerically so any
        // accidental change to a formula fails loudly here.
        assert_eq!(gemm_flops(3, 4, 5), 2 * 3 * 4 * 5);
        assert_eq!(gemm_at_b_flops(100, 8, 6), 2 * 100 * 8 * 6);
        assert_eq!(gemm_a_bt_flops(100, 7, 9), 2 * 100 * 7 * 9);
        // Symmetric Gram: d(d+1) triangle flops + d weight scalings per row.
        assert_eq!(gram_weighted_multi_flops(1, 10, 4), 10 * (4 * 5 + 4));
        assert_eq!(gram_weighted_multi_flops(3, 10, 4), 3 * 10 * (4 * 5 + 4));
        // The multi kernel is exactly c independent single-weight Grams.
        assert_eq!(
            gram_weighted_multi_flops(7, 123, 17),
            7 * gram_weighted_multi_flops(1, 123, 17)
        );
    }

    #[test]
    fn pack_byte_formulas_are_pinned() {
        // Packed-panel staging traffic: one element write per packed
        // element, and the per-kernel formulas are pure reparameterizations
        // of `pack_panel_bytes`.
        assert_eq!(pack_panel_bytes(100, 8, 4), 100 * 8 * 4);
        assert_eq!(pack_panel_bytes(3, 5, 8), 3 * 5 * 8);
        assert_eq!(gemm_at_b_pack_bytes(1000, 64, 4), 1000 * 64 * 4);
        assert_eq!(gemm_at_b_pack_bytes(77, 16, 8), pack_panel_bytes(77, 16, 8));
        assert_eq!(gemm_a_bt_pack_bytes(64, 40, 8), 64 * 40 * 8);
        assert_eq!(gemm_a_bt_pack_bytes(65, 1, 4), pack_panel_bytes(65, 1, 4));
    }
}
