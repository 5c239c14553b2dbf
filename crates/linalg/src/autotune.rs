//! Cache-blocking plan for the hot dense kernels.
//!
//! The kernels in [`mod@crate::gemm`] and [`mod@crate::sweep`] have two
//! blocking parameters that the ISA does not fix: how many class blocks
//! [`crate::gemm::gram_weighted_multi`] accumulates per pass over the pool,
//! and how large a row block of `Γ` the fused
//! [`crate::sweep::fisher_sweep`] keeps between its two GEMM stages. Both
//! follow analytically from the problem's `d`, the element size and the
//! host's cache geometry (bound the live accumulator set to half of L2, the
//! `Γ` block to an eighth of L1d), so [`plan_for`] is a pure function of
//! those three: nothing is timed, memoized or read from the environment.
//! (The register blocking of the `AᵀB` microkernel is fixed in
//! `simd/body.rs`: eight output columns per pass, `A` read in place.)
//!
//! # Determinism
//!
//! Both parameters are **bit-neutral by construction**: class blocking and
//! the sweep's row blocking regroup which independent output elements are
//! computed together (or how often an accumulator passes through memory),
//! but never move an element between reduction chunks or re-associate a
//! sum (the only split that affects floating-point — the reduction chunk
//! boundary — stays shape-derived in `reduce_chunk_rows`, untouched by this
//! module). `tests/simd_equality.rs` pins this (`block_plan_is_bit_neutral`
//! and the fused-sweep matrix), so hosts with different caches — SPMD ranks
//! included — agree bit for bit.

use std::sync::OnceLock;

use crate::scalar::Scalar;
use crate::simd::Tier;

/// Detected (or fallback) cache geometry of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// L1 data cache size in bytes.
    pub l1d: usize,
    /// L2 cache size in bytes (per core where exposed).
    pub l2: usize,
    /// `"sysfs"` when read from `/sys/devices/system/cpu`, `"default"`
    /// when the conservative fallback (32 KiB / 1 MiB) is in use.
    pub source: &'static str,
}

/// Parse a sysfs cache size string like `"32K"`, `"1024K"`, or `"8M"`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

fn detect_cache_geometry() -> CacheGeometry {
    let fallback = CacheGeometry {
        l1d: 32 * 1024,
        l2: 1024 * 1024,
        source: "default",
    };
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return fallback;
    };
    let mut l1d = None;
    let mut l2 = None;
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
        let level = read("level").trim().parse::<u32>().unwrap_or(0);
        let ty = read("type");
        let ty = ty.trim();
        let Some(size) = parse_cache_size(&read("size")) else {
            continue;
        };
        if level == 1 && ty == "Data" {
            l1d = Some(size);
        } else if level == 2 && (ty == "Unified" || ty == "Data") {
            l2 = Some(size);
        }
    }
    match (l1d, l2) {
        (Some(l1d), Some(l2)) => CacheGeometry {
            l1d,
            l2,
            source: "sysfs",
        },
        (Some(l1d), None) => CacheGeometry {
            l1d,
            l2: fallback.l2.max(4 * l1d),
            source: "sysfs",
        },
        _ => fallback,
    }
}

/// The host cache geometry, detected once per process.
pub fn cache_geometry() -> CacheGeometry {
    static GEO: OnceLock<CacheGeometry> = OnceLock::new();
    *GEO.get_or_init(detect_cache_geometry)
}

/// Blocking parameters for one `(d, dtype)` kernel configuration. Both
/// fields are bit-neutral (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlan {
    /// Classes accumulated per pass over the pool in
    /// [`crate::gemm::gram_weighted_multi`]: as many `d × d` blocks as fit
    /// half of L2, within `1..=16`.
    pub class_block: usize,
    /// Byte budget of one row block of `Γ` in
    /// [`crate::sweep::fisher_sweep`] (an eighth of L1d, which leaves room
    /// for the block's points, the wide panel and the output tile): the
    /// sweep takes as many rows per block as fit, within `4..=64`.
    pub sweep_bytes: usize,
}

/// The plan for blocks of order `d` with `elem`-byte elements on a host
/// with cache geometry `geo`.
fn analytic_plan(d: usize, elem: usize, geo: CacheGeometry) -> KernelPlan {
    let block_bytes = (d * d * elem).max(1);
    KernelPlan {
        class_block: (geo.l2 / 2 / block_bytes).clamp(1, 16),
        sweep_bytes: geo.l1d / 8,
    }
}

/// The blocking plan for one `(d, dtype)` configuration on this host.
pub fn plan_for<T: Scalar>(d: usize) -> KernelPlan {
    analytic_plan(d, std::mem::size_of::<T>(), cache_geometry())
}

/// Vector lane count of `tier` for an element size (`1` for the scalar
/// tier). Used by harnesses to build "odd shape" cases and to account
/// packed-panel traffic.
pub fn lane_count(tier: Tier, elem: usize) -> usize {
    let bytes = match tier {
        Tier::Scalar => return 1,
        Tier::Sse2 | Tier::Neon => 16,
        Tier::Avx2 => 32,
    };
    (bytes / elem).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_strings_parse() {
        assert_eq!(parse_cache_size("32K"), Some(32 * 1024));
        assert_eq!(parse_cache_size("1024K"), Some(1024 * 1024));
        assert_eq!(parse_cache_size("8M"), Some(8 * 1024 * 1024));
        assert_eq!(parse_cache_size("123"), Some(123));
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn geometry_has_sane_bounds() {
        let geo = cache_geometry();
        assert!(geo.l1d >= 4 * 1024, "implausible L1d: {}", geo.l1d);
        assert!(geo.l2 >= geo.l1d, "L2 {} below L1d {}", geo.l2, geo.l1d);
    }

    #[test]
    fn plan_is_the_analytic_formula_of_the_cache_geometry() {
        let geo = CacheGeometry {
            l1d: 48 * 1024,
            l2: 1024 * 1024,
            source: "default",
        };
        let small = analytic_plan(16, 8, geo);
        let big = analytic_plan(256, 8, geo);
        // d = 16 f64 blocks are 2 KiB: 256 fit half of L2, capped at 16.
        assert_eq!(small.class_block, 16);
        // d = 256 f64 blocks are 512 KiB: exactly one class fits the L2
        // budget; larger blocks still get one class per pass.
        assert_eq!(big.class_block, 1);
        assert_eq!(analytic_plan(1000, 8, geo).class_block, 1);
        // d = 100 f32 blocks are 40 000 B: ⌊524 288 / 40 000⌋ = 13.
        assert_eq!(analytic_plan(100, 4, geo).class_block, 13);
        // The Γ budget is an eighth of L1d whatever the shape.
        assert_eq!(small.sweep_bytes, 6 * 1024);
        assert_eq!(big.sweep_bytes, 6 * 1024);

        // `plan_for` is that formula at the host's geometry, every time.
        let host = cache_geometry();
        assert_eq!(plan_for::<f64>(48), analytic_plan(48, 8, host));
        assert_eq!(plan_for::<f32>(48), analytic_plan(48, 4, host));
        assert_eq!(plan_for::<f32>(0).class_block, 16);
    }

    #[test]
    fn lane_counts_match_register_widths() {
        assert_eq!(lane_count(Tier::Scalar, 4), 1);
        assert_eq!(lane_count(Tier::Sse2, 4), 4);
        assert_eq!(lane_count(Tier::Sse2, 8), 2);
        assert_eq!(lane_count(Tier::Avx2, 4), 8);
        assert_eq!(lane_count(Tier::Avx2, 8), 4);
        assert_eq!(lane_count(Tier::Neon, 4), 4);
    }
}
