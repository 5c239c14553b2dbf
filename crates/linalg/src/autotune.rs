//! One-shot cache-blocking autotuner for the hot dense kernels.
//!
//! The SIMD kernels in [`mod@crate::gemm`] and [`mod@crate::sweep`] have four
//! blocking knobs that the ISA does not fix: the register-block width `jb`
//! of the `AᵀB` microkernel, whether that microkernel streams its A-panel
//! through a packed contiguous buffer, how many class blocks
//! [`crate::gemm::gram_weighted_multi`] accumulates per pass over the
//! pool, and how large a row block of `Γ` the fused
//! [`crate::sweep::fisher_sweep`] keeps between its two GEMM stages. The
//! right values depend on the problem's `d`, the element size,
//! and the host's cache geometry — so they are picked **once per
//! `(tier, d, dtype)`** at first kernel use and memoized for the life of
//! the process.
//!
//! Selection is a hybrid: the class block and the sweep's row block come
//! analytically from the detected cache sizes (bound the live accumulator
//! set to a fraction of L2, the `Γ` block to an eighth of L1d), while
//! `(jb, pack)` are measured by a one-shot micro-probe over the
//! four candidates on synthetic operands (~1 ms, amortized over every
//! subsequent call).
//!
//! # Determinism
//!
//! Every knob here is **bit-neutral by construction**: `jb`, packing,
//! class blocking and the sweep's row blocking regroup which independent
//! output elements are computed together (or how often an accumulator
//! passes through memory), but never move an element between reduction chunks or
//! re-associate a sum (the only split that affects floating-point — the
//! reduction chunk boundary — stays shape-derived in `reduce_chunk_rows`,
//! untouched by this module). The `block_plan_is_bit_neutral` test in
//! `tests/simd_equality.rs` pins this, so the probe's timing-dependent
//! choice cannot perturb results across ranks or runs.
//!
//! # Environment
//!
//! * `FIRAL_KERNEL_BLOCK=jb[,kb[,pack]]` overrides the plan (e.g.
//!   `FIRAL_KERNEL_BLOCK=4,2,1`: register block 4, two Gram classes per
//!   pass, packed panels). Unset fields fall back to the tuned values.
//! * `FIRAL_SIMD` (see [`crate::simd`]) selects the tier the plan is
//!   keyed on.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

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

/// Blocking parameters for one `(tier, d, dtype)` kernel configuration.
/// All fields are bit-neutral (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlan {
    /// Register-block width (output columns per microkernel pass) of the
    /// `AᵀB` reduction microkernel; `1..=8`.
    pub jb: usize,
    /// Whether the `AᵀB` microkernel packs each lane-wide A-column strip
    /// into a contiguous panel before streaming it.
    pub pack: bool,
    /// Classes accumulated per pass over the pool in
    /// [`crate::gemm::gram_weighted_multi`]; bounds the live accumulator
    /// set to roughly half of L2.
    pub class_block: usize,
    /// Byte budget of one row block of `Γ` in
    /// [`crate::sweep::fisher_sweep`] (an eighth of L1d, which leaves room
    /// for the block's points, the wide panel and the output tile): the
    /// sweep takes as many rows per block as fit, within `4..=64`.
    pub sweep_bytes: usize,
}

/// `FIRAL_KERNEL_BLOCK` override, parsed once: `(jb, class_block, pack)`,
/// each independently optional.
#[allow(clippy::type_complexity)]
fn env_override() -> (Option<usize>, Option<usize>, Option<bool>) {
    static ENV: OnceLock<(Option<usize>, Option<usize>, Option<bool>)> = OnceLock::new();
    *ENV.get_or_init(|| {
        let Ok(raw) = std::env::var("FIRAL_KERNEL_BLOCK") else {
            return (None, None, None);
        };
        let mut fields = raw.split(',');
        let jb = fields.next().and_then(|s| s.trim().parse::<usize>().ok());
        let kb = fields.next().and_then(|s| s.trim().parse::<usize>().ok());
        let pack = fields
            .next()
            .and_then(|s| s.trim().parse::<u8>().ok())
            .map(|v| v != 0);
        if jb.is_none() && kb.is_none() && pack.is_none() {
            eprintln!(
                "[firal_linalg] FIRAL_KERNEL_BLOCK={raw:?} not recognized \
                 (expected jb[,class_block[,pack01]]); autotuning instead"
            );
        }
        (jb.map(|v| v.clamp(1, 8)), kb.map(|v| v.max(1)), pack)
    })
}

/// Analytic class block: keep `class_block · d² · elem` within half of L2,
/// but always at least one class per pass.
fn analytic_class_block(d: usize, elem: usize, geo: CacheGeometry) -> usize {
    let block_bytes = (d * d * elem).max(1);
    (geo.l2 / 2 / block_bytes).clamp(1, 16)
}

/// One-shot `(jb, pack)` micro-probe: time the four candidates on a
/// synthetic `(rows=512, d, m=16)` chunk and keep the fastest. Only
/// meaningful (and only run) for SIMD tiers; the scalar panels ignore both
/// knobs.
fn probe_at_b<T: Scalar>(tier: Tier, d: usize) -> (usize, bool) {
    const ROWS: usize = 512;
    const M: usize = 16;
    const REPS: usize = 3;
    let mut state = 0x9E3779B97F4A7C15u64 ^ (d as u64);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        T::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
    };
    let a: Vec<T> = (0..ROWS * d).map(|_| next()).collect();
    let b: Vec<T> = (0..ROWS * M).map(|_| next()).collect();

    let mut best = (8, d * std::mem::size_of::<T>() > 256);
    let mut best_secs = f64::INFINITY;
    for jb in [8usize, 4] {
        for pack in [false, true] {
            let mut acc = vec![T::ZERO; M * d.next_multiple_of(lane_count(tier, size_of::<T>()))];
            let mut buf = Vec::new();
            // Warm-up, then best-of-REPS.
            T::simd_at_b_chunk(tier, &mut acc, &a, &b, d, M, jb, pack, &mut buf);
            let mut secs = f64::INFINITY;
            for _ in 0..REPS {
                let t0 = Instant::now();
                T::simd_at_b_chunk(tier, &mut acc, &a, &b, d, M, jb, pack, &mut buf);
                secs = secs.min(t0.elapsed().as_secs_f64());
            }
            if secs < best_secs {
                best_secs = secs;
                best = (jb, pack);
            }
        }
    }
    best
}

/// The blocking plan for one `(tier, d, dtype)` configuration, tuned at
/// first use and memoized for the life of the process.
pub fn plan_for<T: Scalar>(tier: Tier, d: usize) -> KernelPlan {
    // BTreeMap, not HashMap: the memo table is only keyed (never iterated),
    // but an ordered container makes "no iteration order can leak into a
    // kernel shape" structural (`firal-lint` rule `hash-order`).
    type PlanMap = BTreeMap<(u8, usize, usize), KernelPlan>;
    static PLANS: OnceLock<Mutex<PlanMap>> = OnceLock::new();
    let elem = std::mem::size_of::<T>();
    let key = (tier as u8, d, elem);
    let plans = PLANS.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(plan) = plans.lock().unwrap().get(&key) {
        return *plan;
    }
    // Tune outside the lock: the probe may take ~1 ms and other threads
    // may need unrelated plans meanwhile. A racing duplicate probe is
    // harmless (both compute valid, bit-neutral plans).
    let geo = cache_geometry();
    let (env_jb, env_kb, env_pack) = env_override();
    let (probed_jb, probed_pack) = if tier == Tier::Scalar {
        (8, false)
    } else {
        probe_at_b::<T>(tier, d.max(1))
    };
    let plan = KernelPlan {
        jb: env_jb.unwrap_or(probed_jb),
        pack: env_pack.unwrap_or(probed_pack),
        class_block: env_kb.unwrap_or_else(|| analytic_class_block(d.max(1), elem, geo)),
        sweep_bytes: geo.l1d / 8,
    };
    plans.lock().unwrap().insert(key, plan);
    plan
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
    fn class_block_scales_inversely_with_d() {
        let geo = CacheGeometry {
            l1d: 32 * 1024,
            l2: 1024 * 1024,
            source: "default",
        };
        let small = analytic_class_block(16, 8, geo);
        let big = analytic_class_block(256, 8, geo);
        assert!(small >= big);
        assert!(big >= 1);
        // d = 256 f64 blocks are 512 KiB: exactly one class fits the L2
        // budget.
        assert_eq!(big, 1);
    }

    #[test]
    fn plan_is_memoized_and_clamped() {
        let p1 = plan_for::<f64>(Tier::Scalar, 48);
        let p2 = plan_for::<f64>(Tier::Scalar, 48);
        assert_eq!(p1, p2);
        assert!((1..=8).contains(&p1.jb));
        assert!(p1.class_block >= 1);
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
