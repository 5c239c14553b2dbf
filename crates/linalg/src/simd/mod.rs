//! Runtime SIMD feature dispatch for the hot dense kernels.
//!
//! The five kernels in [`mod@crate::gemm`], the fused Fisher-panel sweep
//! in [`mod@crate::sweep`] and the Eq. 17 sweep in [`mod@crate::quad`] are
//! implemented at three levels:
//! the always-available scalar register-tiled panels (the reference
//! semantics), and explicit-`std::arch` SIMD bodies for x86-64 (AVX2 and
//! the SSE2 baseline) and AArch64 (NEON). The tier is picked **once** at
//! first kernel use — best detected feature set, overridable with
//! `FIRAL_SIMD=off|sse2|avx2|neon` — and every subsequent call dispatches
//! through it.
//!
//! # The canonical-summation-tree determinism contract
//!
//! Every tier of every kernel produces **bitwise identical** results — to
//! the scalar fallback and to each other — because each kernel pins one
//! canonical summation tree that is independent of the vector lane width,
//! and every backend implements exactly that tree:
//!
//! * [`crate::gemm::gemm`] / [`crate::gemm::gemm_a_bt`]: each output
//!   element is a single accumulator updated in depth-ascending order;
//! * [`crate::gemm::gemm_at_b`]: rows join each output element in groups
//!   of four — `acc += ((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃` — trailing rows
//!   singly, within the shape-derived reduction chunks of the thread
//!   contract;
//! * [`crate::gemm::gram_weighted`] / [`crate::gemm::gram_weighted_multi`]:
//!   rows accumulate strictly sequentially;
//! * [`crate::sweep::fisher_sweep`]: the `gemm` tree for `X·V`, a
//!   class-ascending `γᵀh`, and one row-ascending accumulator per output
//!   element of `XᵀΓ` within each shape-derived reduction chunk (spelled
//!   out in the `crate::sweep` module docs);
//! * [`crate::quad::QuadSweep`]: the `gemm` tree for both triangular
//!   products — the panel body itself, per column window — then a
//!   column-ascending row sum of squares (`crate::quad` module docs).
//!
//! Lane-width independence holds because vector lanes always span
//! independent *output elements* (columns of `C`/`G`, the `d` rows of
//! `AᵀB`), never a summation axis, and all arithmetic is unfused
//! multiply-then-add (no FMA: fusing would change the rounding of every
//! product and break scalar equivalence — and the SSE2 baseline has no FMA
//! at all). Consequently `FIRAL_SIMD` composes orthogonally with
//! `FIRAL_NUM_THREADS`: any tier at any thread count yields the same bits,
//! which `kernel_bench` and the `simd_equality` test matrix re-verify.

mod body;
mod sweep;
mod vector;

use std::sync::OnceLock;

/// A SIMD dispatch tier. All variants exist on every architecture (so
/// harnesses can name and report them); only the tiers in
/// [`available_tiers`] can ever be active on the running host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Scalar register-tiled panels — the reference semantics, always
    /// available.
    Scalar,
    /// x86-64 SSE2 (baseline on every x86-64 CPU): 4×f32 / 2×f64 lanes.
    Sse2,
    /// x86-64 AVX2: 8×f32 / 4×f64 lanes.
    Avx2,
    /// AArch64 NEON (baseline on every AArch64 CPU): 4×f32 / 2×f64 lanes.
    Neon,
}

impl Tier {
    /// Stable lower-case name (matches the `FIRAL_SIMD` values; `Scalar`
    /// is spelled `"off"`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "off",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
            Tier::Neon => "neon",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best tier the running CPU supports.
fn detect_best() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Tier::Avx2
        } else {
            Tier::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Tier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Tier::Scalar
    }
}

/// Every tier usable on the running host, scalar first, best last. The
/// equality harnesses iterate this list to cross-check all tiers bitwise.
pub fn available_tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        tiers.push(Tier::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Tier::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        tiers.push(Tier::Neon);
    }
    tiers
}

/// The dispatch tier used by the plain kernel entry points
/// ([`crate::gemm::gemm`] etc.), resolved once per process: the
/// `FIRAL_SIMD` override if set and available on this host (with a warning
/// and fallback to the detected best otherwise), else the detected best.
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| match std::env::var("FIRAL_SIMD") {
        Err(_) => detect_best(),
        Ok(v) => {
            let requested = match v.to_ascii_lowercase().as_str() {
                "off" | "scalar" | "0" => Some(Tier::Scalar),
                "sse2" => Some(Tier::Sse2),
                "avx2" => Some(Tier::Avx2),
                "neon" => Some(Tier::Neon),
                other => {
                    eprintln!(
                        "[firal_linalg] FIRAL_SIMD={other:?} not recognized \
                         (expected off|sse2|avx2|neon); using detected best"
                    );
                    None
                }
            };
            match requested {
                Some(t) if available_tiers().contains(&t) => t,
                Some(t) => {
                    let best = detect_best();
                    eprintln!(
                        "[firal_linalg] FIRAL_SIMD={} unavailable on this host; using {}",
                        t.name(),
                        best.name()
                    );
                    best
                }
                None => detect_best(),
            }
        }
    })
}

/// Whether the running CPU can execute `tier` (cheap: the feature macros
/// cache their CPUID probes). The kernel entry points assert this so a
/// harness passing a foreign tier fails loudly instead of executing
/// illegal instructions.
pub fn tier_available(tier: Tier) -> bool {
    match tier {
        Tier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => true,
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Whether `tier` maps to a SIMD body on the compiled architecture (i.e.
/// the [`Dispatch`] methods will handle it). `false` means the caller must
/// run its scalar panel. Kernel entry points branch on this once, up
/// front, so mixed scalar/SIMD execution within one kernel call is
/// impossible.
pub fn tier_is_simd(tier: Tier) -> bool {
    match tier {
        Tier::Scalar => false,
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 | Tier::Avx2 => true,
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => true,
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Space-separated summary of the SIMD-relevant CPU features detected at
/// runtime (recorded by `kernel_bench` in `BENCH_kernels.json`).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = vec!["sse2"];
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        feats.join(" ")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string()
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        String::new()
    }
}

/// Per-dtype routing from a [`Tier`] to the monomorphized SIMD bodies.
///
/// This is the dispatch seam between the shape/chunking logic in
/// [`mod@crate::gemm`] (written once, generic over [`crate::Scalar`]) and the
/// `#[target_feature]` kernels (necessarily monomorphic per dtype and
/// ISA). Each method returns `true` if a SIMD tier handled the call and
/// `false` for [`Tier::Scalar`] (or a tier foreign to the compiled
/// architecture), in which case the caller runs its scalar panel.
pub trait Dispatch: Sized {
    /// SIMD `gemm_panel` body, `C += A·B` on `rows × k` / `k × n` operands
    /// with leading dimensions `ldc`, `lda`, `ldb` (so a caller can address
    /// a column window and a depth range of wider matrices); see
    /// [`crate::gemm::gemm`]. Panics if a slice is too short for its shape.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn simd_gemm_panel(
        tier: Tier,
        c: &mut [Self],
        ldc: usize,
        a: &[Self],
        lda: usize,
        b: &[Self],
        ldb: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) -> bool;

    /// SIMD `AᵀB` reduction-chunk body; see [`crate::gemm::gemm_at_b`].
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn simd_at_b_chunk(
        tier: Tier,
        acc: &mut [Self],
        a: &[Self],
        b: &[Self],
        d: usize,
        m: usize,
        jb: usize,
        pack: bool,
        packbuf: &mut Vec<Self>,
    ) -> bool;

    /// SIMD weighted-Gram chunk body; see [`crate::gemm::gram_weighted`].
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn simd_gram_rows(
        tier: Tier,
        acc: &mut [Self],
        x: &[Self],
        w: &[Self],
        wstride: usize,
        k0: usize,
        k1: usize,
        d: usize,
        packbuf: &mut Vec<Self>,
    ) -> bool;

    /// SIMD row-block body of the fused Fisher-panel sweep; see
    /// [`crate::sweep::fisher_sweep`].
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn simd_sweep_block(
        tier: Tier,
        partial: &mut [Self],
        gamma: &mut [Self],
        alpha: &mut [Self],
        x: &[Self],
        h: &[Self],
        z: Option<&[Self]>,
        vpad: Option<&[Self]>,
        d: usize,
        c: usize,
        s: usize,
        mp: usize,
    ) -> bool;
}

/// `#[target_feature]` wrappers: one set of four kernels per (tier,
/// dtype). `body::*` is `#[inline(always)]`, so each body monomorphizes
/// and codegens under the wrapper's feature set.
macro_rules! tier_wrappers {
    ($feat:literal, $t:ty, $v:ty, $gemm:ident, $atb:ident, $gram:ident, $sweep:ident) => {
        // SAFETY (this wrapper and the three below): `#[target_feature]`
        // makes the fn unsafe with the contract "caller verified $feat";
        // that is exactly the feature backing `$v`, the kernel entry
        // points validate the slice shapes before dispatching here, and
        // the body is `#[inline(always)]` so its intrinsics codegen under
        // this wrapper's feature set.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $gemm(
            c: &mut [$t],
            ldc: usize,
            a: &[$t],
            lda: usize,
            b: &[$t],
            ldb: usize,
            rows: usize,
            k: usize,
            n: usize,
        ) {
            // SAFETY: feature and shape contract forwarded, see above.
            unsafe { super::body::gemm_panel::<$t, $v>(c, ldc, a, lda, 1, b, ldb, rows, k, n) }
        }
        // SAFETY: same wrapper contract as the first kernel above.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $atb(
            acc: &mut [$t],
            a: &[$t],
            b: &[$t],
            d: usize,
            m: usize,
            jb: usize,
            pack: bool,
            packbuf: &mut Vec<$t>,
        ) {
            // SAFETY: feature and shape contract forwarded, see above.
            unsafe { super::body::at_b_chunk::<$t, $v>(acc, a, b, d, m, jb, pack, packbuf) }
        }
        // SAFETY: same wrapper contract as the first kernel above.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $gram(
            acc: &mut [$t],
            x: &[$t],
            w: &[$t],
            wstride: usize,
            k0: usize,
            k1: usize,
            d: usize,
            packbuf: &mut Vec<$t>,
        ) {
            // SAFETY: feature and shape contract forwarded, see above.
            unsafe { super::body::gram_rows::<$t, $v>(acc, x, w, wstride, k0, k1, d, packbuf) }
        }
        // SAFETY: same wrapper contract as the first kernel above.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub(super) unsafe fn $sweep(
            partial: &mut [$t],
            gamma: &mut [$t],
            alpha: &mut [$t],
            x: &[$t],
            h: &[$t],
            z: Option<&[$t]>,
            vpad: Option<&[$t]>,
            d: usize,
            c: usize,
            s: usize,
            mp: usize,
        ) {
            // SAFETY: feature and shape contract forwarded, see above.
            unsafe {
                super::sweep::sweep_block::<$t, $v>(
                    partial, gamma, alpha, x, h, z, vpad, d, c, s, mp,
                )
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod wrap {
    use super::vector::x86::{Avx2F32, Avx2F64, Sse2F32, Sse2F64};

    tier_wrappers!(
        "avx2",
        f32,
        Avx2F32,
        avx2_gemm_f32,
        avx2_atb_f32,
        avx2_gram_f32,
        avx2_sweep_f32
    );
    tier_wrappers!(
        "avx2",
        f64,
        Avx2F64,
        avx2_gemm_f64,
        avx2_atb_f64,
        avx2_gram_f64,
        avx2_sweep_f64
    );
    tier_wrappers!(
        "sse2",
        f32,
        Sse2F32,
        sse2_gemm_f32,
        sse2_atb_f32,
        sse2_gram_f32,
        sse2_sweep_f32
    );
    tier_wrappers!(
        "sse2",
        f64,
        Sse2F64,
        sse2_gemm_f64,
        sse2_atb_f64,
        sse2_gram_f64,
        sse2_sweep_f64
    );
}

#[cfg(target_arch = "aarch64")]
mod wrap {
    use super::vector::arm::{NeonF32, NeonF64};

    tier_wrappers!(
        "neon",
        f32,
        NeonF32,
        neon_gemm_f32,
        neon_atb_f32,
        neon_gram_f32,
        neon_sweep_f32
    );
    tier_wrappers!(
        "neon",
        f64,
        NeonF64,
        neon_gemm_f64,
        neon_atb_f64,
        neon_gram_f64,
        neon_sweep_f64
    );
}

/// Implements [`Dispatch`] for one dtype by routing each tier to its
/// wrapper. Safety of the `unsafe` calls: the matched tier is only ever
/// produced by [`active_tier`]/[`available_tiers`] (runtime-verified) or
/// by harnesses iterating [`available_tiers`].
macro_rules! dispatch_impl {
    ($t:ty, $avx2_gemm:ident, $avx2_atb:ident, $avx2_gram:ident, $avx2_sweep:ident,
        $sse2_gemm:ident, $sse2_atb:ident, $sse2_gram:ident, $sse2_sweep:ident,
        $neon_gemm:ident, $neon_atb:ident, $neon_gram:ident, $neon_sweep:ident) => {
        impl Dispatch for $t {
            fn simd_gemm_panel(
                tier: Tier,
                c: &mut [Self],
                ldc: usize,
                a: &[Self],
                lda: usize,
                b: &[Self],
                ldb: usize,
                rows: usize,
                k: usize,
                n: usize,
            ) -> bool {
                if rows == 0 || k == 0 || n == 0 {
                    return tier_is_simd(tier);
                }
                // The shape contract of `body::gemm_panel`, checked here so
                // that no safe caller can reach the body out of bounds.
                assert!(
                    (rows - 1) * ldc + n <= c.len()
                        && (rows - 1) * lda + k <= a.len()
                        && (k - 1) * ldb + n <= b.len(),
                    "gemm_panel: operand shorter than its {rows}x{k}x{n} shape"
                );
                match tier {
                    // SAFETY: the matched tier proves the wrapper's
                    // feature is available (see macro doc above).
                    #[cfg(target_arch = "x86_64")]
                    Tier::Avx2 => unsafe {
                        wrap::$avx2_gemm(c, ldc, a, lda, b, ldb, rows, k, n);
                        true
                    },
                    // SAFETY: SSE2 is the x86-64 compile-time baseline.
                    #[cfg(target_arch = "x86_64")]
                    Tier::Sse2 => unsafe {
                        wrap::$sse2_gemm(c, ldc, a, lda, b, ldb, rows, k, n);
                        true
                    },
                    // SAFETY: NEON is the AArch64 compile-time baseline.
                    #[cfg(target_arch = "aarch64")]
                    Tier::Neon => unsafe {
                        wrap::$neon_gemm(c, ldc, a, lda, b, ldb, rows, k, n);
                        true
                    },
                    _ => false,
                }
            }

            fn simd_at_b_chunk(
                tier: Tier,
                acc: &mut [Self],
                a: &[Self],
                b: &[Self],
                d: usize,
                m: usize,
                jb: usize,
                pack: bool,
                packbuf: &mut Vec<Self>,
            ) -> bool {
                match tier {
                    // SAFETY: the matched tier proves the wrapper's
                    // feature is available (see macro doc above).
                    #[cfg(target_arch = "x86_64")]
                    Tier::Avx2 => unsafe {
                        wrap::$avx2_atb(acc, a, b, d, m, jb, pack, packbuf);
                        true
                    },
                    // SAFETY: SSE2 is the x86-64 compile-time baseline.
                    #[cfg(target_arch = "x86_64")]
                    Tier::Sse2 => unsafe {
                        wrap::$sse2_atb(acc, a, b, d, m, jb, pack, packbuf);
                        true
                    },
                    // SAFETY: NEON is the AArch64 compile-time baseline.
                    #[cfg(target_arch = "aarch64")]
                    Tier::Neon => unsafe {
                        wrap::$neon_atb(acc, a, b, d, m, jb, pack, packbuf);
                        true
                    },
                    _ => false,
                }
            }

            fn simd_gram_rows(
                tier: Tier,
                acc: &mut [Self],
                x: &[Self],
                w: &[Self],
                wstride: usize,
                k0: usize,
                k1: usize,
                d: usize,
                packbuf: &mut Vec<Self>,
            ) -> bool {
                match tier {
                    // SAFETY: the matched tier proves the wrapper's
                    // feature is available (see macro doc above).
                    #[cfg(target_arch = "x86_64")]
                    Tier::Avx2 => unsafe {
                        wrap::$avx2_gram(acc, x, w, wstride, k0, k1, d, packbuf);
                        true
                    },
                    // SAFETY: SSE2 is the x86-64 compile-time baseline.
                    #[cfg(target_arch = "x86_64")]
                    Tier::Sse2 => unsafe {
                        wrap::$sse2_gram(acc, x, w, wstride, k0, k1, d, packbuf);
                        true
                    },
                    // SAFETY: NEON is the AArch64 compile-time baseline.
                    #[cfg(target_arch = "aarch64")]
                    Tier::Neon => unsafe {
                        wrap::$neon_gram(acc, x, w, wstride, k0, k1, d, packbuf);
                        true
                    },
                    _ => false,
                }
            }

            fn simd_sweep_block(
                tier: Tier,
                partial: &mut [Self],
                gamma: &mut [Self],
                alpha: &mut [Self],
                x: &[Self],
                h: &[Self],
                z: Option<&[Self]>,
                vpad: Option<&[Self]>,
                d: usize,
                c: usize,
                s: usize,
                mp: usize,
            ) -> bool {
                match tier {
                    // SAFETY: the matched tier proves the wrapper's
                    // feature is available (see macro doc above).
                    #[cfg(target_arch = "x86_64")]
                    Tier::Avx2 => unsafe {
                        wrap::$avx2_sweep(partial, gamma, alpha, x, h, z, vpad, d, c, s, mp);
                        true
                    },
                    // SAFETY: SSE2 is the x86-64 compile-time baseline.
                    #[cfg(target_arch = "x86_64")]
                    Tier::Sse2 => unsafe {
                        wrap::$sse2_sweep(partial, gamma, alpha, x, h, z, vpad, d, c, s, mp);
                        true
                    },
                    // SAFETY: NEON is the AArch64 compile-time baseline.
                    #[cfg(target_arch = "aarch64")]
                    Tier::Neon => unsafe {
                        wrap::$neon_sweep(partial, gamma, alpha, x, h, z, vpad, d, c, s, mp);
                        true
                    },
                    _ => false,
                }
            }
        }
    };
}

dispatch_impl!(
    f32,
    avx2_gemm_f32,
    avx2_atb_f32,
    avx2_gram_f32,
    avx2_sweep_f32,
    sse2_gemm_f32,
    sse2_atb_f32,
    sse2_gram_f32,
    sse2_sweep_f32,
    neon_gemm_f32,
    neon_atb_f32,
    neon_gram_f32,
    neon_sweep_f32
);
dispatch_impl!(
    f64,
    avx2_gemm_f64,
    avx2_atb_f64,
    avx2_gram_f64,
    avx2_sweep_f64,
    sse2_gemm_f64,
    sse2_atb_f64,
    sse2_gram_f64,
    sse2_sweep_f64,
    neon_gemm_f64,
    neon_atb_f64,
    neon_gram_f64,
    neon_sweep_f64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tier_is_always_available() {
        let tiers = available_tiers();
        assert_eq!(tiers[0], Tier::Scalar);
        assert!(tiers.contains(&active_tier()));
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(Tier::Scalar.name(), "off");
        assert_eq!(Tier::Sse2.name(), "sse2");
        assert_eq!(Tier::Avx2.name(), "avx2");
        assert_eq!(Tier::Neon.name(), "neon");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_baseline_includes_sse2() {
        assert!(available_tiers().contains(&Tier::Sse2));
        assert!(cpu_features().contains("sse2"));
    }

    #[test]
    fn scalar_dispatch_reports_unhandled() {
        let mut c = [0.0f64; 4];
        assert!(!f64::simd_gemm_panel(
            Tier::Scalar,
            &mut c,
            2,
            &[1.0; 4],
            2,
            &[1.0; 4],
            2,
            2,
            2,
            2
        ));
        assert_eq!(c, [0.0; 4]);
    }
}
