//! Runtime SIMD feature dispatch for the hot dense kernels.
//!
//! The four kernels in [`mod@crate::gemm`], the fused Fisher-panel sweep
//! in [`mod@crate::sweep`] and the Eq. 17 sweep in [`mod@crate::quad`] are
//! implemented at three levels:
//! the always-available scalar register-tiled panels (the reference
//! semantics), and explicit-`std::arch` SIMD bodies for x86-64 (AVX2 and
//! the SSE2 baseline) and AArch64 (NEON). The tier is picked **once** at
//! first kernel use — best detected feature set, overridable with
//! `FIRAL_SIMD=off|sse2|avx2|neon` — and every subsequent call dispatches
//! through it, by one seam: a kernel call is a [`SimdKernel`] operand
//! struct, [`Dispatch::simd_run`] hands it to the `#[target_feature]`
//! wrapper of the (tier, dtype), and the wrapper runs the struct's
//! width-generic body at its vector type. A new kernel is a body and a
//! struct; the seam does not grow.
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
//! * [`crate::gemm::gram_weighted_multi`]: rows accumulate strictly
//!   sequentially;
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

pub(crate) use body::{AtBChunk, GemmPanel, GramRows};
pub(crate) use sweep::SweepBlock;
use vector::SimdVec;

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

/// Best tier the running CPU supports.
fn detect_best() -> Tier {
    *available_tiers()
        .last()
        .expect("the scalar tier is always there")
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

/// Panic unless the running CPU can execute `tier` (cheap: the feature
/// macros cache their CPUID probes). The kernel entry points and
/// [`Dispatch::simd_run`] call this, so a harness passing a foreign tier
/// fails loudly instead of executing illegal instructions.
pub(crate) fn check_tier(tier: Tier) {
    let available = match tier {
        Tier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Sse2 => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => true,
        #[allow(unreachable_patterns)]
        _ => false,
    };
    assert!(available, "SIMD tier '{tier}' is unavailable on this host");
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

/// One kernel call packaged for dispatch: a small operand struct (defined
/// next to its width-generic body in `simd/body.rs` / `simd/sweep.rs`) whose
/// [`SimdKernel::run`] forwards to that body at a concrete vector type.
///
/// Every implementation asserts the shape contract of its body first, so a
/// struct with inconsistent operands panics instead of reaching the body.
#[doc(hidden)]
pub trait SimdKernel<T: Copy> {
    /// Check the operands against the body's shape contract, then run the
    /// body on the vector type `V`.
    ///
    /// # Safety
    /// Caller must hold the target feature backing `V`.
    unsafe fn run<V: SimdVec<T>>(self);
}

/// Per-dtype routing from a [`Tier`] to the monomorphized SIMD bodies.
///
/// This is the dispatch seam between the shape/chunking logic in
/// [`mod@crate::gemm`], [`mod@crate::sweep`] and [`mod@crate::quad`]
/// (written once, generic over [`crate::Scalar`]) and the
/// `#[target_feature]` wrappers (necessarily monomorphic per dtype and ISA,
/// but generic in the kernel they run).
pub trait Dispatch: Copy {
    /// Run `k` on `tier`'s vector type for this dtype. Returns `false`,
    /// leaving the operands untouched, for [`Tier::Scalar`]: the caller
    /// then runs its scalar panel. Panics if `tier` is unavailable on the
    /// running host.
    #[doc(hidden)]
    fn simd_run<K: SimdKernel<Self>>(tier: Tier, k: K) -> bool;
}

/// One `#[target_feature]` wrapper per (tier, dtype), generic in the kernel:
/// [`SimdKernel::run`] and the bodies behind it are `#[inline(always)]`, so
/// each kernel monomorphizes and codegens under the wrapper's feature set.
macro_rules! feature_wrapper {
    ($feat:literal, $name:ident, $t:ty, $v:ty) => {
        // SAFETY: `#[target_feature]` makes the fn unsafe with the contract
        // "caller verified $feat" — exactly the feature backing `$v`, which
        // is all `SimdKernel::run` asks for.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn $name<K: super::SimdKernel<$t>>(k: K) {
            // SAFETY: feature contract forwarded, see above.
            unsafe { k.run::<$v>() }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod wrap {
    use super::vector::x86::{Avx2F32, Avx2F64, Sse2F32, Sse2F64};

    feature_wrapper!("avx2", avx2_f32, f32, Avx2F32);
    feature_wrapper!("avx2", avx2_f64, f64, Avx2F64);
    feature_wrapper!("sse2", sse2_f32, f32, Sse2F32);
    feature_wrapper!("sse2", sse2_f64, f64, Sse2F64);
}

#[cfg(target_arch = "aarch64")]
mod wrap {
    use super::vector::arm::{NeonF32, NeonF64};

    feature_wrapper!("neon", neon_f32, f32, NeonF32);
    feature_wrapper!("neon", neon_f64, f64, NeonF64);
}

/// Implements [`Dispatch`] for one dtype by routing each tier to its
/// wrapper.
macro_rules! dispatch {
    ($t:ty, $avx2:ident, $sse2:ident, $neon:ident) => {
        impl Dispatch for $t {
            fn simd_run<K: SimdKernel<Self>>(tier: Tier, k: K) -> bool {
                check_tier(tier);
                match tier {
                    // SAFETY: `check_tier` just verified AVX2 at runtime.
                    #[cfg(target_arch = "x86_64")]
                    Tier::Avx2 => unsafe { wrap::$avx2(k) },
                    // SAFETY: SSE2 is the x86-64 compile-time baseline.
                    #[cfg(target_arch = "x86_64")]
                    Tier::Sse2 => unsafe { wrap::$sse2(k) },
                    // SAFETY: NEON is the AArch64 compile-time baseline.
                    #[cfg(target_arch = "aarch64")]
                    Tier::Neon => unsafe { wrap::$neon(k) },
                    _ => return false,
                }
                true
            }
        }
    };
}

dispatch!(f32, avx2_f32, sse2_f32, neon_f32);
dispatch!(f64, avx2_f64, sse2_f64, neon_f64);

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
        let (a, b) = ([1.0; 4], [1.0; 4]);
        let panel = body::GemmPanel {
            c: &mut c,
            ldc: 2,
            a: &a,
            lda: 2,
            b: &b,
            ldb: 2,
            rows: 2,
            k: 2,
            n: 2,
        };
        assert!(!f64::simd_run(Tier::Scalar, panel));
        assert_eq!(c, [0.0; 4]);
    }
}
