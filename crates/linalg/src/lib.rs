//! Dense linear-algebra kernels underpinning the firal workspace.
//!
//! The SC'24 Approx-FIRAL paper runs on CuPy/A100; this crate provides the
//! equivalent CPU substrate: a scalar abstraction over `f32`/`f64` (the paper
//! uses single precision for both storage and compute, §III-C), a dense
//! row-major [`Matrix`], cache-blocked rayon-parallel [`gemm()`] kernels, a
//! Cholesky factorization, symmetric eigensolvers (Householder
//! tridiagonalization + implicit QL, with a cyclic-Jacobi reference), SPD
//! helpers (inverse, inverse square root, condition number) and the
//! block-diagonal operators of Definition 1 that Approx-FIRAL's ROUND step
//! lives on.
//!
//! All kernels are written against the [`Scalar`] trait so every algorithm in
//! the workspace can be instantiated in `f32` (paper configuration) and `f64`
//! (reference/testing configuration).
//!
//! Global flop/byte counters ([`counters`]) let the benchmark harness verify
//! the complexity claims of Tables II and III empirically.
//!
//! The bitwise-determinism contracts this crate participates in (canonical
//! summation trees, no FMA, shape-only reduction chunking) are catalogued
//! in the repo-root `ARCHITECTURE.md` ("Determinism contracts and how they
//! are enforced") and mechanically checked by `firal-lint`.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod autotune;
pub mod blockdiag;
pub mod cholesky;
pub mod counters;
pub mod eigen;
pub mod gemm;
pub mod kron;
pub mod matrix;
pub mod quad;
pub mod scalar;
pub mod simd;
pub mod spd;
pub mod sweep;
pub mod vecops;

pub use autotune::{cache_geometry, plan_for, CacheGeometry, KernelPlan};
pub use blockdiag::BlockDiag;
pub use cholesky::{invert_lower, Cholesky, CholeskyBlocks};
pub use eigen::{eigh, eigvalsh, eigvalsh_blocks, jacobi_eigh, EigDecomposition};
pub use gemm::{
    gemm, gemm_a_bt, gemm_a_bt_tier, gemm_at_b, gemm_at_b_tier, gemm_into, gemm_tier,
    gram_weighted_multi, gram_weighted_multi_planned,
};
pub use kron::{kron, unvec, vec_of};
pub use matrix::Matrix;
pub use quad::{QuadSweep, QUAD_BLOCK_ROWS};
pub use scalar::Scalar;
pub use simd::{active_tier, available_tiers, cpu_features, Tier};
pub use spd::{spd_condition_number, spd_inv_sqrt, spd_inverse};
pub use sweep::{fisher_sweep, fisher_sweep_planned, to_wide, SweepWorkspace};
pub use vecops::{axpy, dot, nrm2, scale};

/// Error type for linear-algebra failures (non-SPD matrices, convergence
/// failures in the eigensolver, dimension mismatches surfaced at runtime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Cholesky hit a non-positive pivot: matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The QL iteration failed to converge for some eigenvalue.
    EigenNoConvergence {
        /// Index of the eigenvalue that failed.
        index: usize,
    },
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable context for the mismatch.
        context: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::EigenNoConvergence { index } => {
                write!(f, "eigensolver failed to converge (eigenvalue {index})")
            }
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
