//! Iterative solvers and optimizers for the firal workspace.
//!
//! Approx-FIRAL (SC'24) replaces Exact-FIRAL's dense direct solves with:
//!
//! * matrix-free **preconditioned conjugate gradients** ([`cg`]) for the two
//!   linear systems per Hutchinson probe in the RELAX step (Algorithm 2,
//!   lines 6/8), with per-iteration relative-residual telemetry so the
//!   Fig. 1 preconditioner study can be regenerated;
//! * the Rademacher probe panel of the **Hutchinson trace estimator**
//!   ([`hutchinson`], Eq. 12), which RELAX assembles into its gradient;
//! * **bisection** ([`bisection`]) for the FTRL normalization constant
//!   `ν_t` with `Σ_j (ν + ηλ_j)^{-2} = 1` (Algorithm 1 line 17 /
//!   Algorithm 3 line 10);
//! * **L-BFGS** ([`lbfgs`]) — the classifier trainer standing in for
//!   scikit-learn's `LogisticRegression(solver="lbfgs")` used in §IV-A
//!   (fixed `m = 10`, `c₁ = 1e-4`, `c₂ = 0.9`, ≤ 50 line-search steps);
//! * **distributed operators** ([`dist`]) — [`AllreduceOperator`] composes
//!   a rank-local operator shard with the §III-C partial-sum Allreduce (and
//!   an optional replicated term) behind the ordinary [`LinearOperator`]
//!   trait, so CG is written once for serial and SPMD execution.
//!
//! Determinism contracts relevant to this crate (rank-ordered reductions
//! behind [`AllreduceOperator`], shape-only CG panel chunking) are
//! catalogued in the repo-root `ARCHITECTURE.md` ("Determinism contracts
//! and how they are enforced"), with the rule that checks each.

#![deny(missing_docs)]

pub mod bisection;
pub mod cg;
pub mod dist;
pub mod hutchinson;
pub mod lbfgs;
pub mod op;

pub use bisection::{bisect, solve_nu};
pub use cg::{cg_solve, cg_solve_panel, CgConfig, CgTelemetry};
pub use dist::{allreduce_block_diag, AllreduceOperator};
pub use hutchinson::rademacher_panel;
pub use lbfgs::{lbfgs_minimize, LbfgsConfig, LbfgsResult, LbfgsStatus};
pub use op::{DenseOperator, IdentityPreconditioner, LinearOperator, PanelScratch, Preconditioner};
