//! # firal — scalable active learning for multiclass logistic regression
//!
//! Umbrella crate re-exporting the full workspace: a Rust reproduction of
//! **"A Scalable Algorithm for Active Learning"** (Chen, Wen, Biros —
//! SC 2024), i.e. the Approx-FIRAL algorithm, the exact FIRAL baseline, the
//! classical active-learning baselines, and the supporting HPC substrate.
//!
//! ## Architecture
//!
//! The repo-root `ARCHITECTURE.md` maps every paper section, algorithm,
//! and equation to its crate and module, and states the determinism
//! contracts the layers hold each other to; this section is the
//! condensed version.
//!
//! The paper's central structural claim is that Approx-FIRAL is *one*
//! algorithm whose collectives degenerate to no-ops at `p = 1`. The
//! workspace mirrors that claim in its layering — RELAX and ROUND are
//! written **once**, generic over a communicator, and the serial run is
//! that code over a communicator of one:
//!
//! ```text
//!           strategies / driver / bench / examples
//!                          │
//!              firal_core::exec::Executor        ← the execution layer:
//!            (communicator + shard geometry +      RELAX/ROUND written once
//!             RNG seeding + PhaseTimer + CommStats)
//!          │                 │                  │
//!   SelfComm (p = 1,   ThreadComm (p ranks,   SocketComm (p ranks, OS
//!   no-op collectives: OS threads + shared-   processes or threads on a
//!   the "serial" path) memory collectives)    localhost TCP mesh with a
//!                                             rank-0 rendezvous; launched
//!                                             by `spmd_launch`)
//!                          │
//!        firal_solvers (CG / Hutchinson probes / bisection;
//!        `AllreduceOperator` puts the §III-C matvec reduction
//!        behind the ordinary LinearOperator trait)
//!                          │
//!        firal_linalg (GEMM kernels, Cholesky, eigensolvers,
//!        block-diagonal operators of Definition 1)
//! ```
//!
//! Concretely:
//!
//! * [`core::exec`] holds [`core::Executor`] and [`core::ShardedProblem`].
//!   An executor owns one rank's context — communicator endpoint, shard
//!   geometry (`offset = 0`, `local_n = n` for the trivial single-rank
//!   shard), probe-RNG seeding, the phase timer, and per-run communication
//!   statistics — and exposes `relax`, `round`, `select_eta`, and
//!   `approx_firal`.
//! * There is one way to run a selection at each level: phases are
//!   [`core::Executor`] methods; a strategy is a [`core::DistStrategy`]
//!   handed an executor ([`core::select_serial`] builds the
//!   [`comm::SelfComm`] one); a metered request is
//!   [`core::dispatch_select`]. Serial and SPMD callers differ only in the
//!   [`comm::Communicator`] they pass.
//! * Communication volume is first-class: every run returns
//!   [`comm::CommStats`] (per-collective calls/bytes/time), which the bench
//!   harnesses print next to wall-clock so scaling tables show *what was
//!   communicated*, not just how long it took.
//!
//! This is the prerequisite for every scaling direction on the roadmap: a
//! process/MPI backend or a GPU-resident backend is one new `Communicator`
//! (plus kernels), not a re-implementation of the solvers; new selection
//! strategies (unbiased-weighting or Bayesian-batch variants) are written
//! once and are immediately distributed.
//!
//! ## Quickstart
//!
//! ```
//! use firal::core::{select_serial, ApproxFiral, SelectionProblem};
//! use firal::data::SyntheticConfig;
//! use firal::logreg::LogisticRegression;
//!
//! // 3-class toy pool in 4 dimensions.
//! let ds = SyntheticConfig::new(3, 4).with_pool_size(90).with_seed(7).generate::<f64>();
//! let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
//! let problem = SelectionProblem::new(
//!     ds.pool_features.clone(),
//!     model.class_probs_cm1(&ds.pool_features),
//!     ds.initial_features.clone(),
//!     model.class_probs_cm1(&ds.initial_features),
//!     ds.num_classes,
//! );
//! let picked = select_serial(&ApproxFiral::default(), &problem, 6, 0).unwrap().selected;
//! assert_eq!(picked.len(), 6);
//! ```
//!
//! The same selection, explicitly through the execution layer on one rank:
//!
//! ```
//! use firal::comm::SelfComm;
//! use firal::core::{Executor, RelaxConfig, ShardedProblem};
//! # use firal::core::SelectionProblem;
//! # use firal::data::SyntheticConfig;
//! # use firal::logreg::LogisticRegression;
//! # let ds = SyntheticConfig::new(3, 4).with_pool_size(90).with_seed(7).generate::<f64>();
//! # let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
//! # let problem = SelectionProblem::new(
//! #     ds.pool_features.clone(),
//! #     model.class_probs_cm1(&ds.pool_features),
//! #     ds.initial_features.clone(),
//! #     model.class_probs_cm1(&ds.initial_features),
//! #     ds.num_classes,
//! # );
//! let comm = SelfComm::new();
//! let shard = ShardedProblem::replicate(&problem);
//! let exec = Executor::new(&comm, &shard);
//! let relax = exec.relax(6, &RelaxConfig::default());
//! let round = exec.round(&relax.z_local, 6, 8.0 * (problem.ehat() as f64).sqrt());
//! assert_eq!(round.selected.len(), 6);
//! ```
//!
//! See `examples/` for full active-learning loops, strong/weak scaling runs
//! and method comparisons, and `crates/bench` for the harnesses that
//! regenerate every table and figure of the paper.

/// Dense linear algebra kernels (matrices, GEMM, Cholesky, eigensolvers).
pub use firal_linalg as linalg;

/// Iterative solvers: preconditioned CG, Hutchinson probes, bisection,
/// L-BFGS, and the communicator-aware `AllreduceOperator`.
pub use firal_solvers as solvers;

/// Message-passing substrate (SPMD ranks, collectives, cost model): no-op
/// `SelfComm`, shared-memory `ThreadComm`, and the inter-process TCP-mesh
/// `SocketComm` backend.
pub use firal_comm as comm;

/// Synthetic embedding-style datasets with the paper's Table V presets.
pub use firal_data as data;

/// k-means clustering (the K-Means selection baseline).
pub use firal_cluster as cluster;

/// Multinomial logistic regression classifier and metrics.
pub use firal_logreg as logreg;

/// FIRAL / Approx-FIRAL algorithms, baselines, experiment driver, and the
/// communicator-generic execution layer.
pub use firal_core as core;

/// Active-learning-as-a-service: the persistent selection server held open
/// over a warm rank mesh, its client protocol, and the sub-group scheduler.
pub use firal_serve as serve;
