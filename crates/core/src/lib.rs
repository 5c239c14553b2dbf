//! FIRAL and Approx-FIRAL: scalable active learning for multiclass
//! logistic regression (SC'24).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`hessian`] — the Fisher-information structure (Eq. 2), Lemma 2's
//!   matrix-free matvec, pooled operators and Definition 1's block
//!   diagonals;
//! * [`exact`] — Exact-FIRAL (Algorithm 1), the NeurIPS'23 baseline;
//! * [`exec`] — **the execution layer**: the fast RELAX solver (Algorithm
//!   2: Hutchinson + preconditioned CG) and the diagonal ROUND solver
//!   (Algorithm 3: Lemma 3 / Proposition 4) written once, generic over
//!   `firal_comm::Communicator`. An [`exec::Executor`] owns the
//!   communicator endpoint, this rank's shard geometry
//!   ([`exec::ShardedProblem`]), probe-RNG seeding, phase timing, and
//!   per-run communication statistics. The serial path is the `SelfComm`
//!   instantiation (collectives are no-ops); the SPMD path is the same
//!   code over a real rank group — shared-memory `ThreadComm` threads or
//!   `SocketComm` processes on a TCP mesh (`spmd_launch`);
//! * `procedure` — the §IV-A steps both FIRALs share: one entropic
//!   mirror-descent step (`β₀ = 1`), one relative-change stopping rule, and
//!   one first-maximum η sweep;
//! * [`round`] — the replicated FTRL state ROUND's loop carries, in
//!   whitened coordinates;
//! * [`strategies`] — Random / K-Means / Entropy / Exact-FIRAL /
//!   Approx-FIRAL plus the PAPERS.md extensions UPAL
//!   ([`strategies::UpalStrategy`]) and Bayesian batch selection
//!   ([`strategies::BayesBatchStrategy`]), behind one trait,
//!   [`strategies::DistStrategy`]: each strategy is written once against
//!   [`exec::Executor`] and runs unchanged on every comm backend
//!   ([`strategies::strategy_by_name`] resolves registered names,
//!   [`strategies::select_serial`] is the `p = 1` call);
//! * [`dispatch`] — request → strategy dispatch with per-request stats
//!   accounting ([`dispatch::SelectRequest`] / [`dispatch::dispatch_select`]),
//!   the metering entry point the serving layer (`firal-serve`) and the
//!   bench workloads share;
//! * [`driver`] — the §IV-A multi-round active-learning loop;
//! * [`stream`] — **streaming round state**: a persistent, pool-versioned
//!   [`exec::RoundState`] advanced incrementally under point
//!   add/remove/label mutations (rank-one Cholesky up/downdates + a
//!   delta-Allreduce of changed partial sums) instead of rebuilt per
//!   round — see ARCHITECTURE.md § "Streaming round state" for ownership,
//!   invalidation, and the drift/refactor contract;
//! * [`timing`] — the phase timers behind the Figs. 5–7 breakdowns.
//!
//! The repo-root `ARCHITECTURE.md` maps paper sections/equations to these
//! modules in detail, including the determinism contracts.

#![deny(missing_docs)]

pub mod config;
pub mod dispatch;
pub mod driver;
pub mod exact;
pub mod exec;
pub mod hessian;
pub mod objective;
pub mod problem;
mod procedure;
pub mod round;
pub mod strategies;
pub mod stream;
pub mod timing;

pub use config::{FiralConfig, MirrorDescentConfig, RelaxConfig, RoundConfig};
pub use dispatch::{dispatch_select, SelectReport, SelectRequest};
pub use driver::{run_experiment, ExperimentResult, RoundRecord};
pub use exact::{exact_relax, exact_round};
pub use exec::{Executor, RelaxRun, RoundRun, RoundState, ShardedProblem};
pub use problem::SelectionProblem;
pub use procedure::RelaxTelemetry;
pub use strategies::{
    select_serial, strategy_by_name, ApproxFiral, BayesBatchStrategy, DistStrategy,
    EntropyStrategy, ExactFiral, KMeansStrategy, RandomStrategy, SelectError, SelectionRun,
    UpalStrategy, STRATEGY_NAMES,
};
pub use stream::{EigSolver, PoolUpdate, StreamCommit, StreamingState};
pub use timing::PhaseTimer;
