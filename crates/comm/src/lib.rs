//! Message-passing substrate: simulated *and* real transports.
//!
//! The paper's implementation distributes the unlabeled pool across GPUs and
//! uses three MPI collectives (§III-C): `MPI_Allreduce` (preconditioner and
//! matvec partial sums, global argmax in the ROUND objective),
//! `MPI_Allgather` (eigenvalue collection), and `MPI_Bcast` (probe panels
//! and the selected point's `x, h`). This crate reproduces that layer on a
//! single host:
//!
//! * [`Communicator`] — the collective interface the SPMD algorithms in
//!   `firal-core::exec` are written against. It has **one**
//!   implementation: the collective driver in the private `collective`
//!   module, which owns everything around a collective's data movement —
//!   poisoned-endpoint replay, the schedule point, the fault hook, the
//!   verifier fingerprint, [`CommStats`] billing, the first-error seal and
//!   the `split` protocol — and is generic over a crate-private transport.
//!   The three backends are that driver over their data movement and
//!   nothing else:
//! * [`SelfComm`] — no transport: a group of one never moves data;
//! * [`ThreadComm`]/[`launch`] — `p` OS threads with shared-memory
//!   deposit/combine (deterministic rank-ordered reduction, so every rank
//!   computes bitwise identical results);
//! * [`SocketComm`]/[`socket_launch`]/[`fork_self`] — the **process-level
//!   backend**: a full TCP (localhost) socket mesh with a rank-0
//!   rendezvous, the same rank-ordered reduction contract, and real wire
//!   time in [`CommStats::time`]. `spmd_launch` (in `firal-bench`) forks
//!   `p` processes of itself and joins them via [`SocketComm`]`::from_env`;
//! * [`wire`] — the framing, MAXLOC encoding, and split-scope tags every
//!   real transport shares, defined once;
//! * [`verify`] — the debug-mode collective-order verifier: under
//!   `FIRAL_COMM_VERIFY=1` (and by default in debug builds) every
//!   collective cross-checks a schedule fingerprint across ranks, so a
//!   skewed SPMD schedule aborts with a per-rank diagnostic trace instead
//!   of deadlocking;
//! * [`CostModel`] — the latency/bandwidth/compute model of Thakur,
//!   Rabenseifner & Gropp that the paper uses for its theoretical
//!   performance bars (recursive-doubling allreduce/allgather, binomial-tree
//!   bcast), with the paper's own constants as a preset;
//! * per-rank [`CommStats`] — call/byte/second counters per collective, the
//!   measured "MPI communication" series of Figs. 6–7.
//!
//! Substitution note: every transport delivers the same rank-ordered
//! deterministic reduction (the property MPI guarantees for deterministic
//! reduction orders), so algorithm behaviour — including the data
//! decomposition — is identical to the paper's across [`SelfComm`],
//! [`ThreadComm`], and [`SocketComm`]; only the transport differs.
//!
//! [`Communicator::split`] (MPI's `MPI_Comm_split`) partitions a group into
//! disjoint sub-groups, each a full `Communicator` satisfying the same
//! deterministic reduction contract as a root group of the same size. This
//! is what the execution layer's 2D rank geometry (`p = p_shard × p_eta`,
//! see `firal_core::exec::EtaGroupGeometry`) is built on: η-grid groups and
//! the cross-group picker are sub-communicators, not a second code path. On
//! [`SocketComm`] every sub-group stamps its frames with a scope tag
//! ([`wire::derive_scope`]) so collectives of different groups sharing mesh
//! links cannot cross-talk.
//!
//! # Failure model
//!
//! The collectives are *fallible*: every operation has a `try_`-variant
//! returning [`CommError`] (peer death, deadline exceeded, protocol error,
//! remote abort — each carrying rank/op/sequence context), with the
//! infallible methods as thin wrappers that abort with the diagnosis (see
//! [`error`]). [`SocketComm`] applies the `FIRAL_COMM_TIMEOUT` deadline to
//! every frame, broadcasts an **abort frame** ([`wire::ABORT_TAG`]) when a
//! rank fails so survivors return [`CommError::RemoteAbort`] within one
//! deadline instead of deadlocking, and [`fault`] injects deterministic
//! failures (`FIRAL_FAULT`) keyed off the per-rank collective sequence
//! number for reproducible chaos tests. The full taxonomy — what is and
//! isn't survivable, the abort-frame protocol, and the fault grammar — is
//! documented in the repo-root `ARCHITECTURE.md` ("Failure model").
//!
//! The repo-root `ARCHITECTURE.md` maps this crate's pieces to §III-C of
//! the paper and spells out the determinism contracts in one place.

#![deny(missing_docs)]

mod collective;
pub mod communicator;
pub mod cost;
pub mod error;
pub mod fault;
pub mod socket_comm;
pub mod thread_comm;
pub mod verify;
pub mod wire;

pub use communicator::{CommScalar, CommStats, Communicator, ReduceOp, SelfComm};
pub use cost::CostModel;
pub use error::{comm_catch, comm_timeout, CommError, COMM_TIMEOUT_ENV};
pub use fault::FAULT_ENV;
pub use socket_comm::{
    fork_self, fork_self_report, free_rendezvous_addr, poll_accept, socket_launch, RankExit,
    SocketComm, RENDEZVOUS_TIMEOUT_ENV,
};
pub use thread_comm::{launch, ThreadComm};
pub use verify::{verify_enabled, CollectiveKind, Dtype, Fingerprint, VERIFY_ENV};

/// Which multi-rank transport a harness should launch ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Shared-memory [`ThreadComm`] ranks (OS threads, no wire).
    #[default]
    Thread,
    /// [`SocketComm`] ranks over real localhost TCP.
    Socket,
}

impl Backend {
    /// Lower-case tag used in table columns and CLI flags.
    pub fn tag(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Socket => "socket",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "thread" => Ok(Backend::Thread),
            "socket" => Ok(Backend::Socket),
            other => Err(format!("unknown backend {other:?} (thread|socket)")),
        }
    }
}

/// Run an SPMD closure on `p` ranks over the chosen [`Backend`], erasing
/// the concrete communicator type. Both transports satisfy the same
/// deterministic reduction contract, so results are interchangeable.
pub fn launch_backend<R, F>(backend: Backend, p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&dyn Communicator) -> R + Sync,
{
    match backend {
        Backend::Thread => launch(p, |comm| f(comm)),
        Backend::Socket => socket_launch(p, |comm| f(comm)),
    }
}

/// Evenly shard `n` items across `size` ranks; returns the index range owned
/// by `rank` (first `n % size` ranks get one extra item). This is the pool
/// decomposition of §III-C ("evenly distributing h_i and x_i of n points").
pub fn shard_range(n: usize, rank: usize, size: usize) -> std::ops::Range<usize> {
    assert!(rank < size, "rank {rank} out of {size}");
    let base = n / size;
    let extra = n % size;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..(start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_everything_without_overlap() {
        for n in [0usize, 1, 7, 100, 101] {
            for p in [1usize, 2, 3, 5, 12] {
                let mut covered = Vec::new();
                for r in 0..p {
                    covered.extend(shard_range(n, r, p));
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn shards_are_balanced() {
        for n in [10usize, 11, 12] {
            let lens: Vec<usize> = (0..4).map(|r| shard_range(n, r, 4).len()).collect();
            let max = *lens.iter().max().unwrap();
            let min = *lens.iter().min().unwrap();
            assert!(max - min <= 1, "n={n}: {lens:?}");
        }
    }

    #[test]
    fn backend_tags_roundtrip() {
        for b in [Backend::Thread, Backend::Socket] {
            assert_eq!(b.tag().parse::<Backend>().unwrap(), b);
        }
        assert!("mpi".parse::<Backend>().is_err());
    }

    #[test]
    fn launch_backend_runs_either_transport() {
        for backend in [Backend::Thread, Backend::Socket] {
            let sums = launch_backend(backend, 3, |comm| {
                let mut x = vec![(comm.rank() + 1) as f64];
                comm.allreduce_f64(&mut x, ReduceOp::Sum);
                x[0]
            });
            assert_eq!(sums, vec![6.0, 6.0, 6.0], "{backend:?}");
        }
    }
}
