//! The collective-communication interface and the single-rank communicator.

use std::time::Duration;

use crate::collective::{Collective, Solo};
use crate::error::{raise, CommError};

/// Reduction operators supported by [`Communicator::allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Per-collective call/byte/time counters (one instance per rank).
///
/// These drive the measured "MPI communication" bars of Figs. 6–7 and feed
/// the theoretical [`crate::CostModel`] with the actual message sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Number of allreduce calls.
    pub allreduce_calls: u64,
    /// Total bytes contributed to allreduces.
    pub allreduce_bytes: u64,
    /// Number of bcast calls.
    pub bcast_calls: u64,
    /// Total bytes broadcast.
    pub bcast_bytes: u64,
    /// Number of allgather calls.
    pub allgather_calls: u64,
    /// Total bytes gathered (own contribution).
    pub allgather_bytes: u64,
    /// Wall-clock time spent inside collectives.
    pub time: Duration,
}

impl CommStats {
    /// Counters accumulated since an earlier snapshot of the same rank
    /// (pairs with [`Communicator::stats`] to attribute communication to one
    /// phase of a run without resetting the global counters).
    ///
    /// Subtraction saturates: if [`Communicator::reset_stats`] ran between
    /// the snapshot and now, the earlier snapshot can exceed the current
    /// counters, and a phase delta of zero is the honest answer — not a
    /// debug-build panic or a release-build wraparound.
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            allreduce_calls: self.allreduce_calls.saturating_sub(earlier.allreduce_calls),
            allreduce_bytes: self.allreduce_bytes.saturating_sub(earlier.allreduce_bytes),
            bcast_calls: self.bcast_calls.saturating_sub(earlier.bcast_calls),
            bcast_bytes: self.bcast_bytes.saturating_sub(earlier.bcast_bytes),
            allgather_calls: self.allgather_calls.saturating_sub(earlier.allgather_calls),
            allgather_bytes: self.allgather_bytes.saturating_sub(earlier.allgather_bytes),
            time: self.time.saturating_sub(earlier.time),
        }
    }

    /// Total bytes contributed across all collective kinds.
    pub fn total_bytes(&self) -> u64 {
        self.allreduce_bytes + self.bcast_bytes + self.allgather_bytes
    }

    /// Total collective calls across all kinds.
    pub fn total_calls(&self) -> u64 {
        self.allreduce_calls + self.bcast_calls + self.allgather_calls
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.allreduce_calls += other.allreduce_calls;
        self.allreduce_bytes += other.allreduce_bytes;
        self.bcast_calls += other.bcast_calls;
        self.bcast_bytes += other.bcast_bytes;
        self.allgather_calls += other.allgather_calls;
        self.allgather_bytes += other.allgather_bytes;
        self.time += other.time;
    }
}

/// Collective communication across an SPMD process group.
///
/// All buffers are `f64`; generic algorithms go through [`CommScalar`]
/// which widens `f32` losslessly on the wire. Semantics match the MPI
/// collectives the paper uses:
///
/// * `allreduce_f64` — every rank ends with the identical reduction of all
///   contributions (reduction is performed in rank order on every rank, so
///   results are bitwise reproducible and rank-independent);
/// * `bcast_f64` — `root`'s buffer overwrites everyone's;
/// * `allgatherv_f64` — concatenation of every rank's (variable-length)
///   contribution in rank order;
/// * `allreduce_maxloc` — MPI's `MAXLOC`: the global maximum value together
///   with its payload (lowest rank wins ties), used to pick the argmax
///   point in the ROUND objective (Line 7 of Algorithm 3);
/// * `split` — MPI's `MPI_Comm_split`: a **collective** that partitions the
///   group into disjoint sub-groups by `color`, ordering each sub-group's
///   new ranks by `(key, parent rank)`. Sub-communicators satisfy the same
///   deterministic rank-ordered reduction contract as their parent, so a
///   sub-group run of `p'` ranks is bitwise identical to a root run of the
///   same `p'` ranks.
///
/// The fallible `try_`-collectives are the canonical surface — implemented
/// once, for every backend, by the crate's collective driver — and the
/// infallible methods are provided wrappers that [`raise`] a [`CommError`]
/// as a diagnosed abort, so legacy call sites keep working while outer
/// layers migrate to the fallible path (see [`crate::comm_catch`] and the
/// "Failure model" section of the repo-root `ARCHITECTURE.md`).
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks in the group.
    fn size(&self) -> usize;
    /// Fallible synchronization barrier.
    ///
    /// Determinism: no data moves, so nothing can perturb reproducibility —
    /// but a barrier is still a schedule point every rank must reach, and
    /// the debug-mode verifier ([`crate::verify`]) cross-checks it like any
    /// other collective. On `Err` the endpoint is poisoned: this rank's
    /// result bits never depend on *how far* a failed collective got.
    fn try_barrier(&self) -> Result<(), CommError>;
    /// Fallible in-place allreduce: every rank's `buf` is overwritten with
    /// the reduction of all contributions (same length on every rank).
    ///
    /// Determinism: the reduction is evaluated **in rank order** on every
    /// backend, so the result is bitwise identical on every rank and across
    /// backends — floating-point non-associativity never leaks schedule or
    /// transport details into the bits. On `Err`, `buf` may hold partial
    /// garbage and must not be consumed.
    fn try_allreduce_f64(&self, buf: &mut [f64], op: ReduceOp) -> Result<(), CommError>;
    /// Fallible broadcast from `root`: `root`'s buffer overwrites
    /// everyone's (same length on every rank).
    ///
    /// Determinism: a pure byte copy of the root's buffer — receivers end
    /// with exactly the root's bits, no arithmetic involved. On `Err`,
    /// `buf` may hold partial garbage and must not be consumed.
    fn try_bcast_f64(&self, buf: &mut [f64], root: usize) -> Result<(), CommError>;
    /// Fallible variable-length allgather; returns all contributions
    /// concatenated in rank order.
    ///
    /// Determinism: the concatenation order is the group's rank order on
    /// every backend, and each contribution is copied bit-exactly, so every
    /// rank receives the identical vector.
    fn try_allgatherv_f64(&self, local: &[f64]) -> Result<Vec<f64>, CommError>;
    /// Fallible global max with payload (ties broken towards the lower
    /// rank).
    ///
    /// Determinism: implemented everywhere via the single rank-ordered
    /// scan [`crate::wire::MaxLoc::reduce_rank_ordered`] — ties always
    /// resolve to the lowest rank and the all-`-inf` sentinel case always
    /// propagates rank 0's payload, identically on every backend.
    fn try_allreduce_maxloc(&self, value: f64, payload: u64) -> Result<(f64, u64), CommError>;
    /// Fallible collective partition of this group into disjoint
    /// sub-groups (see [`Communicator::split`] for the full semantics).
    ///
    /// Determinism: membership and new-rank order are computed from the
    /// deterministic membership exchange, and every sub-communicator
    /// satisfies the same rank-ordered reduction contract as its parent —
    /// a sub-group of `p'` ranks reduces bitwise identically to a root
    /// group of the same `p'` ranks.
    fn try_split(&self, color: usize, key: usize) -> Result<Box<dyn Communicator>, CommError>;
    /// Synchronization barrier.
    ///
    /// Determinism: identical to [`Communicator::try_barrier`]; on failure
    /// this wrapper aborts with the full [`CommError`] diagnosis instead of
    /// returning it.
    fn barrier(&self) {
        if let Err(e) = self.try_barrier() {
            raise(e)
        }
    }
    /// In-place allreduce: every rank's `buf` is overwritten with the
    /// reduction of all contributions (same length on every rank).
    ///
    /// Determinism: identical to [`Communicator::try_allreduce_f64`] —
    /// rank-ordered reduction, bitwise reproducible; on failure this
    /// wrapper aborts with the full [`CommError`] diagnosis.
    fn allreduce_f64(&self, buf: &mut [f64], op: ReduceOp) {
        if let Err(e) = self.try_allreduce_f64(buf, op) {
            raise(e)
        }
    }
    /// Broadcast from `root`: `root`'s buffer overwrites everyone's (same
    /// length on every rank).
    ///
    /// Determinism: identical to [`Communicator::try_bcast_f64`] — a pure
    /// byte copy of the root's buffer; on failure this wrapper aborts with
    /// the full [`CommError`] diagnosis.
    fn bcast_f64(&self, buf: &mut [f64], root: usize) {
        if let Err(e) = self.try_bcast_f64(buf, root) {
            raise(e)
        }
    }
    /// Variable-length allgather; returns all contributions concatenated in
    /// rank order.
    ///
    /// Determinism: identical to [`Communicator::try_allgatherv_f64`] —
    /// rank-ordered concatenation, bit-exact; on failure this wrapper
    /// aborts with the full [`CommError`] diagnosis.
    fn allgatherv_f64(&self, local: &[f64]) -> Vec<f64> {
        match self.try_allgatherv_f64(local) {
            Ok(v) => v,
            Err(e) => raise(e),
        }
    }
    /// Global max with payload (ties broken towards the lower rank).
    ///
    /// Determinism: identical to [`Communicator::try_allreduce_maxloc`] —
    /// the single rank-ordered MAXLOC scan; on failure this wrapper aborts
    /// with the full [`CommError`] diagnosis.
    fn allreduce_maxloc(&self, value: f64, payload: u64) -> (f64, u64) {
        match self.try_allreduce_maxloc(value, payload) {
            Ok(v) => v,
            Err(e) => raise(e),
        }
    }
    /// Collectively partition this group into disjoint sub-groups: ranks
    /// passing the same `color` land in the same sub-communicator, with new
    /// ranks assigned by ascending `(key, parent rank)` (MPI's
    /// `MPI_Comm_split` semantics, minus the "undefined color" escape —
    /// every rank joins exactly one sub-group, possibly a singleton).
    ///
    /// **Every rank of this communicator must call `split` (it is a
    /// collective)**, and the returned endpoint starts a fresh
    /// [`CommStats`] record, so per-sub-group communication can be
    /// attributed independently of the parent's counters.
    ///
    /// Determinism: identical to [`Communicator::try_split`] — membership
    /// and new-rank order come from the deterministic membership exchange;
    /// on failure this wrapper aborts with the full [`CommError`]
    /// diagnosis.
    fn split(&self, color: usize, key: usize) -> Box<dyn Communicator> {
        match self.try_split(color, key) {
            Ok(c) => c,
            Err(e) => raise(e),
        }
    }
    /// Snapshot of this rank's communication statistics.
    fn stats(&self) -> CommStats;
    /// Reset this rank's statistics.
    fn reset_stats(&self);
}

/// Membership bookkeeping of [`Communicator::split`]: allgather each rank's
/// `(color, key)` over the parent group, then order my color-mates by
/// `(key, parent rank)`.
///
/// Returns the parent ranks of my sub-group in **new-rank order** plus my
/// own position (= my new rank). Identical on every member of the group —
/// the contributions travel through the parent's deterministic collectives.
pub(crate) fn split_membership(
    comm: &dyn Communicator,
    color: usize,
    key: usize,
) -> (Vec<usize>, usize) {
    // usize → f64 is exact for the rank/color/key magnitudes a group can
    // hold (collectives address ranks, so values stay far below 2^53).
    let all = comm.allgatherv_f64(&[color as f64, key as f64]);
    assert_eq!(all.len(), 2 * comm.size(), "split membership exchange");
    let mut mates: Vec<(usize, usize)> = (0..comm.size())
        .filter(|&r| all[2 * r] == color as f64)
        .map(|r| (all[2 * r + 1] as usize, r))
        .collect();
    mates.sort_unstable();
    let members: Vec<usize> = mates.into_iter().map(|(_, r)| r).collect();
    let my_pos = members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("calling rank missing from its own color group");
    (members, my_pos)
}

/// Single-rank communicator: all collectives are identities. The `p = 1`
/// fast path, and what the serial algorithms run on.
///
/// The collective driver never reaches a transport on a group of one, so
/// nothing moves and no clock is read; collectives are still counted in
/// [`CommStats`] and stamped into the verifier trace ([`crate::verify`]),
/// which has no peer to disagree with but documents the schedule this
/// endpoint ran.
pub type SelfComm = Collective<Solo>;

impl SelfComm {
    /// Create a fresh single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scalar types that can travel through a [`Communicator`].
///
/// `f32` widens to `f64` on the wire (lossless) and narrows on receipt;
/// the generic SPMD algorithms in `firal-core` use these helpers so the
/// same code runs in either precision.
pub trait CommScalar: firal_linalg::Scalar {
    /// In-place allreduce of a typed buffer.
    fn allreduce(comm: &dyn Communicator, buf: &mut [Self], op: ReduceOp);
    /// Broadcast of a typed buffer.
    fn bcast(comm: &dyn Communicator, buf: &mut [Self], root: usize);
    /// Variable-length allgather of a typed buffer.
    fn allgatherv(comm: &dyn Communicator, local: &[Self]) -> Vec<Self>;
}

/// `f32` widens through a temporary `f64` staging buffer.
impl CommScalar for f32 {
    fn allreduce(comm: &dyn Communicator, buf: &mut [Self], op: ReduceOp) {
        let mut wide: Vec<f64> = buf.iter().map(|&v| v as f64).collect();
        comm.allreduce_f64(&mut wide, op);
        for (b, w) in buf.iter_mut().zip(wide.iter()) {
            *b = *w as f32;
        }
    }
    fn bcast(comm: &dyn Communicator, buf: &mut [Self], root: usize) {
        let mut wide: Vec<f64> = buf.iter().map(|&v| v as f64).collect();
        comm.bcast_f64(&mut wide, root);
        for (b, w) in buf.iter_mut().zip(wide.iter()) {
            *b = *w as f32;
        }
    }
    fn allgatherv(comm: &dyn Communicator, local: &[Self]) -> Vec<Self> {
        let wide: Vec<f64> = local.iter().map(|&v| v as f64).collect();
        comm.allgatherv_f64(&wide)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }
}

/// `f64` already is the wire type: call straight through, no staging
/// allocation on the hot path.
impl CommScalar for f64 {
    fn allreduce(comm: &dyn Communicator, buf: &mut [Self], op: ReduceOp) {
        comm.allreduce_f64(buf, op);
    }
    fn bcast(comm: &dyn Communicator, buf: &mut [Self], root: usize) {
        comm.bcast_f64(buf, root);
    }
    fn allgatherv(comm: &dyn Communicator, local: &[Self]) -> Vec<Self> {
        comm.allgatherv_f64(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selfcomm_allreduce_is_identity() {
        let c = SelfComm::new();
        let mut buf = vec![1.0, 2.0, 3.0];
        c.allreduce_f64(&mut buf, ReduceOp::Sum);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        assert_eq!(c.stats().allreduce_calls, 1);
        assert_eq!(c.stats().allreduce_bytes, 24);
    }

    #[test]
    fn selfcomm_gather_and_maxloc() {
        let c = SelfComm::new();
        assert_eq!(c.allgatherv_f64(&[5.0, 6.0]), vec![5.0, 6.0]);
        assert_eq!(c.allreduce_maxloc(3.5, 42), (3.5, 42));
    }

    #[test]
    fn comm_scalar_f32_roundtrip() {
        let c = SelfComm::new();
        let mut buf = vec![1.5f32, -2.25];
        <f32 as CommScalar>::allreduce(&c, &mut buf, ReduceOp::Sum);
        assert_eq!(buf, vec![1.5, -2.25]);
    }

    #[test]
    fn reduce_ops_combine() {
        assert_eq!(ReduceOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.combine(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.combine(2.0, 3.0), 2.0);
    }

    #[test]
    fn comm_scalar_f64_is_passthrough() {
        let c = SelfComm::new();
        let mut buf = vec![1.5f64, -2.25];
        <f64 as CommScalar>::allreduce(&c, &mut buf, ReduceOp::Sum);
        <f64 as CommScalar>::bcast(&c, &mut buf, 0);
        assert_eq!(<f64 as CommScalar>::allgatherv(&c, &buf), vec![1.5, -2.25]);
        // All three routed to the raw collectives (and were counted there).
        let s = c.stats();
        assert_eq!(
            (s.allreduce_calls, s.bcast_calls, s.allgather_calls),
            (1, 1, 1)
        );
    }

    #[test]
    fn selfcomm_try_surface_is_infallible() {
        let c = SelfComm::new();
        assert!(c.try_barrier().is_ok());
        let mut buf = vec![1.0];
        assert!(c.try_allreduce_f64(&mut buf, ReduceOp::Sum).is_ok());
        assert!(c.try_bcast_f64(&mut buf, 0).is_ok());
        assert_eq!(c.try_allgatherv_f64(&buf).unwrap(), vec![1.0]);
        assert_eq!(c.try_allreduce_maxloc(1.0, 7).unwrap(), (1.0, 7));
        let sub = c.try_split(0, 0).expect("singleton split");
        assert_eq!((sub.rank(), sub.size()), (0, 1));
    }

    #[test]
    fn stats_since_saturates_after_reset() {
        // Snapshot, reset, one more call: the "since snapshot" delta must
        // clamp at zero for the counters that went backwards, not panic.
        let c = SelfComm::new();
        let mut buf = vec![0.0; 8];
        c.allreduce_f64(&mut buf, ReduceOp::Sum);
        c.allreduce_f64(&mut buf, ReduceOp::Sum);
        let snapshot = c.stats();
        c.reset_stats();
        c.allreduce_f64(&mut buf, ReduceOp::Sum);
        let delta = c.stats().since(&snapshot);
        assert_eq!(delta.allreduce_calls, 0);
        assert_eq!(delta.allreduce_bytes, 0);
        assert_eq!(delta.time, Duration::ZERO);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = CommStats::default();
        let b = CommStats {
            allreduce_calls: 2,
            allreduce_bytes: 100,
            time: Duration::from_millis(5),
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.allreduce_calls, 4);
        assert_eq!(a.allreduce_bytes, 200);
        assert_eq!(a.time, Duration::from_millis(10));
    }
}
