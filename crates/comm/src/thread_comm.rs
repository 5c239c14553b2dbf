//! Shared-memory multi-rank communicator.
//!
//! [`launch(p, f)`](launch) runs an SPMD closure on `p` OS threads, each
//! holding a [`ThreadComm`] endpoint: the crate's one collective driver
//! (replay, schedule point, fault hook, fingerprint check, billing, seal —
//! see `collective.rs`) over the shared-memory transport defined here. Its
//! data phase is deposit/combine over shared slots:
//!
//! 1. every rank publishes its contribution to its own cache-padded slot,
//! 2. barrier,
//! 3. every rank reads all slots and reduces **in rank order** (so the
//!    floating-point result is identical on every rank — the property MPI
//!    guarantees for deterministic reduction orders),
//! 4. barrier (so slots can be safely reused by the next collective).
//!
//! This gives the exact synchronization and data semantics of the paper's
//! `MPI_Allreduce`/`MPI_Bcast`/`MPI_Allgather` usage; transport cost is
//! modelled analytically by [`crate::CostModel`].
//!
//! # Failure behaviour
//!
//! The group barrier is *abortable*: a rank that panics out of [`launch`]'s
//! closure (or is killed by the fault plan, [`crate::fault`]) poisons the
//! root group's barrier, so every surviving rank blocked in a collective
//! returns [`CommError::RemoteAbort`] instead of deadlocking; with
//! `FIRAL_COMM_TIMEOUT` set, a rank stuck at a barrier gives up after the
//! deadline with [`CommError::DeadlineExceeded`] and poisons the barrier on
//! the way out. Known limitation: poisoning covers the group whose barrier
//! the panicking rank's endpoint was built on — sub-communicators created by
//! `split` have their own barriers and are only poisoned if the failure
//! happens while their members are inside a sub-group collective.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::collective::{Collective, Trace, Transport};
use crate::communicator::ReduceOp;
use crate::error::{comm_timeout, CommError};
use crate::verify::Fingerprint;
use crate::wire::{self, MaxLoc};

/// Pad each slot to its own cache line so rank publications don't false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

/// A counting barrier (std's [`std::sync::Barrier`] semantics) that can be
/// **poisoned**: once any rank marks the group failed, every current and
/// future waiter returns [`BarrierError::Poisoned`] immediately instead of
/// blocking for peers that will never arrive. An optional per-wait deadline
/// turns an indefinite stall into [`BarrierError::Deadline`] — and poisons
/// the barrier on the way out, so the *other* ranks stuck at the same
/// barrier observe the failure within their own deadline.
struct AbortableBarrier {
    size: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    poison: Option<(usize, String)>,
}

impl AbortableBarrier {
    fn new(size: usize) -> Self {
        Self {
            size,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                poison: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until all `size` ranks arrive, the barrier is poisoned, or
    /// `deadline` elapses. `rank` names this endpoint in the poison record
    /// it leaves behind on a deadline.
    fn wait(&self, rank: usize, deadline: Option<Duration>) -> Result<(), BarrierError> {
        let mut s = self.state.lock().expect("barrier mutex poisoned");
        if let Some((origin, reason)) = s.poison.clone() {
            return Err(BarrierError::Poisoned(origin, reason));
        }
        let gen = s.generation;
        s.count += 1;
        if s.count == self.size {
            s.count = 0;
            s.generation = s.generation.wrapping_add(1);
            self.cv.notify_all();
            return Ok(());
        }
        let until = deadline.map(|d| (Instant::now() + d, d));
        loop {
            s = match until {
                None => self.cv.wait(s).expect("barrier mutex poisoned"),
                Some((until, total)) => {
                    let now = Instant::now();
                    if now >= until {
                        // Give up — and poison, so peers parked at this
                        // same barrier unblock with a diagnosis instead of
                        // timing out one by one.
                        if s.poison.is_none() {
                            s.poison = Some((
                                rank,
                                format!("rank {rank} exceeded the {total:?} barrier deadline"),
                            ));
                        }
                        self.cv.notify_all();
                        return Err(BarrierError::Deadline(total));
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(s, until - now)
                        .expect("barrier mutex poisoned");
                    guard
                }
            };
            if let Some((origin, reason)) = s.poison.clone() {
                return Err(BarrierError::Poisoned(origin, reason));
            }
            if s.generation != gen {
                return Ok(());
            }
        }
    }

    /// Mark the group failed (first writer wins) and wake every waiter.
    fn poison(&self, origin: usize, reason: String) {
        let mut s = self.state.lock().expect("barrier mutex poisoned");
        if s.poison.is_none() {
            s.poison = Some((origin, reason));
        }
        self.cv.notify_all();
    }
}

/// One rank's deposit: the float buffer plus a separate integer lane for
/// the MAXLOC payload. Keeping the payload out of the `f64` buffer matches
/// the shared wire format ([`crate::wire::MaxLoc`]) and avoids bit-punning
/// indices through floats, which can canonicalize NaN-aliasing patterns on
/// some targets.
#[derive(Default)]
struct Slot {
    data: Vec<f64>,
    payload: u64,
    /// Lane of the debug-mode collective-order verifier ([`crate::verify`]):
    /// when verification is on, every rank deposits the fingerprint of the
    /// collective it is entering here, and every rank cross-checks all
    /// slots between two barriers *before* the collective's data phase
    /// runs.
    fingerprint: Option<Fingerprint>,
}

struct Shared {
    size: usize,
    slots: Vec<CachePadded<RwLock<Slot>>>,
    barrier: AbortableBarrier,
    /// Rendezvous table for [`crate::Communicator::split`]: each sub-group's
    /// leader (new rank 0) deposits the freshly built sub-[`Shared`] under
    /// the sub-group's scope tag; the other members pick it up between two
    /// parent barriers. Entries are removed once claimed, so the map stays
    /// empty outside an in-flight split — and the colors of one split get
    /// distinct tags by construction ([`wire::derive_scope`] mixes
    /// `color × odd constant` through a bijection).
    ///
    /// Determinism audit: the table is only ever accessed by exact key —
    /// `insert`, `get`, `remove` — never iterated, so no container ordering
    /// can reach a reduction. It is a `BTreeMap` anyway (the keys are
    /// `Ord`), making the no-iteration-order property structural rather
    /// than a usage convention (`firal-lint` rule `hash-order`).
    splits: Mutex<BTreeMap<u64, Arc<Shared>>>,
}

impl Shared {
    fn new(size: usize) -> Self {
        Self {
            size,
            slots: (0..size)
                .map(|_| CachePadded(RwLock::new(Slot::default())))
                .collect(),
            barrier: AbortableBarrier::new(size),
            splits: Mutex::new(BTreeMap::new()),
        }
    }

    fn read_slot(&self, rank: usize) -> RwLockReadGuard<'_, Slot> {
        self.slots[rank].0.read().expect("slot lock poisoned")
    }
}

/// One rank's endpoint of a shared-memory process group.
pub type ThreadComm = Collective<Slots>;

/// Home of the transport's types: `pub` so the public [`ThreadComm`] alias
/// (and the transport's `Raw` error) may mention them, unnameable outside
/// the crate because this module is private.
mod sealed {
    /// The shared-memory transport: this rank's view of its group's slots.
    pub struct Slots {
        pub(super) rank: usize,
        pub(super) shared: std::sync::Arc<super::Shared>,
    }

    /// Why an `AbortableBarrier::wait` did not complete.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BarrierError {
        /// A rank failed and poisoned the group: `(origin rank, its diagnostic)`.
        Poisoned(usize, String),
        /// This rank exceeded the configured deadline waiting for its peers.
        Deadline(std::time::Duration),
    }
}
use sealed::{BarrierError, Slots};

impl Slots {
    fn write_slot(&self) -> RwLockWriteGuard<'_, Slot> {
        self.shared.slots[self.rank]
            .0
            .write()
            .expect("slot lock poisoned")
    }

    fn publish(&self, data: &[f64], payload: u64) {
        let mut slot = self.write_slot();
        slot.data.clear();
        slot.data.extend_from_slice(data);
        slot.payload = payload;
    }
}

impl Transport for Slots {
    type Raw = BarrierError;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    /// An injected connection drop poisons the group barrier — the closest
    /// shared-memory analogue to severing a socket mesh.
    fn inject_drop(&self) {
        self.shared.barrier.poison(
            self.rank,
            format!(
                "{}: injected connection drop on rank {}",
                crate::fault::FAULT_ENV,
                self.rank
            ),
        );
    }

    /// The poison record already reached every waiter of the barrier, so
    /// lifting is diagnosis only.
    fn lift(&self, op: &'static str, seq: u64, raw: BarrierError, _trace: Trace<'_>) -> CommError {
        let (rank, size) = (self.rank, self.shared.size);
        match raw {
            BarrierError::Deadline(after) => CommError::DeadlineExceeded {
                rank,
                size,
                op,
                seq,
                after,
            },
            BarrierError::Poisoned(origin, reason) => CommError::RemoteAbort {
                rank,
                size,
                op,
                seq,
                origin,
                reason,
            },
        }
    }

    /// Deposit in the slot's fingerprint lane, then every rank reads all
    /// slots between two barriers.
    fn exchange_fingerprint(
        &self,
        own: &Fingerprint,
        mut check: impl FnMut(usize, Option<Fingerprint>),
    ) -> Result<(), BarrierError> {
        self.write_slot().fingerprint = Some(*own);
        self.barrier()?;
        for r in 0..self.shared.size {
            check(r, self.shared.read_slot(r).fingerprint);
        }
        self.barrier()
    }

    /// One abortable barrier round (also the fence inside every other
    /// data phase).
    fn barrier(&self) -> Result<(), BarrierError> {
        self.shared.barrier.wait(self.rank, comm_timeout())
    }

    fn allreduce(&self, buf: &mut [f64], op: ReduceOp) -> Result<(), BarrierError> {
        self.publish(buf, 0);
        self.barrier()?;
        {
            let s0 = self.shared.read_slot(0);
            assert_eq!(
                s0.data.len(),
                buf.len(),
                "allreduce length mismatch across ranks"
            );
            buf.copy_from_slice(&s0.data);
        }
        for r in 1..self.shared.size {
            let s = self.shared.read_slot(r);
            for (b, v) in buf.iter_mut().zip(s.data.iter()) {
                *b = op.combine(*b, *v);
            }
        }
        self.barrier()
    }

    fn bcast(&self, buf: &mut [f64], root: usize) -> Result<(), BarrierError> {
        if self.rank == root {
            self.publish(buf, 0);
        }
        self.barrier()?;
        if self.rank != root {
            let s = self.shared.read_slot(root);
            assert_eq!(
                s.data.len(),
                buf.len(),
                "bcast length mismatch across ranks"
            );
            buf.copy_from_slice(&s.data);
        }
        self.barrier()
    }

    fn allgatherv(&self, local: &[f64]) -> Result<Vec<f64>, BarrierError> {
        self.publish(local, 0);
        self.barrier()?;
        let mut out = Vec::new();
        for r in 0..self.shared.size {
            out.extend_from_slice(&self.shared.read_slot(r).data);
        }
        self.barrier()?;
        Ok(out)
    }

    fn maxloc(&self, own: MaxLoc) -> Result<MaxLoc, BarrierError> {
        // The payload rides the slot's integer lane — never through the
        // f64 buffer (see [`crate::wire::MaxLoc`]).
        self.publish(&[own.value], own.payload);
        self.barrier()?;
        // Rank-ordered MAXLOC semantics (tie → lowest rank, all-(-inf)
        // → rank 0's sentinel) come from the single shared definition.
        let best = MaxLoc::reduce_rank_ordered((0..self.shared.size).map(|r| {
            let s = self.shared.read_slot(r);
            MaxLoc {
                value: s.data[0],
                payload: s.payload,
            }
        }));
        self.barrier()?;
        Ok(best)
    }

    fn sub_group(
        &self,
        members: &[usize],
        my_pos: usize,
        scope: u64,
    ) -> Result<Self, BarrierError> {
        let splits = || self.shared.splits.lock().expect("split table poisoned");
        // 1. The sub-group leader builds the group's Shared and deposits
        //    it in the parent's rendezvous table; a parent barrier
        //    publishes all leaders' deposits at once.
        if my_pos == 0 {
            splits().insert(scope, Arc::new(Shared::new(members.len())));
        }
        self.barrier()?;
        // 2. Every member claims its group's Shared; a second parent
        //    barrier lets the leaders retire their entries afterwards.
        let shared = Arc::clone(
            splits()
                .get(&scope)
                .expect("sub-group leader never deposited its Shared"),
        );
        self.barrier()?;
        if my_pos == 0 {
            splits().remove(&scope);
        }
        Ok(Slots {
            rank: my_pos,
            shared,
        })
    }
}

/// Run an SPMD closure on `p` ranks and collect the per-rank results in
/// rank order. The closure runs once per rank on its own OS thread.
///
/// ```
/// let sums = firal_comm::launch(3, |comm| {
///     use firal_comm::{Communicator, ReduceOp};
///     let mut x = vec![(comm.rank() + 1) as f64];
///     comm.allreduce_f64(&mut x, ReduceOp::Sum);
///     x[0]
/// });
/// assert_eq!(sums, vec![6.0, 6.0, 6.0]);
/// ```
pub fn launch<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Sync,
{
    assert!(p > 0, "launch needs at least one rank");
    let shared = Arc::new(Shared::new(p));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let f = &f;
                scope.spawn(move || {
                    let slots = Slots {
                        rank,
                        shared: Arc::clone(&shared),
                    };
                    let comm = ThreadComm::over(slots, wire::ROOT_SCOPE);
                    match catch_unwind(AssertUnwindSafe(|| f(&comm))) {
                        Ok(v) => v,
                        Err(payload) => {
                            // A rank that unwinds out of its closure will
                            // never reach another barrier: poison the root
                            // group so its peers fail fast instead of
                            // deadlocking, then keep unwinding.
                            shared.barrier.poison(
                                rank,
                                format!("rank {rank} panicked: {}", panic_text(&*payload)),
                            );
                            resume_unwind(payload)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("SPMD rank panicked"))
            .collect()
    })
}

/// Best-effort rendering of a panic payload for abort diagnostics.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "(non-string panic payload)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Communicator;

    #[test]
    fn abortable_barrier_deadline_poisons_the_group() {
        let b = AbortableBarrier::new(2);
        // Only one rank arrives; with a deadline it must give up and poison.
        let err = b.wait(0, Some(Duration::from_millis(20))).unwrap_err();
        assert!(matches!(err, BarrierError::Deadline(_)), "{err:?}");
        // The other rank observes the poison instantly, even deadline-free.
        match b.wait(1, None).unwrap_err() {
            BarrierError::Poisoned(origin, reason) => {
                assert_eq!(origin, 0);
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected poison, got {other:?}"),
        }
    }

    #[test]
    fn abortable_barrier_completes_many_rounds() {
        let b = AbortableBarrier::new(3);
        std::thread::scope(|s| {
            for r in 0..3 {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..200 {
                        b.wait(r, Some(Duration::from_secs(10))).expect("round");
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_rank_poisons_peers_with_remote_abort() {
        // Rank 1 dies before its first collective; the survivors must get a
        // structured RemoteAbort naming it (not deadlock, not a panic), and
        // the poisoned endpoints must replay the same error forever after.
        let seen: Mutex<Vec<CommError>> = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            launch(3, |comm| {
                if comm.rank() == 1 {
                    panic!("boom on rank 1");
                }
                let e = comm.try_barrier().expect_err("survivors must fail");
                let replay = comm.try_barrier().expect_err("poisoned endpoint replays");
                assert_eq!(e, replay);
                seen.lock().expect("seen lock").push(e);
            })
        }));
        assert!(result.is_err(), "the panicking rank propagates its panic");
        let seen = seen.into_inner().expect("seen lock");
        assert_eq!(seen.len(), 2, "both survivors observed the failure");
        for e in &seen {
            match e {
                CommError::RemoteAbort { origin, reason, .. } => {
                    assert_eq!(*origin, 1);
                    assert!(reason.contains("boom on rank 1"), "{reason}");
                }
                other => panic!("expected RemoteAbort, got {other}"),
            }
        }
    }
}
