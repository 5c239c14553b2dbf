//! The one collective driver: the envelope every collective runs in,
//! written once over a crate-private [`Transport`].
//!
//! A backend is its **data phase** — how the ranks' contributions physically
//! meet — and nothing else. Everything around it is policy with one owner,
//! [`Collective`], which carries the only `impl Communicator` in the crate:
//! [`crate::SelfComm`], [`crate::ThreadComm`] and [`crate::SocketComm`] are
//! `Collective<Solo>`, `Collective<Slots>` and `Collective<TcpMesh>`. Every
//! collective on every backend runs these steps in this order:
//!
//! 1. **Replay.** A poisoned endpoint returns its first [`CommError`]
//!    again and touches nothing, so a failed group can never half-proceed.
//! 2. **Schedule point.** One `Verifier::next_seq()` — the coordinate
//!    `FIRAL_FAULT` specs, [`CommError::seq`] and the verifier trace share.
//! 3. **Fault hook.** The process-wide plan ([`crate::fault`]) fires here,
//!    addressing [`Transport::fault_rank`].
//! 4. **Fingerprint.** The collective is stamped into the trace (the
//!    sequence number advances whether or not verification is on) and, when
//!    it is on and the group has peers, cross-checked through
//!    [`Transport::exchange_fingerprint`] before any data moves.
//! 5. **Data phase.** Skipped — together with the clock — on a group of
//!    one, where every collective is the identity (so [`CommStats::time`]
//!    stays zero at `p = 1`); otherwise the transport's, timed, a raw
//!    failure getting its collective context from [`Transport::lift`].
//! 6. **Billing.** Calls and own-contribution bytes from one table: `f64`
//!    buffers at 8 bytes an element, MAXLOC at [`MaxLoc::WIRE_BYTES`] on the
//!    allreduce lane, barrier and `split` free (a `split` costs the parent
//!    exactly its membership allgather).
//! 7. **Seal.** The first error is stashed for step 1.
//!
//! `split` is the same envelope around a different body: membership over
//! the parent's own `allgatherv` (a second schedule point), a scope tag from
//! [`wire::derive_scope`], and [`Transport::sub_group`] for the sub-group's
//! transport, wrapped in a fresh `Collective` with fresh statistics.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::time::{Duration, Instant};

use crate::communicator::{split_membership, CommStats, Communicator, ReduceOp};
use crate::error::{comm_catch, CommError};
use crate::fault::{FaultPlan, Injected};
use crate::verify::{CollectiveKind, Dtype, Fingerprint, Verifier};
use crate::wire::{self, MaxLoc};

/// Renders the verifier's recent-collective dump (empty when verification
/// is off) — only when a diagnosis actually carries text.
pub type Trace<'a> = &'a dyn Fn() -> String;

/// The data phase of a backend. What the driver relies on:
///
/// * **rank-ordered visibility** — reductions combine in group rank order
///   ([`ReduceOp`]'s `combine`, [`MaxLoc::reduce_rank_ordered`]) and
///   `allgatherv` concatenates in it, so every rank of every backend ends
///   with the same bits;
/// * **no partial success** — a data-phase method returns `Ok` only once
///   this rank holds the complete result; anything else is a `Raw` error
///   the driver lifts, seals and replays;
/// * **[`Transport::lift`] is the whole failure protocol** — diagnosis
///   *and* whatever the medium needs so the group's survivors fail too.
///
/// `pub` only so the public backend aliases may mention it: this module is
/// private, so the trait can be neither named nor implemented outside the
/// crate.
pub trait Transport: Sized + 'static {
    /// The medium's native failure (an `io::Error`, a poisoned barrier).
    type Raw;

    /// This endpoint's rank in its group.
    fn rank(&self) -> usize;
    /// Number of ranks in the group.
    fn size(&self) -> usize;
    /// The rank `FIRAL_FAULT` specs address on this endpoint.
    fn fault_rank(&self) -> usize {
        self.rank()
    }
    /// Carry out an injected `drop-conn`: break the medium, then let the
    /// collective proceed so the damage surfaces as a structured error.
    fn inject_drop(&self);
    /// Turn a raw failure of collective `op` at schedule point `seq` into
    /// a [`CommError`].
    fn lift(&self, op: &'static str, seq: u64, raw: Self::Raw, trace: Trace<'_>) -> CommError;
    /// Show `own` to the group and hand every peer fingerprint this rank
    /// gets to see to `check(peer rank, fingerprint)`. Must flow the same
    /// way whatever the collective, so a kind skew is diagnosed instead of
    /// deadlocking.
    fn exchange_fingerprint(
        &self,
        own: &Fingerprint,
        check: impl FnMut(usize, Option<Fingerprint>),
    ) -> Result<(), Self::Raw>;
    /// Return once every rank has arrived.
    fn barrier(&self) -> Result<(), Self::Raw>;
    /// Overwrite `buf` with the rank-ordered reduction of all `buf`s.
    fn allreduce(&self, buf: &mut [f64], op: ReduceOp) -> Result<(), Self::Raw>;
    /// Overwrite `buf` with rank `root`'s.
    fn bcast(&self, buf: &mut [f64], root: usize) -> Result<(), Self::Raw>;
    /// All contributions, concatenated in rank order.
    fn allgatherv(&self, local: &[f64]) -> Result<Vec<f64>, Self::Raw>;
    /// [`MaxLoc::reduce_rank_ordered`] over every rank's record.
    fn maxloc(&self, own: MaxLoc) -> Result<MaxLoc, Self::Raw>;
    /// Collective over this group: the transport of the sub-group made of
    /// this group's ranks `members` (in new-rank order, this endpoint at
    /// `my_pos`), sharing no mutable state with sub-groups of another
    /// color. `scope` tags its traffic and names it uniquely among this
    /// group's splits.
    fn sub_group(&self, members: &[usize], my_pos: usize, scope: u64) -> Result<Self, Self::Raw>;
    /// First use of a transport [`Transport::sub_group`] just built, run by
    /// the *sub-group's* driver so a failure carries the sub-group's
    /// identity and stays inside it.
    fn open(&self) -> Result<(), Self::Raw> {
        Ok(())
    }
}

/// The `p = 1` transport: no peers, so nothing ever moves. The driver's
/// group-of-one short-circuit never reaches the data-phase methods; they
/// are the identities regardless.
#[derive(Debug, Default)]
pub struct Solo;

impl Transport for Solo {
    type Raw = Infallible;

    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    /// A connection drop is meaningless with no connection.
    fn inject_drop(&self) {}
    fn lift(&self, _: &'static str, _: u64, raw: Infallible, _: Trace<'_>) -> CommError {
        match raw {}
    }
    fn exchange_fingerprint(
        &self,
        _: &Fingerprint,
        _: impl FnMut(usize, Option<Fingerprint>),
    ) -> Result<(), Infallible> {
        Ok(())
    }
    fn barrier(&self) -> Result<(), Infallible> {
        Ok(())
    }
    fn allreduce(&self, _: &mut [f64], _: ReduceOp) -> Result<(), Infallible> {
        Ok(())
    }
    fn bcast(&self, _: &mut [f64], _: usize) -> Result<(), Infallible> {
        Ok(())
    }
    fn allgatherv(&self, local: &[f64]) -> Result<Vec<f64>, Infallible> {
        Ok(local.to_vec())
    }
    fn maxloc(&self, own: MaxLoc) -> Result<MaxLoc, Infallible> {
        Ok(own)
    }
    fn sub_group(&self, _: &[usize], _: usize, _: u64) -> Result<Self, Infallible> {
        Ok(Solo)
    }
}

/// What the envelope needs to know about one call: its name in errors and
/// its fingerprint lanes — which also determine what a success is billed.
struct Call {
    op: &'static str,
    kind: CollectiveKind,
    dtype: Dtype,
    param: u32,
    count: u64,
}

impl Call {
    /// A collective with no payload (barrier, `split`).
    fn bare(op: &'static str, kind: CollectiveKind) -> Self {
        Self {
            op,
            kind,
            dtype: Dtype::None,
            param: 0,
            count: 0,
        }
    }

    /// A collective over an `f64` buffer.
    fn f64s(op: &'static str, kind: CollectiveKind, param: usize, buf: &[f64]) -> Self {
        Self {
            dtype: Dtype::F64,
            param: param as u32,
            count: buf.len() as u64,
            ..Self::bare(op, kind)
        }
    }
}

/// One rank's endpoint of a process group: the collective envelope (see the
/// module docs) around a [`Transport`].
#[derive(Debug, Default)]
pub struct Collective<T: Transport> {
    pub(crate) transport: T,
    /// Collective-order verifier state ([`crate::verify`]). Its sequence
    /// counter advances even when verification is off — it is the schedule
    /// coordinate fault injection keys on.
    pub(crate) verify: Verifier,
    /// Split generations issued from this endpoint. Members of one group
    /// call `split` collectively, so their counters advance in lock-step
    /// and name each generation (and its scope tag) identically.
    split_seq: Cell<u64>,
    stats: RefCell<CommStats>,
    /// First [`CommError`] observed on this endpoint; replayed by every
    /// subsequent collective so a failed group can never half-proceed.
    failed: RefCell<Option<CommError>>,
}

impl<T: Transport> Collective<T> {
    /// Wrap a group's transport; `scope` is the group's tag in fingerprints
    /// and (on a wire) frames.
    pub(crate) fn over(transport: T, scope: u64) -> Self {
        Self {
            transport,
            verify: Verifier::new(scope),
            split_seq: Cell::new(0),
            stats: RefCell::default(),
            failed: RefCell::new(None),
        }
    }

    /// Replay the stashed error on a poisoned endpoint.
    fn check_failed(&self) -> Result<(), CommError> {
        match &*self.failed.borrow() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Stash `result`'s error (first failure wins) and pass it through.
    fn seal<R>(&self, result: Result<R, CommError>) -> Result<R, CommError> {
        if let Err(e) = &result {
            let mut failed = self.failed.borrow_mut();
            if failed.is_none() {
                *failed = Some(e.clone());
            }
        }
        result
    }

    /// Consult the process-wide fault plan at this endpoint's next schedule
    /// point. `kill`/`stall` execute inside the plan; a connection drop is
    /// the transport's to carry out. The plan addresses
    /// [`Transport::fault_rank`]: the **world** rank on the socket mesh (a
    /// spec follows its process into every sub-group, which is what
    /// `tests/fault_matrix.rs` plans rely on), the **group** rank on shared
    /// memory.
    fn fault_hook(&self, seq: u64) {
        let plan = FaultPlan::from_env();
        if plan.at_collective(self.transport.fault_rank(), seq) == Some(Injected::DropConn) {
            self.transport.inject_drop();
        }
    }

    /// Schedule check at the top of every collective: stamp the
    /// fingerprint and cross-check it against the group's *before* the data
    /// phase runs, so a skewed schedule aborts with the per-rank diagnostic
    /// trace instead of deadlocking or combining mismatched contributions.
    /// No-op beyond the schedule counter unless verification is enabled
    /// ([`crate::verify::verify_enabled`]); a transport failure during the
    /// exchange surfaces as `Err` like any data-phase failure.
    fn verify_collective(&self, call: &Call, seq: u64) -> Result<(), CommError> {
        let stamped = self
            .verify
            .stamp(call.kind, call.dtype, call.param, call.count);
        let (rank, size) = (self.transport.rank(), self.transport.size());
        let Some(own) = stamped.filter(|_| size > 1) else {
            return Ok(());
        };
        self.transport
            .exchange_fingerprint(&own, |peer, theirs| match theirs {
                Some(fp) if own.matches(&fp) => {}
                _ => self.verify.mismatch_panic(rank, size, own, peer, theirs),
            })
            .map_err(|e| self.lift(call.op, seq, e))
    }

    /// This rank's recent-collective trace, when the verifier is on — so a
    /// failure diagnosis tells the whole per-rank story.
    pub(crate) fn trace(&self) -> String {
        if self.verify.enabled() {
            format!(
                "\n  last collectives on this rank (oldest first):\n{}",
                self.verify.trace_dump()
            )
        } else {
            String::new()
        }
    }

    fn lift(&self, op: &'static str, seq: u64, raw: T::Raw) -> CommError {
        self.transport.lift(op, seq, raw, &|| self.trace())
    }

    /// Steps 1–4 and 7 of the envelope around `body`, which gets the
    /// collective's schedule point (`split` supplies its own body).
    fn collective<R>(
        &self,
        call: &Call,
        body: impl FnOnce(u64) -> Result<R, CommError>,
    ) -> Result<R, CommError> {
        self.check_failed()?;
        let seq = self.verify.next_seq();
        self.fault_hook(seq);
        let result = self.verify_collective(call, seq).and_then(|()| body(seq));
        self.seal(result)
    }

    /// The full envelope around a collective the transport carries out:
    /// steps 5–6 inside [`Self::collective`]. `alone` is the result on a
    /// group of one, `data` the transport's data phase.
    fn carried<R>(
        &self,
        call: Call,
        alone: impl FnOnce() -> R,
        data: impl FnOnce(&T) -> Result<R, T::Raw>,
    ) -> Result<R, CommError> {
        self.collective(&call, |seq| {
            if self.transport.size() == 1 {
                self.book(&call, Duration::ZERO);
                return Ok(alone());
            }
            // A barrier is free, so it is not timed either.
            let t0 = (call.kind != CollectiveKind::Barrier).then(Instant::now);
            let out = data(&self.transport).map_err(|e| self.lift(call.op, seq, e))?;
            self.book(&call, t0.map_or(Duration::ZERO, |t| t.elapsed()));
            Ok(out)
        })
    }

    /// The one billing table: a call and this rank's own contribution in
    /// bytes, on the lane of the collective's kind (MAXLOC is an allreduce).
    fn book(&self, call: &Call, elapsed: Duration) {
        let st = &mut *self.stats.borrow_mut();
        let (calls, bytes) = match call.kind {
            CollectiveKind::Barrier | CollectiveKind::Split => return,
            CollectiveKind::Bcast => (&mut st.bcast_calls, &mut st.bcast_bytes),
            CollectiveKind::Allgatherv => (&mut st.allgather_calls, &mut st.allgather_bytes),
            _ => (&mut st.allreduce_calls, &mut st.allreduce_bytes),
        };
        *calls += 1;
        *bytes += match call.dtype {
            Dtype::None => 0,
            Dtype::F64 => 8 * call.count,
            Dtype::MaxLocRec => MaxLoc::WIRE_BYTES as u64 * call.count,
        };
        st.time += elapsed;
    }
}

impl<T: Transport> Communicator for Collective<T> {
    fn rank(&self) -> usize {
        self.transport.rank()
    }

    fn size(&self) -> usize {
        self.transport.size()
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        let call = Call::bare("barrier", CollectiveKind::Barrier);
        self.carried(call, || (), |t| t.barrier())
    }

    fn try_allreduce_f64(&self, buf: &mut [f64], op: ReduceOp) -> Result<(), CommError> {
        let kind = CollectiveKind::allreduce(op);
        let call = Call::f64s("allreduce_f64", kind, 0, buf);
        self.carried(call, || (), |t| t.allreduce(buf, op))
    }

    fn try_bcast_f64(&self, buf: &mut [f64], root: usize) -> Result<(), CommError> {
        assert!(root < self.size(), "bcast root out of range");
        let call = Call::f64s("bcast_f64", CollectiveKind::Bcast, root, buf);
        self.carried(call, || (), |t| t.bcast(buf, root))
    }

    fn try_allgatherv_f64(&self, local: &[f64]) -> Result<Vec<f64>, CommError> {
        let call = Call::f64s("allgatherv_f64", CollectiveKind::Allgatherv, 0, local);
        self.carried(call, || local.to_vec(), |t| t.allgatherv(local))
    }

    fn try_allreduce_maxloc(&self, value: f64, payload: u64) -> Result<(f64, u64), CommError> {
        let own = MaxLoc { value, payload };
        let call = Call {
            dtype: Dtype::MaxLocRec,
            count: 1,
            ..Call::bare("allreduce_maxloc", CollectiveKind::Maxloc)
        };
        let best = self.carried(call, || own, |t| t.maxloc(own))?;
        Ok((best.value, best.payload))
    }

    fn try_split(&self, color: usize, key: usize) -> Result<Box<dyn Communicator>, CommError> {
        // Fingerprint the split itself before the membership exchange:
        // color/key are legitimately rank-dependent, but *that* every rank
        // is splitting here is part of the schedule contract.
        self.collective(&Call::bare("split", CollectiveKind::Split), |seq| {
            // Membership over the parent's own collectives (every member of
            // one color group computes the identical roster; the traffic is
            // the parent's and carries the parent's scope). The exchange
            // runs on the infallible wrappers — re-enter the fallible world
            // at this boundary.
            let (members, my_pos) = comm_catch(|| split_membership(self, color, key))?;
            let generation = self.split_seq.get();
            self.split_seq.set(generation + 1);
            // Every member of one color group derives the identical tag,
            // and the same tag on every backend, so diagnostics name the
            // same group identities everywhere.
            let scope = wire::derive_scope(self.verify.scope(), generation, color as u64);
            let sub = self
                .transport
                .sub_group(&members, my_pos, scope)
                .map_err(|e| self.lift("split", seq, e))?;
            let sub = Collective::over(sub, scope);
            sub.transport
                .open()
                .map_err(|e| sub.lift("split", sub.verify.next_seq(), e))?;
            Ok(Box::new(sub) as Box<dyn Communicator>)
        })
    }

    fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    fn reset_stats(&self) {
        *self.stats.borrow_mut() = CommStats::default();
    }
}
