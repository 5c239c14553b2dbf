//! Debug-mode collective-order verifier.
//!
//! The classic SPMD bug — two ranks issuing *different* collectives (or the
//! same collective with different shapes) at the same point of the program —
//! deadlocks or silently desynchronizes most transports. MPI ships external
//! tools (MUST, Marmot) to catch it; this module builds the equivalent check
//! directly into every [`crate::Communicator`] backend:
//!
//! * every collective call stamps a [`Fingerprint`] — `(seq, op-kind, dtype,
//!   element-count, scope-tag)` — into a per-endpoint ring buffer (the last
//!   [`TRACE_LEN`] collectives each rank saw);
//! * when verification is enabled, ranks exchange fingerprints *before* the
//!   collective's data phase and cross-check them: piggybacked as
//!   scope-tagged preamble frames on [`crate::SocketComm`]'s existing mesh
//!   links, via a shared fingerprint table in [`crate::ThreadComm`], and
//!   trivially (trace only) in [`crate::SelfComm`];
//! * a mismatch aborts the rank with a diagnostic naming both fingerprints
//!   and dumping the rank's recent collective trace — instead of the
//!   deadlock/desync the skew would otherwise cause.
//!
//! The fingerprint exchange always runs hub-style in the same direction
//! regardless of the collective's own data flow, so even kind mismatches
//! that would deadlock the data phase (e.g. one rank in `bcast`, its peer in
//! `allreduce`) are diagnosed before any data frame moves.
//!
//! # Enabling
//!
//! Controlled by the [`VERIFY_ENV`] environment variable (`FIRAL_COMM_VERIFY`):
//! `1`/`true`/`on`/`yes` force it on, anything else set forces it off, and
//! when unset it defaults to **on in debug builds** (`cfg(debug_assertions)`,
//! so every `cargo test` run verifies schedules) and off in release builds.
//! The exchange never touches collective payloads or [`crate::CommStats`],
//! so enabling it is bit- and stats-neutral on the happy path.
//!
//! See `ARCHITECTURE.md` ("Determinism contracts and how they are
//! enforced") for how this runtime check pairs with the static rules
//! (clippy configuration and `tests/contracts.rs`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::communicator::ReduceOp;
use crate::wire;

/// Environment variable controlling the verifier: `1`/`true`/`on`/`yes`
/// enable it, any other value disables it, unset falls back to the build
/// profile default (on under `debug_assertions`, off in release).
pub const VERIFY_ENV: &str = "FIRAL_COMM_VERIFY";

/// How many recent collectives each endpoint keeps for the diagnostic trace.
pub const TRACE_LEN: usize = 16;

/// The operation lane of a [`Fingerprint`]: which collective a rank issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CollectiveKind {
    /// [`crate::Communicator::barrier`].
    Barrier = 0,
    /// [`crate::Communicator::allreduce_f64`] with [`ReduceOp::Sum`].
    AllreduceSum = 1,
    /// [`crate::Communicator::allreduce_f64`] with [`ReduceOp::Max`].
    AllreduceMax = 2,
    /// [`crate::Communicator::allreduce_f64`] with [`ReduceOp::Min`].
    AllreduceMin = 3,
    /// [`crate::Communicator::bcast_f64`] (the root rides the param lane).
    Bcast = 4,
    /// [`crate::Communicator::allgatherv_f64`] (contribution lengths are
    /// legitimately rank-dependent, so the count lane is not cross-checked).
    Allgatherv = 5,
    /// [`crate::Communicator::allreduce_maxloc`].
    Maxloc = 6,
    /// [`crate::Communicator::split`] (color/key are legitimately
    /// rank-dependent and stay out of the fingerprint; the schedule *point*
    /// is what must agree).
    Split = 7,
}

impl CollectiveKind {
    /// The allreduce kind for a concrete reduction operator.
    pub fn allreduce(op: ReduceOp) -> Self {
        match op {
            ReduceOp::Sum => CollectiveKind::AllreduceSum,
            ReduceOp::Max => CollectiveKind::AllreduceMax,
            ReduceOp::Min => CollectiveKind::AllreduceMin,
        }
    }

    /// Human-readable name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::AllreduceSum => "allreduce(sum)",
            CollectiveKind::AllreduceMax => "allreduce(max)",
            CollectiveKind::AllreduceMin => "allreduce(min)",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Allgatherv => "allgatherv",
            CollectiveKind::Maxloc => "allreduce_maxloc",
            CollectiveKind::Split => "split",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => CollectiveKind::Barrier,
            1 => CollectiveKind::AllreduceSum,
            2 => CollectiveKind::AllreduceMax,
            3 => CollectiveKind::AllreduceMin,
            4 => CollectiveKind::Bcast,
            5 => CollectiveKind::Allgatherv,
            6 => CollectiveKind::Maxloc,
            7 => CollectiveKind::Split,
            _ => return None,
        })
    }
}

/// The element-type lane of a [`Fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Dtype {
    /// No payload travels (barrier, split).
    None = 0,
    /// Little-endian IEEE-754 `f64` elements (the shared wire type).
    F64 = 1,
    /// A [`wire::MaxLoc`] record (separate `f64` value and `u64` payload
    /// lanes).
    MaxLocRec = 2,
}

impl Dtype {
    /// Human-readable name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::None => "none",
            Dtype::F64 => "f64",
            Dtype::MaxLocRec => "maxloc",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Dtype::None,
            1 => Dtype::F64,
            2 => Dtype::MaxLocRec,
            _ => return None,
        })
    }
}

/// One collective call's identity in the group schedule: the per-endpoint
/// sequence number, the operation and element type, an op parameter (the
/// bcast root), the element count, and the group's scope tag.
///
/// Two ranks of one group are *schedule-consistent* at a point when their
/// fingerprints [`matches`](Fingerprint::matches): everything must agree
/// except the count lane of [`CollectiveKind::Allgatherv`], whose per-rank
/// contribution lengths are legitimately unequal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Position in this endpoint's collective schedule (0-based; every
    /// group member's n-th collective must be the same operation).
    pub seq: u64,
    /// Which collective was issued.
    pub kind: CollectiveKind,
    /// Element type of the payload.
    pub dtype: Dtype,
    /// Operation parameter: the root for [`CollectiveKind::Bcast`], 0
    /// otherwise.
    pub param: u32,
    /// Element count of this rank's contribution.
    pub count: u64,
    /// Scope tag of the (sub-)communicator the collective ran on (see
    /// [`wire::derive_scope`]).
    pub scope: u64,
}

impl Fingerprint {
    /// Encoded size of a fingerprint preamble frame: four little-endian
    /// `u64` words (`seq`, packed `kind`/`dtype`/`param`, `count`, `scope`).
    pub const WIRE_BYTES: usize = 32;

    /// Encode for the [`crate::SocketComm`] preamble frame.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        let packed = (self.kind as u64) | ((self.dtype as u64) << 8) | ((self.param as u64) << 32);
        let mut out = [0u8; Self::WIRE_BYTES];
        out[..8].copy_from_slice(&self.seq.to_le_bytes());
        out[8..16].copy_from_slice(&packed.to_le_bytes());
        out[16..24].copy_from_slice(&self.count.to_le_bytes());
        out[24..].copy_from_slice(&self.scope.to_le_bytes());
        out
    }

    /// Decode a frame written by [`Fingerprint::encode`]. `None` when the
    /// kind/dtype lanes hold values this build does not know (a protocol
    /// mismatch — treated as a schedule mismatch by the caller).
    pub fn decode(bytes: &[u8; Self::WIRE_BYTES]) -> Option<Self> {
        let seq = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let packed = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let scope = u64::from_le_bytes(bytes[24..].try_into().unwrap());
        Some(Self {
            seq,
            kind: CollectiveKind::from_u8(packed as u8)?,
            dtype: Dtype::from_u8((packed >> 8) as u8)?,
            param: (packed >> 32) as u32,
            count,
            scope,
        })
    }

    /// Schedule consistency: all lanes must agree, except that the count
    /// lane of an allgatherv is legitimately rank-dependent.
    pub fn matches(&self, other: &Fingerprint) -> bool {
        self.seq == other.seq
            && self.kind == other.kind
            && self.dtype == other.dtype
            && self.param == other.param
            && self.scope == other.scope
            && (self.kind == CollectiveKind::Allgatherv || self.count == other.count)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.seq, self.kind.name())?;
        if self.kind == CollectiveKind::Bcast {
            write!(f, " root={}", self.param)?;
        }
        write!(
            f,
            " dtype={} count={} scope={:#018x}",
            self.dtype.name(),
            self.count,
            self.scope
        )
    }
}

/// Override lane for tests that must pin the verifier regardless of the
/// build profile: 0 = defer to env/profile, 1 = force on, 2 = force off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Test hook: force the verifier on/off process-wide (`None` restores the
/// [`VERIFY_ENV`]/build-profile default). Endpoints capture the setting at
/// construction, so flip it *before* building communicators — never while
/// another group is mid-construction on other threads.
#[doc(hidden)]
pub fn set_verify_override(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::SeqCst);
}

/// Whether collective-order verification is active for newly constructed
/// endpoints (see [`VERIFY_ENV`] for the resolution rules).
pub fn verify_enabled() -> bool {
    match OVERRIDE.load(Ordering::SeqCst) {
        1 => return true,
        2 => return false,
        _ => {}
    }
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var(VERIFY_ENV) {
        Ok(v) => matches!(v.as_str(), "1" | "true" | "on" | "yes"),
        Err(_) => cfg!(debug_assertions),
    })
}

/// Per-endpoint verifier state: the enable flag captured at construction,
/// the group scope, the running collective sequence number, and the ring
/// buffer of recent fingerprints backing the mismatch diagnostic.
#[derive(Debug)]
pub(crate) struct Verifier {
    enabled: bool,
    scope: u64,
    seq: Cell<u64>,
    trace: RefCell<VecDeque<Fingerprint>>,
}

impl Default for Verifier {
    fn default() -> Self {
        Self::new(wire::ROOT_SCOPE)
    }
}

impl Verifier {
    /// A verifier for a (sub-)communicator whose frames carry `scope`.
    pub fn new(scope: u64) -> Self {
        Self {
            enabled: verify_enabled(),
            scope,
            seq: Cell::new(0),
            trace: RefCell::new(VecDeque::with_capacity(TRACE_LEN)),
        }
    }

    /// Whether this endpoint exchanges fingerprints.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The scope tag this verifier stamps on fingerprints.
    pub fn scope(&self) -> u64 {
        self.scope
    }

    /// The sequence number the *next* collective on this endpoint will get
    /// (equivalently: how many collectives have run). Advanced by every
    /// [`Verifier::stamp`] regardless of the enable flag, so deterministic
    /// fault injection ([`crate::fault`]) can key off schedule points even
    /// with verification off.
    pub fn next_seq(&self) -> u64 {
        self.seq.get()
    }

    /// Record one collective call: advance the schedule counter, push the
    /// fingerprint onto the trace, and return it for the exchange. `None`
    /// when verification is disabled (the collective proceeds untouched —
    /// but the sequence counter still advances, so schedule points stay
    /// addressable by the fault-injection plan).
    pub fn stamp(
        &self,
        kind: CollectiveKind,
        dtype: Dtype,
        param: u32,
        count: u64,
    ) -> Option<Fingerprint> {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        if !self.enabled {
            return None;
        }
        let fp = Fingerprint {
            seq,
            kind,
            dtype,
            param,
            count,
            scope: self.scope,
        };
        let mut trace = self.trace.borrow_mut();
        if trace.len() == TRACE_LEN {
            trace.pop_front();
        }
        trace.push_back(fp);
        Some(fp)
    }

    /// The recent-collectives trace, rendered one fingerprint per line
    /// (oldest first) for inclusion in abort diagnostics.
    pub fn trace_dump(&self) -> String {
        let trace = self.trace.borrow();
        if trace.is_empty() {
            return "    (no collectives recorded on this endpoint)".to_string();
        }
        trace
            .iter()
            .map(|fp| format!("    {fp}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Abort this rank with the full schedule-mismatch diagnostic: both
    /// fingerprints plus the last [`TRACE_LEN`] collectives this endpoint
    /// issued.
    pub fn mismatch_panic(
        &self,
        group_rank: usize,
        group_size: usize,
        own: Fingerprint,
        peer_rank: usize,
        theirs: Option<Fingerprint>,
    ) -> ! {
        let theirs = match theirs {
            Some(fp) => fp.to_string(),
            None => "(undecodable fingerprint frame: protocol mismatch?)".to_string(),
        };
        panic!(
            "FIRAL_COMM_VERIFY: collective schedule mismatch on rank {group_rank}/{group_size} \
             (scope {:#018x}):\n  this rank issued:  {own}\n  rank {peer_rank} issued:  {theirs}\n  \
             last collectives on this rank (oldest first):\n{}",
            self.scope,
            self.trace_dump(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_roundtrip_the_wire_encoding() {
        let fp = Fingerprint {
            seq: 42,
            kind: CollectiveKind::Bcast,
            dtype: Dtype::F64,
            param: 3,
            count: 12345,
            scope: wire::derive_scope(wire::ROOT_SCOPE, 1, 2),
        };
        assert_eq!(Fingerprint::decode(&fp.encode()), Some(fp));
    }

    #[test]
    fn undecodable_kind_lane_is_rejected() {
        let fp = Fingerprint {
            seq: 0,
            kind: CollectiveKind::Barrier,
            dtype: Dtype::None,
            param: 0,
            count: 0,
            scope: wire::ROOT_SCOPE,
        };
        let mut bytes = fp.encode();
        bytes[8] = 0xFF; // clobber the kind lane
        assert_eq!(Fingerprint::decode(&bytes), None);
    }

    #[test]
    fn matches_ignores_count_only_for_allgatherv() {
        let base = Fingerprint {
            seq: 7,
            kind: CollectiveKind::Allgatherv,
            dtype: Dtype::F64,
            param: 0,
            count: 10,
            scope: wire::ROOT_SCOPE,
        };
        let other = Fingerprint { count: 99, ..base };
        assert!(base.matches(&other), "allgatherv counts are per-rank");
        let sum = Fingerprint {
            kind: CollectiveKind::AllreduceSum,
            ..base
        };
        let sum_other = Fingerprint { count: 99, ..sum };
        assert!(!sum.matches(&sum_other), "allreduce counts must agree");
        let skew = Fingerprint { seq: 8, ..base };
        assert!(!base.matches(&skew), "sequence numbers must agree");
    }

    #[test]
    fn stamp_advances_seq_and_bounds_the_trace() {
        let v = Verifier {
            enabled: true,
            scope: wire::ROOT_SCOPE,
            seq: Cell::new(0),
            trace: RefCell::new(VecDeque::new()),
        };
        for i in 0..(TRACE_LEN as u64 + 5) {
            let fp = v
                .stamp(CollectiveKind::Barrier, Dtype::None, 0, 0)
                .expect("enabled verifier must stamp");
            assert_eq!(fp.seq, i);
        }
        assert_eq!(v.trace.borrow().len(), TRACE_LEN);
        // The oldest retained entry is the (len - TRACE_LEN)-th stamp.
        assert_eq!(v.trace.borrow().front().unwrap().seq, 5);
        assert!(v.trace_dump().contains("barrier"));
    }

    #[test]
    fn disabled_verifier_still_counts_schedule_points() {
        let v = Verifier {
            enabled: false,
            scope: wire::ROOT_SCOPE,
            seq: Cell::new(0),
            trace: RefCell::new(VecDeque::new()),
        };
        assert_eq!(v.stamp(CollectiveKind::Barrier, Dtype::None, 0, 0), None);
        // No fingerprint and no trace entry — but the sequence counter must
        // advance so fault injection can address schedule points with the
        // verifier off.
        assert!(v.trace.borrow().is_empty());
        assert_eq!(v.next_seq(), 1);
    }

    #[test]
    fn display_names_the_operation_and_root() {
        let fp = Fingerprint {
            seq: 3,
            kind: CollectiveKind::Bcast,
            dtype: Dtype::F64,
            param: 2,
            count: 8,
            scope: wire::ROOT_SCOPE,
        };
        let s = fp.to_string();
        assert!(s.contains("#3"), "{s}");
        assert!(s.contains("bcast root=2"), "{s}");
        assert!(s.contains("count=8"), "{s}");
    }
}
