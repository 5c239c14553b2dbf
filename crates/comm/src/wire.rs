//! The wire format shared by the real transports.
//!
//! Everything a [`crate::Communicator`] puts on a wire
//! is defined here exactly once, so every backend ([`crate::ThreadComm`]'s
//! shared-memory slots, [`crate::SocketComm`]'s TCP frames, and any future
//! process transport) agrees bit-for-bit:
//!
//! * integers are little-endian `u64`;
//! * `f64` buffers travel as a `u64` element-count prefix followed by the
//!   raw little-endian IEEE-754 bytes;
//! * MAXLOC contributions are a [`MaxLoc`] record — the `f64` value and the
//!   `u64` payload in **separate lanes**. The payload is never bit-punned
//!   through a float: copying a `u64` through an `f64` register can
//!   canonicalize NaN bit patterns on some targets (e.g. when a payload
//!   happens to alias a signaling-NaN encoding), silently corrupting the
//!   index it carries;
//! * the MAXLOC reduction itself is [`MaxLoc::reduce_rank_ordered`], the
//!   single definition of the tie/sentinel semantics every backend must
//!   implement;
//! * every collective frame is prefixed by a **scope tag** ([`ROOT_SCOPE`],
//!   [`derive_scope`], [`expect_scope`]): sub-communicators produced by
//!   `Communicator::split` stamp their frames with a scope derived from the
//!   parent's, so a collective issued on one sub-group can never be consumed
//!   by a collective of a different (sub-)group sharing the same mesh links
//!   — a mismatched program order fails loudly instead of silently
//!   desynchronizing the stream.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read, Write};

/// Sanity magic exchanged during the [`crate::SocketComm`] rendezvous so a
/// stray connection (or a rank built from an incompatible protocol
/// revision) fails loudly instead of desynchronizing the mesh.
pub const MAGIC: u64 = 0xF1AA_1C0D_E550_0001;

/// Scope tag of the root (un-split) communicator: the frame prefix every
/// collective on the full group carries. Sub-communicators derive their own
/// tags from this via [`derive_scope`].
pub const ROOT_SCOPE: u64 = 0xF1AA_5C0B_E000_0000;

/// Reserved frame prefix of an **abort frame**: a rank that fails (peer
/// death, deadline, panic) writes this tag — followed by its world rank and
/// a reason string — on every mesh link, so survivors blocked in
/// [`expect_scope`] observe a structured [`AbortMsg`] within one deadline
/// instead of deadlocking. `derive_scope` output colliding with this value
/// is as likely as any other 64-bit collision; [`expect_scope`] treats the
/// tag as reserved unconditionally.
pub const ABORT_TAG: u64 = 0xF1AA_DEAD_AB0A_7000;

/// The payload of an [`ABORT_TAG`] frame: which world rank failed first,
/// and its diagnostic. Carried to callers inside an
/// [`io::ErrorKind::ConnectionAborted`] error (downcast via
/// [`io::Error::get_ref`]), so every existing `io::Result` path propagates
/// it without new plumbing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortMsg {
    /// World rank of the endpoint that originated the abort.
    pub origin: usize,
    /// The originating rank's diagnostic.
    pub reason: String,
}

impl std::fmt::Display for AbortMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "abort frame from rank {}: {}", self.origin, self.reason)
    }
}

impl std::error::Error for AbortMsg {}

/// Write an abort frame (tag, origin rank, reason). Reasons longer than the
/// wire's string cap are truncated at a char boundary rather than rejected —
/// an abort must never fail to encode.
pub fn write_abort(w: &mut impl Write, origin: usize, reason: &str) -> io::Result<()> {
    let mut end = reason.len().min(MAX_WIRE_STR);
    while !reason.is_char_boundary(end) {
        end -= 1;
    }
    write_u64(w, ABORT_TAG)?;
    write_u64(w, origin as u64)?;
    write_str(w, &reason[..end])?;
    w.flush()
}

/// Derive a sub-communicator's scope tag from its parent's scope, the
/// parent's running split counter, and the split `color`.
///
/// Every member of one sub-group computes the identical tag (the inputs are
/// replicated by the split's membership exchange), while different groups —
/// and different split generations — get distinct tags with overwhelming
/// probability (SplitMix64 finalizer over the packed inputs).
pub fn derive_scope(parent: u64, seq: u64, color: u64) -> u64 {
    let mut z = parent
        .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(color.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write a scope tag ahead of a collective frame.
pub fn write_scope(w: &mut impl Write, scope: u64) -> io::Result<()> {
    write_u64(w, scope)
}

/// Read and verify the scope tag ahead of a collective frame. A mismatch
/// means the peer issued a collective on a *different* (sub-)communicator
/// sharing the same link — the cross-talk hazard `Communicator::split`
/// framing exists to catch. An [`ABORT_TAG`] in the scope position instead
/// decodes the peer's abort frame and surfaces it as a
/// [`io::ErrorKind::ConnectionAborted`] error wrapping the [`AbortMsg`].
pub fn expect_scope(r: &mut impl Read, scope: u64) -> io::Result<()> {
    let got = read_u64(r)?;
    if got == ABORT_TAG {
        let origin = read_u64(r)? as usize;
        let reason = read_str(r).unwrap_or_else(|e| format!("(unreadable abort reason: {e})"));
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            AbortMsg { origin, reason },
        ));
    }
    if got != scope {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "collective scope mismatch on the wire: got {got:#018x}, expected \
                 {scope:#018x} (sub-group collectives issued in different orders \
                 on the two ends of this link?)"
            ),
        ));
    }
    Ok(())
}

/// One rank's MAXLOC contribution: a value and the opaque payload that
/// travels with it (for Approx-FIRAL, the global pool index of the
/// candidate point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxLoc {
    /// The quantity being maximized.
    pub value: f64,
    /// Payload attached to the value; all 64 bits are preserved.
    pub payload: u64,
}

impl MaxLoc {
    /// Encoded size on the wire: `value` lane + `payload` lane.
    pub const WIRE_BYTES: usize = 16;

    /// Encode as two little-endian 8-byte lanes.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[..8].copy_from_slice(&self.value.to_bits().to_le_bytes());
        out[8..].copy_from_slice(&self.payload.to_le_bytes());
        out
    }

    /// Decode the two lanes written by [`MaxLoc::encode`].
    pub fn decode(bytes: &[u8; Self::WIRE_BYTES]) -> Self {
        let value = f64::from_bits(u64::from_le_bytes(std::array::from_fn(|i| bytes[i])));
        let payload = u64::from_le_bytes(std::array::from_fn(|i| bytes[8 + i]));
        Self { value, payload }
    }

    /// MPI `MAXLOC` over contributions listed **in rank order**: the result
    /// is seeded from the first (lowest-rank) record and replaced only on a
    /// strictly greater value, so ties keep the lowest rank and the
    /// degenerate all-`-inf` case propagates rank 0's sentinel payload
    /// instead of fabricating one.
    pub fn reduce_rank_ordered(contribs: impl IntoIterator<Item = MaxLoc>) -> MaxLoc {
        let mut it = contribs.into_iter();
        #[allow(
            clippy::expect_used,
            reason = "an empty list is a caller bug: every group has at least one rank"
        )]
        let mut best = it.next().expect("MAXLOC needs at least one contribution");
        for c in it {
            if c.value > best.value {
                best = c;
            }
        }
        best
    }
}

/// Write one little-endian `u64`.
pub fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read one little-endian `u64`.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut bytes = [0u8; 8];
    r.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Ceiling on the element count of a single wire frame (2 GiB of `f64`s).
/// A stream that desyncs mid-frame yields a garbage length; failing with
/// `InvalidData` beats aborting the rank with an OOM.
pub const MAX_WIRE_ELEMS: usize = 1 << 28;

/// Write a length-prefixed `f64` buffer, staging through a small stack
/// chunk (no per-call heap allocation on the hot path).
pub fn write_f64s(w: &mut impl Write, data: &[f64]) -> io::Result<()> {
    write_u64(w, data.len() as u64)?;
    let mut chunk = [0u8; 4096];
    for block in data.chunks(chunk.len() / 8) {
        let mut used = 0;
        for v in block {
            chunk[used..used + 8].copy_from_slice(&v.to_le_bytes());
            used += 8;
        }
        w.write_all(&chunk[..used])?;
    }
    Ok(())
}

/// Read a length-prefixed `f64` buffer into `out`, failing if the sender's
/// length disagrees (the "length mismatch across ranks" contract check).
pub fn read_f64s_into(r: &mut impl Read, out: &mut [f64]) -> io::Result<()> {
    let n = read_u64(r)? as usize;
    if n != out.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "collective length mismatch across ranks: got {n}, expected {}",
                out.len()
            ),
        ));
    }
    read_f64_payload(r, out)
}

/// Read a length-prefixed `f64` buffer of sender-determined length
/// (bounded by [`MAX_WIRE_ELEMS`] so a desynchronized stream fails loudly).
pub fn read_f64s(r: &mut impl Read) -> io::Result<Vec<f64>> {
    let n = read_u64(r)? as usize;
    if n > MAX_WIRE_ELEMS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unreasonable frame length {n} on the wire (stream desync?)"),
        ));
    }
    read_growing(n, |block| read_f64_payload(r, block))
}

/// Bytes a length-prefixed read reserves ahead of the data that has
/// arrived. The prefix is the sender's claim, so the buffer grows with the
/// payload instead: a lying prefix on a short stream allocates at most
/// this much before the read fails.
const READ_CHUNK_BYTES: usize = 8 << 10;

/// Read `n` elements through `fill`, one [`READ_CHUNK_BYTES`] chunk at a
/// time, into a vector that grows as they arrive. A frame within one chunk
/// gets its single exact allocation.
fn read_growing<T: Copy + Default>(
    n: usize,
    mut fill: impl FnMut(&mut [T]) -> io::Result<()>,
) -> io::Result<Vec<T>> {
    let chunk = READ_CHUNK_BYTES / std::mem::size_of::<T>();
    let mut out = Vec::with_capacity(n.min(chunk));
    while out.len() < n {
        let start = out.len();
        out.resize(n.min(start + chunk), T::default());
        fill(&mut out[start..])?;
    }
    Ok(out)
}

fn read_f64_payload(r: &mut impl Read, out: &mut [f64]) -> io::Result<()> {
    // Decode through the same fixed stack chunk as the write path — no
    // frame-sized heap allocation per read.
    let mut chunk = [0u8; 4096];
    for block in out.chunks_mut(chunk.len() / 8) {
        let bytes = &mut chunk[..block.len() * 8];
        r.read_exact(bytes)?;
        for (v, b) in block.iter_mut().zip(bytes.as_chunks::<8>().0) {
            *v = f64::from_le_bytes(*b);
        }
    }
    Ok(())
}

/// Ceiling on the byte length of a raw byte frame ([`write_bytes`]):
/// 1 GiB. Byte frames carry serving-layer payloads (serialized requests,
/// uploaded pools, responses); a desynchronized stream yields a garbage
/// length prefix, and rejecting it beats aborting the process with an OOM.
pub const MAX_WIRE_BYTES: usize = 1 << 30;

/// Write a length-prefixed raw byte buffer. The byte-frame lane is the
/// substrate of the serving layer's point-to-point control plane
/// (schedules, pool uploads, per-request results) — opaque to the
/// collective machinery, never fingerprinted by the schedule verifier.
pub fn write_bytes(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    write_u64(w, data.len() as u64)?;
    w.write_all(data)
}

/// Read a length-prefixed raw byte buffer written by [`write_bytes`],
/// bounded by [`MAX_WIRE_BYTES`] so a desynced stream fails loudly.
pub fn read_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let n = read_u64(r)? as usize;
    if n > MAX_WIRE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unreasonable byte-frame length {n} on the wire (stream desync?)"),
        ));
    }
    read_growing(n, |block| r.read_exact(block))
}

/// Ceiling on the byte length of a wire string (rendezvous addresses,
/// abort reasons). A desynced stream yields a garbage length; rejecting it
/// beats a giant allocation.
pub const MAX_WIRE_STR: usize = 4096;

/// Write a length-prefixed UTF-8 string (rendezvous addresses).
pub fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Read a length-prefixed UTF-8 string.
pub fn read_str(r: &mut impl Read) -> io::Result<String> {
    let n = read_u64(r)? as usize;
    if n > MAX_WIRE_STR {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unreasonable string length on the wire",
        ));
    }
    let mut bytes = vec![0u8; n];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxloc_roundtrips_all_payload_bits() {
        for payload in [0u64, 1, u64::MAX, u64::MAX - 12345, 0x7FF8_0000_0000_0001] {
            let m = MaxLoc {
                value: -3.25,
                payload,
            };
            assert_eq!(MaxLoc::decode(&m.encode()), m);
        }
    }

    #[test]
    fn maxloc_roundtrips_nan_aliasing_payloads() {
        // Payloads that alias NaN encodings in the value lane must survive
        // untouched because they travel in the integer lane.
        let nan_bits = f64::NAN.to_bits();
        let m = MaxLoc {
            value: 1.0,
            payload: nan_bits,
        };
        assert_eq!(MaxLoc::decode(&m.encode()).payload, nan_bits);
    }

    #[test]
    fn reduce_keeps_lowest_rank_on_ties() {
        let r = MaxLoc::reduce_rank_ordered((0..4).map(|rank| MaxLoc {
            value: 7.0,
            payload: rank,
        }));
        assert_eq!(r.payload, 0);
    }

    #[test]
    fn reduce_propagates_rank0_sentinel_when_all_neg_inf() {
        let r = MaxLoc::reduce_rank_ordered([
            MaxLoc {
                value: f64::NEG_INFINITY,
                payload: u64::MAX,
            },
            MaxLoc {
                value: f64::NEG_INFINITY,
                payload: 17,
            },
        ]);
        assert_eq!(r.value, f64::NEG_INFINITY);
        assert_eq!(r.payload, u64::MAX);
    }

    #[test]
    fn reduce_picks_strict_maximum() {
        let r = MaxLoc::reduce_rank_ordered([
            MaxLoc {
                value: 1.0,
                payload: 10,
            },
            MaxLoc {
                value: 5.0,
                payload: 11,
            },
            MaxLoc {
                value: 2.0,
                payload: 12,
            },
        ]);
        assert_eq!((r.value, r.payload), (5.0, 11));
    }

    #[test]
    fn f64_frames_roundtrip() {
        let data = vec![1.5, -2.0, f64::INFINITY, 0.0];
        let mut buf = Vec::new();
        write_f64s(&mut buf, &data).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_f64s(&mut cursor).unwrap(), data);

        let mut cursor = &buf[..];
        let mut out = vec![0.0; 4];
        read_f64s_into(&mut cursor, &mut out).unwrap();
        assert_eq!(out, data);

        let mut cursor = &buf[..];
        let mut short = vec![0.0; 3];
        assert!(read_f64s_into(&mut cursor, &mut short).is_err());
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, (MAX_WIRE_ELEMS as u64) + 1).unwrap();
        let mut cursor = &buf[..];
        assert!(read_f64s(&mut cursor).is_err());
    }

    #[test]
    fn scope_tags_roundtrip_and_mismatch_fails() {
        let scope = derive_scope(ROOT_SCOPE, 0, 3);
        let mut buf = Vec::new();
        write_scope(&mut buf, scope).unwrap();
        let mut cursor = &buf[..];
        assert!(expect_scope(&mut cursor, scope).is_ok());
        let mut cursor = &buf[..];
        let err = expect_scope(&mut cursor, ROOT_SCOPE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn derived_scopes_are_distinct_per_color_seq_and_parent() {
        // Same inputs ⇒ same tag (all members of a group must agree)...
        assert_eq!(
            derive_scope(ROOT_SCOPE, 1, 2),
            derive_scope(ROOT_SCOPE, 1, 2)
        );
        // ...while varying any input separates the groups.
        let tags = [
            ROOT_SCOPE,
            derive_scope(ROOT_SCOPE, 0, 0),
            derive_scope(ROOT_SCOPE, 0, 1),
            derive_scope(ROOT_SCOPE, 1, 0),
            derive_scope(derive_scope(ROOT_SCOPE, 0, 0), 0, 0),
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b, "scope collision between derivations");
            }
        }
    }

    #[test]
    fn abort_frames_preempt_the_scope_check() {
        let mut buf = Vec::new();
        write_abort(&mut buf, 2, "rank 2 panicked: boom").unwrap();
        let mut cursor = &buf[..];
        let err = expect_scope(&mut cursor, ROOT_SCOPE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        let abort = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<AbortMsg>())
            .expect("abort frame must decode to AbortMsg");
        assert_eq!(abort.origin, 2);
        assert!(abort.reason.contains("boom"), "{abort:?}");
    }

    #[test]
    fn abort_reasons_are_truncated_not_rejected() {
        let long = "x".repeat(MAX_WIRE_STR + 100);
        let mut buf = Vec::new();
        write_abort(&mut buf, 0, &long).unwrap();
        let mut cursor = &buf[..];
        let err = expect_scope(&mut cursor, ROOT_SCOPE).unwrap_err();
        let abort = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<AbortMsg>())
            .expect("truncated abort must still decode");
        assert_eq!(abort.reason.len(), MAX_WIRE_STR);
    }

    #[test]
    fn byte_frames_roundtrip_including_empty() {
        for data in [&b""[..], b"\x00\x01\xFF", b"serve request"] {
            let mut buf = Vec::new();
            write_bytes(&mut buf, data).unwrap();
            let mut cursor = &buf[..];
            assert_eq!(read_bytes(&mut cursor).unwrap(), data);
        }
    }

    #[test]
    fn oversized_byte_frame_length_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, (MAX_WIRE_BYTES as u64) + 1).unwrap();
        let mut cursor = &buf[..];
        let err = read_bytes(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_byte_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 100).unwrap();
        buf.extend_from_slice(&[7u8; 10]);
        let mut cursor = &buf[..];
        assert!(read_bytes(&mut cursor).is_err());
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "127.0.0.1:12345").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_str(&mut cursor).unwrap(), "127.0.0.1:12345");
    }
}
