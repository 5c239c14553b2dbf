//! Length-prefixed wire reads size their buffers by the bytes that arrive,
//! not by the sender's claim: every lying length prefix on a short stream
//! returns `Err` and allocates no block above `2 × input + 8 KiB`, and
//! every honest frame (one chunk, chunk boundaries, many chunks) reads back
//! exactly. Its own test binary because the tracking allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use firal_comm::wire::{
    read_bytes, read_f64s, write_bytes, write_f64s, MAX_WIRE_BYTES, MAX_WIRE_ELEMS,
};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

/// Records the largest single block this thread asks for.
struct Tracking;

// SAFETY: every method forwards to `System` with the arguments it was
// given; the record is a plain thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `GlobalAlloc::dealloc` contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's `GlobalAlloc::realloc` contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Fixed headroom: the reads' up-front chunk and an error string.
const SLACK: usize = 8 << 10;

/// Run `read` over `input`, failing if any single allocation it made
/// exceeded the bound.
fn bounded<T>(what: &str, input: &[u8], read: impl FnOnce(&mut &[u8]) -> T) -> T {
    let mut cursor = input;
    LARGEST.with(|m| m.set(0));
    let out = read(&mut cursor);
    let largest = LARGEST.with(|m| m.get());
    assert!(
        largest <= 2 * input.len() + SLACK,
        "{what}: a {}-byte input allocated a {largest}-byte block",
        input.len()
    );
    out
}

/// Honest frames of `n` elements with a payload of `elem` bytes each, for
/// `n` around the 8 KiB read chunk and well past it.
fn lengths(elem: usize) -> Vec<usize> {
    let chunk = SLACK / elem;
    vec![
        0,
        1,
        7,
        chunk - 1,
        chunk,
        chunk + 1,
        2 * chunk,
        5 * chunk + 3,
    ]
}

/// Every lying claim about a frame of `n` elements whose payload is the
/// rest of `frame`: the true prefix over each truncated payload, and
/// inflated counts up to the wire ceiling over the full payload.
fn lies(frame: &[u8], n: usize, elem: usize, ceiling: usize) -> Vec<Vec<u8>> {
    let payload = &frame[8..];
    let step = (payload.len() / 64).max(1);
    let mut out: Vec<Vec<u8>> = (0..payload.len())
        .step_by(step)
        .chain([payload.len().saturating_sub(1)])
        .filter(|&cut| cut < payload.len())
        .map(|cut| [&frame[..8], &payload[..cut]].concat())
        .collect();
    let chunk = SLACK / elem;
    for claim in [n + 1, 2 * n + 1, n + chunk, 64 * chunk, ceiling] {
        out.push([&(claim as u64).to_le_bytes()[..], payload].concat());
    }
    out
}

#[test]
fn lying_f64_prefixes_fail_within_the_allocation_bound() {
    for n in lengths(8) {
        let data: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
        let mut frame = Vec::new();
        write_f64s(&mut frame, &data).unwrap();
        let back = bounded("honest f64 frame", &frame, |r| read_f64s(r)).unwrap();
        assert_eq!(back, data, "n = {n}");
        for input in lies(&frame, n, 8, MAX_WIRE_ELEMS) {
            let got = bounded("lying f64 frame", &input, |r| read_f64s(r));
            let err = got.expect_err("a short stream must not decode");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "n = {n}");
        }
    }
}

#[test]
fn lying_byte_prefixes_fail_within_the_allocation_bound() {
    for n in lengths(1) {
        let data: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
        let mut frame = Vec::new();
        write_bytes(&mut frame, &data).unwrap();
        let back = bounded("honest byte frame", &frame, |r| read_bytes(r)).unwrap();
        assert_eq!(back, data, "n = {n}");
        for input in lies(&frame, n, 1, MAX_WIRE_BYTES) {
            let got = bounded("lying byte frame", &input, |r| read_bytes(r));
            let err = got.expect_err("a short stream must not decode");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "n = {n}");
        }
    }
}
