//! A selection stays inside Table II's storage bound.
//!
//! Approx-FIRAL's per-rank storage is `O(n(d + c) + c·d²)`: nothing may
//! scale with `n × (c−1)·s`, the probe products `X·V` of the Eq. 13 GEMMs.
//! Measured with a high-water-mark global allocator around one
//! `Executor::relax` and one `Executor::select_eta` at `p = 1`, with fixed
//! work (no stopping rule, a fixed number of CG iterations), so two runs
//! differ in their shape only:
//!
//! * doubling the probe count must add less than half of one
//!   `n × (c−1)·s` f32 buffer to either phase's high-water mark;
//! * doubling the pool may add at most [`POOL_MULTIPLE`] times the pool's
//!   own bytes, `n·(d + c)·4`, to either phase's high-water mark.
//!
//! The bound is on bytes live at once, so it holds at any kernel-pool
//! size; CI also runs this binary with `FIRAL_NUM_THREADS=4`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use firal_comm::SelfComm;
use firal_core::{
    Executor, MirrorDescentConfig, RelaxConfig, RoundConfig, SelectionProblem, ShardedProblem,
};
use firal_linalg::Matrix;

/// Bytes currently allocated, and the most there have been since the last
/// [`high_water`] reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct HighWater;

impl HighWater {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the bookkeeping is two atomics and allocates nothing.
unsafe impl GlobalAlloc for HighWater {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` contract, forwarded.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::dealloc` contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `GlobalAlloc::realloc` contract, forwarded.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: HighWater = HighWater;

/// Run `f` and return what it allocated at its high-water mark above the
/// bytes live when it started.
fn high_water<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

const D: usize = 8;
const CLASSES: usize = 6;
const BUDGET: usize = 5;

/// Doubling the pool may add at most this many times the pool's own
/// `n·(d + c)·4` bytes to a phase's high-water mark.
const POOL_MULTIPLE: usize = 2;

/// A seeded f32 pool of `n` points (and 12 labeled ones): features in
/// `[-1, 1)`, probability rows holding `c − 1` entries of a softmax.
fn problem(n: usize) -> SelectionProblem<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut panels = |rows: usize| {
        let x = Matrix::from_fn(rows, D, |_, _| (2.0 * next() - 1.0) as f32);
        let mut h = Matrix::zeros(rows, CLASSES - 1);
        for i in 0..rows {
            let raw: Vec<f64> = (0..CLASSES).map(|_| (2.0 * next()).exp()).collect();
            let total: f64 = raw.iter().sum();
            for k in 0..CLASSES - 1 {
                h[(i, k)] = (raw[k] / total) as f32;
            }
        }
        (x, h)
    };
    let (pool_x, pool_h) = panels(n);
    let (labeled_x, labeled_h) = panels(12);
    SelectionProblem::new(pool_x, pool_h, labeled_x, labeled_h, CLASSES)
}

/// High-water marks of RELAX and of the η sweep after it, above the bytes
/// live before each.
fn phase_peaks(n: usize, probes: usize) -> [usize; 2] {
    let problem = problem(n);
    let shard = ShardedProblem::replicate(&problem);
    let comm = SelfComm::new();
    let exec = Executor::new(&comm, &shard);
    let config = RelaxConfig {
        md: MirrorDescentConfig {
            max_iters: 3,
            obj_rel_tol: 0.0,
        },
        probes,
        cg_tol: 0.0,
        cg_max_iter: 6,
        seed: 7,
    };
    let (relax, relax_peak) = high_water(|| exec.relax(BUDGET, &config));
    assert_eq!(relax.telemetry.objective_history.len(), 3);
    assert_eq!(relax.total_cg_iters, 3 * 2 * probes * 6);
    let grid = RoundConfig::<f32>::default().eta_grid;
    let (round, eta_peak) = high_water(|| exec.select_eta(&relax.z_local, BUDGET, &grid));
    assert_eq!(round.selected.len(), BUDGET);
    [relax_peak, eta_peak]
}

#[test]
fn relax_and_eta_sweep_stay_inside_table_ii_storage() {
    let (n, s) = (1200usize, 10usize);
    let base = phase_peaks(n, s);
    let probes_doubled = phase_peaks(n, 2 * s);
    let pool_doubled = phase_peaks(2 * n, s);

    let products = n * (CLASSES - 1) * s * 4;
    let pool = n * (D + CLASSES) * 4;
    for (phase, ((&b, &p), &q)) in ["relax", "select_eta"]
        .iter()
        .zip(base.iter().zip(&probes_doubled).zip(&pool_doubled))
    {
        eprintln!(
            "{phase}: high-water {b} B at (n, s) = ({n}, {s}); \
             {p} B at s = {}; {q} B at n = {}",
            2 * s,
            2 * n
        );
        assert!(
            p.saturating_sub(b) < products / 2,
            "{phase}: doubling the probes added {} B, an n × (c−1)·s buffer is {products} B",
            p.saturating_sub(b)
        );
        assert!(
            q.saturating_sub(b) <= POOL_MULTIPLE * pool,
            "{phase}: doubling the pool added {} B, more than {POOL_MULTIPLE} × the pool's \
             {pool} B",
            q.saturating_sub(b)
        );
    }
}
