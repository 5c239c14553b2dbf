//! Offline stand-in for `rayon`, backed by a **real** std-only thread pool.
//!
//! Exposes rayon's combinator surface (the subset the firal workspace uses)
//! over an eager, index-ordered execution model:
//!
//! * adapters (`par_chunks`, `par_chunks_mut`, `par_iter`, `into_par_iter`,
//!   `zip`) materialize a `Vec` of work items — chunk boundaries are fixed
//!   by the *caller* (from the problem shape), never by the worker count;
//! * `map`/`for_each` dispatch the items onto a shared-counter chunk queue
//!   drained by the pool's workers plus the calling thread (dynamic load
//!   balancing with deterministic item identity);
//! * `reduce`/`collect`/`sum` combine the per-item results **in item-index
//!   order** on the calling thread.
//!
//! # Determinism contract
//!
//! Because chunk boundaries are caller-fixed and partial results are
//! combined in chunk-index order, every combinator chain produces results
//! that are **bitwise independent of the thread count** (1 thread, `k`
//! threads, and the sequential fallback all agree). The SPMD consistency
//! suite (`tests/parallel_consistency.rs`) pins this end-to-end.
//!
//! # Pool model
//!
//! One process-global pool (sized by `FIRAL_NUM_THREADS`, else
//! `std::thread::available_parallelism`) plus optional caller-owned pools
//! ([`ThreadPoolBuilder::build`]) scoped to a thread via
//! [`ThreadPool::install`] — the hook `firal_core::exec::Executor` uses to
//! give each SPMD rank its own kernel sub-pool (ranks × threads). Nested
//! parallel calls from inside a pool job run inline (no deadlock, same
//! bits). Workers park on a condvar when idle; a job is an erased
//! `&dyn Fn()` drained cooperatively, with panics forwarded to the caller.

#![allow(
    clippy::disallowed_methods,
    reason = "the shim is the pool: sizing it and skipping dispatch on one worker read its thread count"
)]

use std::cell::{Cell, RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------------
// Pool core
// ---------------------------------------------------------------------------

/// Type of the lifetime-erased job reference workers execute. The erasure is
/// sound because [`PoolCore::run`] never returns before every worker that
/// started the job has finished it.
type Job = &'static (dyn Fn() + Sync);

struct JobSlot {
    job: Option<Job>,
    /// Bumped per submitted job so a worker never re-enters a job it already
    /// completed (the job stays in the slot until its caller clears it).
    epoch: u64,
    /// Cumulative count of worker job entries / exits; `started == finished`
    /// means every borrowed job reference has been dropped.
    started: u64,
    finished: u64,
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    /// Workers park here waiting for a job (or shutdown).
    work_cv: Condvar,
    /// Callers park here waiting for drain / slot availability.
    done_cv: Condvar,
}

struct PoolCore {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    /// Set while this thread is executing a pool job (worker or
    /// participating caller): parallel entry points observe it and fall back
    /// to inline sequential execution, which is deadlock-free and — by the
    /// determinism contract — bit-identical.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
    /// Pool stack installed via [`ThreadPool::install`].
    static CURRENT_POOL: RefCell<Vec<Arc<PoolCore>>> = const { RefCell::new(Vec::new()) };
}

fn with_in_job<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL_JOB.with(|flag| {
        let prev = flag.replace(true);
        let r = f();
        flag.set(prev);
        r
    })
}

fn worker_loop(shared: Arc<PoolShared>) {
    let mut last_epoch = 0u64;
    loop {
        let job: Job = {
            let mut g = shared.slot.lock().unwrap();
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != last_epoch {
                    if let Some(job) = g.job {
                        last_epoch = g.epoch;
                        g.started += 1;
                        break job;
                    }
                    // Job already drained and cleared; don't wait for it.
                    last_epoch = g.epoch;
                }
                g = shared.work_cv.wait(g).unwrap();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| with_in_job(job)));
        let mut g = shared.slot.lock().unwrap();
        if result.is_err() {
            g.panicked = true;
        }
        g.finished += 1;
        drop(g);
        shared.done_cv.notify_all();
    }
}

impl PoolCore {
    fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot {
                job: None,
                epoch: 0,
                started: 0,
                finished: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        // `threads` counts the caller: spawn `threads - 1` workers.
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("firal-rayon-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            threads: threads.max(1),
            handles: Mutex::new(handles),
        }
    }

    /// Execute `f` cooperatively on all workers plus the calling thread;
    /// returns once every thread that entered `f` has left it. `f` is
    /// expected to drain a shared work queue and return when it is empty.
    fn run(&self, f: &(dyn Fn() + Sync)) {
        if self.threads <= 1 || IN_POOL_JOB.with(Cell::get) {
            with_in_job(f);
            return;
        }
        // SAFETY: the job reference is only reachable through the slot, the
        // slot is cleared below before waiting for `started == finished`,
        // and we do not return (or unwind) past that wait — so no worker
        // holds the reference once `run` exits and the erased lifetime never
        // outlives the real one.
        let job: Job =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(f) };
        {
            let mut g = self.shared.slot.lock().unwrap();
            // The slot is released (`job = None`) only after its caller has
            // observed completion AND consumed the panic flag, so waiting on
            // `job` alone is enough — and guarantees the counters are
            // balanced and the flag reset when we take over.
            while g.job.is_some() {
                g = self.shared.done_cv.wait(g).unwrap();
            }
            g.job = Some(job);
            g.epoch = g.epoch.wrapping_add(1);
            g.panicked = false;
            drop(g);
            self.shared.work_cv.notify_all();
        }
        let caller_result = catch_unwind(AssertUnwindSafe(|| with_in_job(f)));
        let worker_panicked = {
            let mut g = self.shared.slot.lock().unwrap();
            while g.started != g.finished {
                g = self.shared.done_cv.wait(g).unwrap();
            }
            // Read the flag and clear the slot in the same critical section
            // in which completion was observed: a queued caller can only
            // submit (and reset `panicked`) after `job` goes back to None,
            // so this job's panic can never be swallowed by the next one.
            let panicked = g.panicked;
            g.panicked = false;
            g.job = None;
            panicked
        };
        // Wake callers queued on the slot.
        self.shared.done_cv.notify_all();
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a firal-rayon pool worker panicked");
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.slot.lock().unwrap().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Public pool API
// ---------------------------------------------------------------------------

/// A handle to a worker pool. Cheap to clone (shared core); dropping the
/// last handle shuts the workers down.
#[derive(Clone)]
pub struct ThreadPool {
    core: Arc<PoolCore>,
}

impl ThreadPool {
    /// Worker-thread count (including the participating caller).
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Rayon-compatible alias for [`ThreadPool::threads`].
    pub fn current_num_threads(&self) -> usize {
        self.core.threads
    }

    /// Run `f` with this pool as the calling thread's current pool: every
    /// parallel combinator reached from `f` (directly or through nested
    /// calls on this thread) dispatches here instead of the global pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        CURRENT_POOL.with(|stack| stack.borrow_mut().push(Arc::clone(&self.core)));
        // Pop on unwind too, so a panicking scope doesn't leak the pool into
        // unrelated later work on this thread.
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                CURRENT_POOL.with(|stack| {
                    stack.borrow_mut().pop();
                });
            }
        }
        let _guard = PopGuard;
        f()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.core.threads)
            .finish()
    }
}

static GLOBAL_POOL: Mutex<Option<ThreadPool>> = Mutex::new(None);

fn default_threads() -> usize {
    std::env::var("FIRAL_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

fn global_pool() -> ThreadPool {
    let mut guard = GLOBAL_POOL.lock().unwrap();
    guard
        .get_or_insert_with(|| ThreadPool {
            core: Arc::new(PoolCore::new(default_threads())),
        })
        .clone()
}

fn current_pool() -> ThreadPool {
    let installed = CURRENT_POOL.with(|stack| stack.borrow().last().cloned());
    match installed {
        Some(core) => ThreadPool { core },
        None => global_pool(),
    }
}

/// Thread count of the calling thread's current pool (installed pool if
/// inside [`ThreadPool::install`], else the global pool — sized by
/// `FIRAL_NUM_THREADS` or the host parallelism).
pub fn current_num_threads() -> usize {
    current_pool().threads()
}

/// Pool configuration builder (rayon's API shape).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requested worker count; `0` keeps the default
    /// (`FIRAL_NUM_THREADS` env override, else host parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Build a caller-owned pool (use with [`ThreadPool::install`]).
    pub fn build(self) -> Result<ThreadPool, BuildError> {
        let threads = if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        };
        Ok(ThreadPool {
            core: Arc::new(PoolCore::new(threads)),
        })
    }

    /// Install the configuration as the process-global pool. Errors if the
    /// global pool was already initialized (rayon semantics).
    pub fn build_global(self) -> Result<(), BuildError> {
        // Hold the lock across the check-and-build so racing initializers
        // can't each spawn a worker set only to throw one away.
        let mut guard = GLOBAL_POOL.lock().unwrap();
        if guard.is_some() {
            return Err(BuildError);
        }
        *guard = Some(self.build()?);
        Ok(())
    }
}

/// Error type for [`ThreadPoolBuilder`] (produced only on double global
/// initialization).
#[derive(Debug)]
pub struct BuildError;

// ---------------------------------------------------------------------------
// Parallel dispatch
// ---------------------------------------------------------------------------

/// `&[UnsafeCell<_>]` wrapper shareable across the pool: every cell index is
/// claimed by exactly one thread (atomic ticket), so disjoint access is
/// guaranteed by construction.
struct SharedCells<'a, T>(&'a [UnsafeCell<T>]);

// SAFETY: the wrapper only hands out raw pointers, and `parallel_map`
// dereferences cell `i` on the one thread whose atomic ticket claimed `i`,
// so no cell is ever accessed from two threads. Moving a `T` across
// threads that way needs `T: Send`, which the bound requires.
unsafe impl<T: Send> Sync for SharedCells<'_, T> {}

impl<T> SharedCells<'_, T> {
    /// Raw pointer to cell `i` (method receiver keeps closure captures on
    /// the `Sync` wrapper, not the inner non-`Sync` slice).
    fn cell(&self, i: usize) -> *mut T {
        self.0[i].get()
    }
}

/// Apply `f` to every item, dispatching across the current pool; results are
/// returned in item order. Falls back to an inline sequential map when the
/// pool has one thread, the item count is trivial, or the caller is itself a
/// pool job — all of which produce identical bits.
fn parallel_map<T, B, F>(items: Vec<T>, f: F) -> Vec<B>
where
    T: Send,
    B: Send,
    F: Fn(T) -> B + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let pool = current_pool();
    if n == 1 || pool.threads() <= 1 || IN_POOL_JOB.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }

    let inputs: Vec<UnsafeCell<Option<T>>> = items
        .into_iter()
        .map(|t| UnsafeCell::new(Some(t)))
        .collect();
    let outputs: Vec<UnsafeCell<MaybeUninit<B>>> = (0..n)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let next = AtomicUsize::new(0);
    {
        let inputs = SharedCells(&inputs);
        let outputs = SharedCells(&outputs);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: index `i` was claimed exactly once by the ticket
            // counter, so this thread has exclusive access to both cells.
            let item = unsafe { (*inputs.cell(i)).take().expect("work item claimed twice") };
            let out = f(item);
            // SAFETY: the same ticket gives this thread exclusive access to
            // output cell `i`, which nothing has written yet.
            unsafe { (*outputs.cell(i)).write(out) };
        };
        pool.core.run(&drain);
    }
    outputs
        .into_iter()
        // SAFETY: `run` only returns after all items were drained and every
        // worker exited the job (panics re-raised there), so each output
        // was written once; the mutex handoff makes the writes visible here.
        .map(|cell| unsafe { cell.into_inner().assume_init() })
        .collect()
}

// ---------------------------------------------------------------------------
// Rayon-shaped combinators
// ---------------------------------------------------------------------------

/// Parallel iterator over a materialized work-item list. Item identity and
/// order are fixed at construction; see the module docs for the determinism
/// contract.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T> ParIter<T> {
    /// Pair with another parallel iterator, element-wise (truncates to the
    /// shorter side, like `Iterator::zip`).
    pub fn zip<U>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Transform each element on the pool. Results keep item order.
    pub fn map<B, F>(self, f: F) -> ParIter<B>
    where
        T: Send,
        B: Send,
        F: Fn(T) -> B + Sync,
    {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Consume each element on the pool.
    pub fn for_each<F>(self, f: F)
    where
        T: Send,
        F: Fn(T) + Sync,
    {
        parallel_map(self.items, f);
    }

    /// Fold with an identity constructor (rayon's `reduce` signature),
    /// combining **in item-index order** — thread-count independent.
    pub fn reduce<F>(self, identity: impl Fn() -> T, op: F) -> T
    where
        F: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Collect into any `FromIterator` container (e.g. `Vec`,
    /// `Result<Vec>`), preserving item order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sum the elements in item-index order.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

/// `par_chunks` on slices.
pub trait ParallelSlice<T> {
    /// Chunk iterator with caller-fixed boundaries.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
    /// Per-element iterator (`rayon::iter::IntoParallelRefIterator`).
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(size).collect(),
        }
    }
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T> {
    /// Mutable chunk iterator with caller-fixed boundaries.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

/// By-value conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item;
    /// Convert.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

pub mod prelude {
    //! Rayon-style prelude.
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn chunked_reduce_matches_serial_sum() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let total = v
            .par_chunks(64)
            .map(|c| c.iter().sum::<f64>())
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(total, 499_500.0);
    }

    #[test]
    fn zip_for_each_mutates() {
        let mut y = [0i64; 10];
        let x: Vec<i64> = (0..10).collect();
        y.par_chunks_mut(3)
            .zip(x.par_chunks(3))
            .for_each(|(yc, xc)| {
                for (a, b) in yc.iter_mut().zip(xc) {
                    *a = 2 * b;
                }
            });
        assert_eq!(y[9], 18);
    }

    #[test]
    fn range_collects() {
        let v: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn collect_into_result_yields_first_error_in_order() {
        let r: Result<Vec<usize>, &str> = vec![1usize, 2, 3]
            .into_par_iter()
            .map(|i| if i == 2 { Err("boom") } else { Ok(i) })
            .collect();
        assert_eq!(r, Err("boom"));
    }

    #[test]
    fn results_are_bitwise_identical_across_pool_sizes() {
        // The determinism contract: same chunking, same combination order,
        // any thread count — identical bits.
        let v: Vec<f64> = (0..100_000)
            .map(|i| ((i as f64) * 0.37).sin() * 1e-3)
            .collect();
        let run = || {
            v.par_chunks(1024)
                .map(|c| c.iter().sum::<f64>())
                .reduce(|| 0.0, |a, b| a + b)
                .to_bits()
        };
        let reference = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(run);
        for threads in [2usize, 3, 4, 7] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(run), reference, "threads = {threads}");
        }
    }

    #[test]
    fn install_scopes_the_pool_to_the_calling_thread() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        // Outside install the global/default pool is in effect again.
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn nested_parallelism_runs_inline_without_deadlock() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<usize> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    // Nested dispatch from inside a pool job must not
                    // deadlock; it runs inline with identical results.
                    (0..4usize)
                        .into_par_iter()
                        .map(|j| i * 10 + j)
                        .sum::<usize>()
                })
                .collect()
        });
        assert_eq!(out[0], 6);
        assert_eq!(out[7], 286);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 33 {
                        panic!("kaboom");
                    }
                });
            })
        }));
        assert!(result.is_err());
        // Pool must stay usable after a panicked job.
        let total: usize = pool.install(|| (0..10usize).into_par_iter().map(|i| i).sum());
        assert_eq!(total, 45);
    }

    #[test]
    fn concurrent_callers_share_one_pool_safely() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let sums: Vec<u64> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|k| {
                    let pool = pool.clone();
                    scope.spawn(move || {
                        pool.install(|| {
                            (0..1000u64)
                                .map(|i| i + k)
                                .collect::<Vec<_>>()
                                .into_par_iter()
                                .map(|x| x * 2)
                                .sum::<u64>()
                        })
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (k, s) in sums.iter().enumerate() {
            assert_eq!(*s, 2 * (499_500 + 1000 * k as u64));
        }
    }

    #[test]
    fn builder_zero_threads_means_default() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.threads() >= 1);
    }
}
