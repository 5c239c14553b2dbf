//! Kernel throughput harness: times the hot `firal_linalg` kernels
//! (`gemm_at_b` — the Eq. 13 reduction GEMM —, `gram_weighted_multi` — the
//! Definition-1 preconditioner build —, `fisher_sweep` — the fused
//! Lemma-2 panel matvec RELAX actually runs — and `quad_sweep` — the fused
//! triangular Eq. 17 sweep ROUND runs, beside the two dense `gemm_into`
//! products it replaced) at paper-like tall-skinny shapes across
//! kernel-pool sizes **and SIMD dispatch tiers**, and writes
//! `BENCH_kernels.json` so future PRs have a throughput trajectory to
//! compare against.
//!
//! Besides measuring, the harness **verifies the determinism contract**
//! along both axes: for every (kernel, shape, dtype) the output bits must
//! be identical at every thread count AND on every available SIMD tier
//! (scalar included — the canonical-summation-tree contract of
//! `firal_linalg::simd`); any mismatch is a non-zero exit.
//!
//! The host's best tier gets the full thread sweep; every other available
//! tier contributes single-thread rows so the JSON records the
//! scalar → SSE2 → AVX2 → AVX-512 (or NEON) trajectory without
//! multiplying the sweep time. Each row carries the tier and `lane_multiple` — whether `d` is a
//! whole number of that tier's vectors for that dtype —, the
//! `gram_weighted_multi` rows the `class_block` of this host's plan, and
//! the header records the detected CPU features and cache geometry, so a
//! reader can tell exactly which code path produced each number. The shapes deliberately
//! mix lane multiples (`d ∈ {64, 128}`) with the paper's Table V
//! dimensions (`d ∈ {20, 50, 100, 383}`, none a multiple of 8): a kernel
//! whose vector axis is `d` is only as good as its remainder handling, and
//! a sweep over lane multiples alone cannot see that.
//!
//! GF/s is derived from the pinned flop formulas in
//! `firal_linalg::counters`, so numbers stay comparable across PRs even if
//! kernel internals change.
//!
//! The cells that a row compares against — every (tier, threads) cell of
//! one kernel at one shape, or the two paths of a pair — are timed
//! round-robin, two back-to-back calls of each per round with the second
//! timed, and each keeps its best timed call:
//! this host's speed drifts by 10–20 % over minutes, so cells timed one
//! after another can read the opposite of the kernels' order.
//!
//! Usage: cargo run --release -p firal-bench --bin kernel_bench
//!   [--quick] [--out PATH] [--reps N]
//!
//! `--quick` shrinks to two CI smoke shapes (one lane multiple, one not);
//! default shapes are n ∈ {10⁴, 10⁵} × d ∈ {64, 128} at m = 40 plus
//! n = 10⁴ × d ∈ {20, 50, 100, 383} at m = (c-1)·s ∈ {90, 490}, with
//! thread counts {1, 2, 4}; `fisher_sweep` alone also runs at n = 10⁴,
//! d = 20, m = 180, the `[W | V]` panel RELAX's Line 7 sweeps at once.
//! The `quad_sweep` rows run at the per-rank pool
//! shapes of the repo benchmark's ROUND workloads, (n, d) ∈ {(600, 50),
//! (3000, 20), (8000, 16)}, and quote GF/s on the *dense* `4nd²` count for
//! both paths, so the pair reads as a speed-up. The `eigvalsh_*` and
//! `round_factor_*` rows time ROUND's per-pick block kernels — Line 9's
//! eigensolves and the Eq. 17 `M_k` factor chain — over `n = c − 1`
//! blocks of order `d`, per block (`m = 1`) and in lane groups
//! (`m = Scalar::BLOCK_LANES`), at (c − 1, d) = (49, 50) and (9, 20) in
//! f32 and (2, 16) in f64; `--quick` keeps (9, 20). At the same shapes the
//! `block_jacobi_*` rows time one application of RELAX's block-Jacobi
//! preconditioner `B(Σ_z)⁻¹` to an `ê × s` panel of `s = 10` probes: per
//! block (`Cholesky::solve_panel_in_place` on each block's rows) and in
//! lane groups (`CholeskyBlocks`), on the pinned `2d²s` per block.

use std::fmt::Write as _;
use std::time::Instant;

use firal_bench::args::{has_flag, opt};
use firal_bench::workloads::lcg_matrix;
use firal_linalg::autotune::lane_count;
use firal_linalg::simd::{active_tier, available_tiers, cpu_features, Tier};
use firal_linalg::{
    cache_geometry, counters, eigvalsh_blocks, fisher_sweep_planned, gemm_a_bt, gemm_at_b_tier,
    gemm_into, gram_weighted_multi_planned, invert_lower, plan_for, Cholesky, CholeskyBlocks,
    Matrix, QuadSweep, Scalar, SweepWorkspace, QUAD_BLOCK_ROWS,
};

/// Probes per panel: the `(c-1)·s` column counts below are `(c-1)` blocks
/// of this many probes (the paper's `s = 10`).
const PROBES: usize = 10;
/// Weight-panel classes for `gram_weighted_multi`.
const GRAM_CLASSES: usize = 8;

struct Row {
    kernel: &'static str,
    dtype: &'static str,
    n: usize,
    d: usize,
    m: usize,
    threads: usize,
    tier: &'static str,
    class_block: Option<usize>,
    lane_multiple: bool,
    secs: f64,
    gflops: f64,
}

/// Shortest time a cell is measured for, on average over the cells of one
/// round-robin: a millisecond kernel timed three times catches whatever
/// the host was doing in those three milliseconds.
const MIN_CELL_SECS: f64 = 0.05;

/// One timed call: its seconds and its result's checksum.
type TimedCall<'a> = Box<dyn Fn() -> (f64, u64) + 'a>;

/// One timed call of `f` (the checksum is taken off the clock).
fn time_call<R>(f: impl FnOnce() -> R, checksum: impl Fn(&R) -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    (secs, checksum(&out))
}

fn slice_bits<T: Scalar>(v: &[T]) -> u64 {
    v.iter()
        .fold(0u64, |acc, s| acc.rotate_left(1) ^ s.to_f64().to_bits())
}

fn matrix_bits<T: Scalar>(m: &Matrix<T>) -> u64 {
    slice_bits(m.as_slice())
}

/// One (shape, dtype, tier, threads) cell of the sweep.
#[derive(Clone, Copy)]
struct Cell {
    dtype: &'static str,
    n: usize,
    d: usize,
    threads: usize,
    tier: Tier,
    /// The plan's class blocking, for the one kernel that reads it.
    class_block: Option<usize>,
    lane_multiple: bool,
}

impl Cell {
    /// Check one timed result against the kernel's bit reference and file
    /// its row; returns the number of mismatches (0 or 1).
    fn record(
        &self,
        rows: &mut Vec<Row>,
        kernel: &'static str,
        m: usize,
        reference: &mut Option<u64>,
        (secs, bits): (f64, u64),
        flops: usize,
    ) -> usize {
        let Cell {
            dtype,
            n,
            d,
            threads,
            tier,
            ..
        } = *self;
        let mismatch = *reference.get_or_insert(bits) != bits;
        if mismatch {
            eprintln!(
                "DETERMINISM VIOLATION: {kernel} {dtype} n={n} d={d} m={m} tier={tier} t={threads}"
            );
        }
        rows.push(Row {
            kernel,
            dtype,
            n,
            d,
            m,
            threads,
            tier: tier.name(),
            class_block: self.class_block,
            lane_multiple: self.lane_multiple,
            secs,
            gflops: flops as f64 / secs / 1e9,
        });
        mismatch as usize
    }
}

/// One entry of a round-robin: the row it files (cell, kernel, width `m`)
/// and the call it times.
struct Entry<'a> {
    cell: Cell,
    kernel: &'static str,
    m: usize,
    call: TimedCall<'a>,
}

/// Time `entries` round-robin: rounds of two back-to-back calls per entry,
/// the second timed, until there have been at least `reps` rounds and
/// [`MIN_CELL_SECS`] per entry. The untimed call refills the caches the
/// other entries evicted, so each timed call starts warm, as in a loop of
/// calls. Files each entry's best call as a row, every checksum (of its
/// last call) checked against one bit reference, and returns the number of
/// mismatches.
fn round_robin(entries: &[Entry<'_>], reps: usize, flops: usize, rows: &mut Vec<Row>) -> usize {
    let mut best = vec![(f64::INFINITY, 0); entries.len()];
    let budget = MIN_CELL_SECS * entries.len() as f64;
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < reps || started.elapsed().as_secs_f64() < budget {
        for (slot, e) in best.iter_mut().zip(entries) {
            (e.call)();
            let (secs, bits) = (e.call)();
            *slot = (slot.0.min(secs), bits);
        }
        rounds += 1;
    }
    let mut reference = None;
    (entries.iter().zip(best))
        .map(|(e, timed)| {
            e.cell
                .record(rows, e.kernel, e.m, &mut reference, timed, flops)
        })
        .sum()
}

/// The (tier, threads) cells of one shape, each with its pool: the full
/// thread sweep on the active tier, one thread on the others (enough for
/// the trajectory and the bit cross-check).
fn tier_cells<T: Scalar>(
    dtype: &'static str,
    n: usize,
    d: usize,
    threads_list: &[usize],
) -> Vec<(Cell, rayon::ThreadPool)> {
    let best = active_tier();
    let mut cells = Vec::new();
    for tier in available_tiers() {
        let tier_threads: &[usize] = if tier == best { threads_list } else { &[1] };
        for &threads in tier_threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool build");
            let cell = Cell {
                dtype,
                n,
                d,
                threads,
                tier,
                class_block: None,
                lane_multiple: d.is_multiple_of(lane_count(tier, std::mem::size_of::<T>())),
            };
            cells.push((cell, pool));
        }
    }
    cells
}

/// `gemm_at_b`, `gram_weighted_multi` and `fisher_sweep` at one shape
/// (`dense = false`: `fisher_sweep` only); the sweep's `m` columns are
/// `m / probes` class blocks of `probes` columns each.
#[allow(clippy::too_many_arguments)]
fn run_shape<T: Scalar>(
    dtype: &'static str,
    (n, d, m): (usize, usize, usize),
    probes: usize,
    dense: bool,
    threads_list: &[usize],
    reps: usize,
    rows: &mut Vec<Row>,
    mismatches: &mut usize,
) {
    let x = &lcg_matrix::<T>(n, d, 1);
    let b = &lcg_matrix::<T>(n, m, 2);
    let w = &{
        let raw = lcg_matrix::<T>(n, GRAM_CLASSES, 3);
        Matrix::from_fn(n, GRAM_CLASSES, |i, j| {
            raw[(i, j)].abs() + T::from_f64(0.05)
        })
    };

    // The fused sweep applies Σᵢ zᵢ·G(hᵢ)⊗xᵢxᵢᵀ to a stacked d·c × s panel.
    let blocks = m / probes;
    assert_eq!(
        blocks * probes,
        m,
        "m must be whole blocks of {probes} probes"
    );
    let h = &Matrix::from_fn(n, blocks, |i, k| {
        T::from_f64(0.9 * (1 + (i * 7 + k * 3) % 11) as f64 / 12.0 / blocks as f64)
    });
    let z = &(0..n)
        .map(|i| T::from_f64((1 + i % 5) as f64 / n as f64))
        .collect::<Vec<T>>();
    let v = &lcg_matrix::<T>(d * blocks, probes, 4);

    // This host's blocking plan: `class_block` for the Gram kernel,
    // `sweep_bytes` for the fused sweep; `gemm_at_b` reads neither.
    let plan = plan_for::<T>(d);
    let cells = tier_cells::<T>(dtype, n, d, threads_list);
    // Each kernel has one bit reference, shared across the tier AND thread
    // axes: every (tier, threads) cell must reproduce it exactly.
    if dense {
        let at_b: Vec<Entry> = (cells.iter())
            .map(|(cell, pool)| Entry {
                cell: *cell,
                kernel: "gemm_at_b",
                m,
                call: Box::new(move || {
                    pool.install(|| time_call(|| gemm_at_b_tier(cell.tier, x, b), matrix_bits))
                }),
            })
            .collect();
        *mismatches += round_robin(&at_b, reps, counters::gemm_at_b_flops(n, d, m), rows);

        let gram: Vec<Entry> = (cells.iter())
            .map(|(cell, pool)| Entry {
                cell: Cell {
                    class_block: Some(plan.class_block),
                    ..*cell
                },
                kernel: "gram_weighted_multi",
                m: GRAM_CLASSES,
                call: Box::new(move || {
                    pool.install(|| {
                        time_call(
                            || gram_weighted_multi_planned(cell.tier, plan, x, w),
                            |gs| gs.iter().fold(0u64, |acc, g| acc ^ matrix_bits(g)),
                        )
                    })
                }),
            })
            .collect();
        let flops = counters::gram_weighted_multi_flops(GRAM_CLASSES, n, d);
        *mismatches += round_robin(&gram, reps, flops, rows);
    }

    let sweep: Vec<Entry> = (cells.iter())
        .map(|(cell, pool)| {
            let ws = std::cell::RefCell::new(SweepWorkspace::new());
            let sweep = move || {
                let mut out = Matrix::zeros(d * blocks, probes);
                let y = out.as_mut_slice();
                let ws = &mut ws.borrow_mut();
                fisher_sweep_planned(cell.tier, plan, x, h, Some(z), v.as_slice(), probes, ws, y);
                out
            };
            Entry {
                cell: *cell,
                kernel: "fisher_sweep",
                m,
                call: Box::new(move || pool.install(|| time_call(&sweep, matrix_bits))),
            }
        })
        .collect();
    let flops = counters::gemm_flops(n, m, d) + counters::gemm_at_b_flops(n, d, m);
    *mismatches += round_robin(&sweep, reps, flops, rows);
}

/// The Eq. 17 sweep at one per-rank pool shape: `quad_sweep` on every
/// (tier, threads) cell and, on the active tier, the path it replaced —
/// two dense `gemm_into` products on the zero-filled triangles into two
/// `n × d` buffers, then the row sums. Both must produce the same bits
/// everywhere, and both are quoted on the dense flop count.
fn run_quad_shape<T: Scalar>(
    dtype: &'static str,
    (n, d): (usize, usize),
    threads_list: &[usize],
    reps: usize,
    rows: &mut Vec<Row>,
    mismatches: &mut usize,
) {
    let spd = |seed| {
        let a = lcg_matrix::<T>(d, d, seed);
        let mut m = gemm_a_bt(&a, &a);
        m.add_diag(T::from_usize(d));
        m
    };
    let sigma = Cholesky::new(&spd(5)).expect("seeded SPD");
    let mut l_inv = Matrix::zeros(d, d);
    invert_lower(sigma.l().as_slice(), d, l_inv.as_mut_slice(), d, d);
    let m_blk = spd(6);
    let x = &lcg_matrix::<T>(n, d, 7);
    // The sweep reads the pool transposed, formed once per ROUND call.
    let xt = &x.transpose();
    let g = &{
        let raw = lcg_matrix::<T>(n, 1, 8);
        Matrix::from_fn(n, 1, |i, _| raw[(i, 0)].abs() * T::from_f64(0.25))
    };
    let eta = T::from_f64(8.0);
    let loaded = |tier| {
        let mut sweep = QuadSweep::<T>::on_tier(tier, QUAD_BLOCK_ROWS, d);
        sweep
            .factor_group(std::slice::from_ref(&l_inv), |_, i, row| {
                row.copy_from_slice(&m_blk.row(i)[..=i]);
            })
            .expect("seeded SPD");
        sweep
    };
    // The loaded block is tier-independent.
    let (r_inv_t, n_inv) = &loaded(Tier::Scalar).triangles(0);

    let cells = tier_cells::<T>(dtype, n, d, threads_list);
    let mut entries = Vec::new();
    for (cell, pool) in &cells {
        let sweep = std::cell::RefCell::new(loaded(cell.tier));
        let quad = move || {
            let mut scores = vec![T::ZERO; n];
            sweep.borrow_mut().accumulate(xt, g, 0, eta, &mut scores);
            scores
        };
        entries.push(Entry {
            cell: *cell,
            kernel: "quad_sweep",
            m: d,
            call: Box::new(move || pool.install(|| time_call(&quad, |s| slice_bits(s)))),
        });
        if cell.tier != active_tier() {
            continue;
        }
        let buffers = std::cell::RefCell::new((vec![T::ZERO; n * d], vec![T::ZERO; n * d]));
        let two_gemm = move || {
            let (z, y) = &mut *buffers.borrow_mut();
            gemm_into(x.as_slice(), r_inv_t, z);
            gemm_into(z, n_inv, y);
            let norm = |v: &[T]| v.iter().fold(T::ZERO, |q, &e| q + e * e);
            (z.chunks_exact(d).zip(y.chunks_exact(d)).enumerate())
                .map(|(i, (zi, yi))| {
                    let gi = g[(i, 0)];
                    gi * norm(yi) / (T::ONE + eta * gi * norm(zi))
                })
                .collect::<Vec<T>>()
        };
        entries.push(Entry {
            cell: *cell,
            kernel: "quad_two_gemm_into",
            m: d,
            call: Box::new(move || pool.install(|| time_call(&two_gemm, |s| slice_bits(s)))),
        });
    }
    *mismatches += round_robin(&entries, reps, 2 * counters::gemm_flops(n, d, d), rows);
}

/// ROUND's per-pick block kernels at one `(c−1, d)`: Line 9's
/// eigensolves and the Eq. 17 `M_k` factor chain, each timed per block
/// (a group of one, the scalar path) and in lane groups of
/// `Scalar::BLOCK_LANES`; and RELAX's block-Jacobi apply on `PROBES`
/// columns, per block and in lane groups. Each pair is timed round-robin
/// and must produce the same bits; GF/s is on the pinned counts, `4d³`
/// per eigensolve, `d³` per factor chain and `2d²s` per block solve.
fn run_block_lanes<T: Scalar>(
    dtype: &'static str,
    (blocks, d): (usize, usize),
    reps: usize,
    rows: &mut Vec<Row>,
    mismatches: &mut usize,
) {
    let spd = |seed| {
        let a = lcg_matrix::<T>(d, d, seed);
        let mut m = gemm_a_bt(&a, &a);
        m.add_diag(T::from_usize(d));
        m
    };
    let ms = &(0..blocks)
        .map(|k| spd(100 + k as u64))
        .collect::<Vec<Matrix<T>>>();
    let l_invs = &(0..blocks)
        .map(|k| {
            let l = Cholesky::new(&spd(300 + k as u64)).expect("seeded SPD");
            let mut l_inv = Matrix::zeros(d, d);
            invert_lower(l.l().as_slice(), d, l_inv.as_mut_slice(), d, d);
            l_inv
        })
        .collect::<Vec<Matrix<T>>>();
    let lanes = T::BLOCK_LANES;
    let cell = Cell {
        dtype,
        n: blocks,
        d,
        threads: 1,
        tier: active_tier(),
        class_block: None,
        lane_multiple: false,
    };
    // One block kernel per block (`m = 1`) and in lane groups.
    fn pair<'a>(
        cell: Cell,
        kernels: [&'static str; 2],
        lanes: usize,
        timed: impl Fn(usize) -> TimedCall<'a>,
    ) -> Vec<Entry<'a>> {
        (kernels.into_iter().zip([1, lanes]))
            .map(|(kernel, width)| Entry {
                cell,
                kernel,
                m: width,
                call: timed(width),
            })
            .collect()
    }

    let eig = pair(
        cell,
        ["eigvalsh_per_block", "eigvalsh_blocks"],
        lanes,
        |width| {
            Box::new(move || {
                time_call(
                    || {
                        ms.chunks(width)
                            .flat_map(|g| eigvalsh_blocks(g).expect("SPD spectra"))
                            .collect::<Vec<T>>()
                    },
                    |v| slice_bits(v),
                )
            })
        },
    );
    *mismatches += round_robin(&eig, reps, blocks * 4 * d * d * d, rows);

    let factor = pair(
        cell,
        ["round_factor_per_block", "round_factor_blocks"],
        lanes,
        |width| {
            let sweep = std::cell::RefCell::new(QuadSweep::<T>::new(d));
            Box::new(move || {
                let mut sweep = sweep.borrow_mut();
                time_call(
                    || {
                        let mut bits = 0u64;
                        for (mg, lg) in ms.chunks(width).zip(l_invs.chunks(width)) {
                            sweep
                                .factor_group(lg, |lane, i, row| {
                                    row.copy_from_slice(&mg[lane].row(i)[..=i]);
                                })
                                .expect("seeded SPD");
                            for lane in 0..mg.len() {
                                let (r_inv_t, n_inv) = sweep.triangles(lane);
                                bits = bits.rotate_left(3)
                                    ^ matrix_bits(&r_inv_t)
                                    ^ matrix_bits(&n_inv);
                            }
                        }
                        bits
                    },
                    |&b| b,
                )
            })
        },
    );
    *mismatches += round_robin(&factor, reps, blocks * d * d * d, rows);

    let rhs = &lcg_matrix::<T>(blocks * d, PROBES, 400);
    let per_block = &ms
        .iter()
        .map(|m| Cholesky::new(m).expect("SPD"))
        .collect::<Vec<Cholesky<T>>>();
    let jacobi = pair(
        cell,
        ["block_jacobi_per_block", "block_jacobi_lanes"],
        lanes,
        |width| {
            let grouped = std::cell::RefCell::new(CholeskyBlocks::new(ms, T::ZERO).expect("SPD"));
            let panel = std::cell::RefCell::new(rhs.clone());
            Box::new(move || {
                let mut z = panel.borrow_mut();
                let solve = || {
                    z.as_mut_slice().copy_from_slice(rhs.as_slice());
                    if width == 1 {
                        let rows = z.as_mut_slice().chunks_exact_mut(d * PROBES);
                        for (ch, block) in per_block.iter().zip(rows) {
                            ch.solve_panel_in_place(block, PROBES);
                        }
                    } else {
                        grouped
                            .borrow_mut()
                            .solve_panel_in_place(z.as_mut_slice(), PROBES);
                    }
                };
                let (secs, _) = time_call(solve, |()| 0);
                (secs, matrix_bits(&z))
            })
        },
    );
    *mismatches += round_robin(&jacobi, reps, blocks * 2 * d * d * PROBES, rows);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let out_path: String = opt(&args, "--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let reps: usize = opt(&args, "--reps").unwrap_or(if quick { 1 } else { 3 });
    // (n, d, m): pool size, point dimension, probe-panel columns (c-1)·s.
    let shapes: Vec<(usize, usize, usize)> = if quick {
        vec![(2_000, 32, 40), (2_000, 20, 90)]
    } else {
        vec![
            (10_000, 64, 40),
            (10_000, 128, 40),
            (100_000, 64, 40),
            (100_000, 128, 40),
            // Table V: CIFAR-10, ImageNet-50, Caltech-101 and ImageNet-1k
            // dimensions; c·s of CIFAR-10 (90) and ImageNet-50 (490). d = 50
            // at both widths: the `AᵀB` partials of a 490-wide output no
            // longer fit L1, which is a width effect, not a remainder one.
            (10_000, 20, 90),
            (10_000, 50, 90),
            (10_000, 50, 490),
            (10_000, 100, 90),
            (10_000, 383, 90),
        ]
    };
    // (n, d, m) for `fisher_sweep` alone, at `2·PROBES` columns per class
    // block: CIFAR-10's `[W | V]`.
    let wide_sweeps: &[(usize, usize, usize)] = if quick { &[] } else { &[(10_000, 20, 180)] };
    // (n, d): the per-rank pools of `round_bound`, `relax_bound` and
    // `stream_churn`.
    let quad_shapes: &[(usize, usize)] = if quick {
        &[(600, 50)]
    } else {
        &[(600, 50), (3_000, 20), (8_000, 16)]
    };
    // (c−1, d, dtype): `round_bound`'s blocks, CIFAR-10's, and
    // `stream_churn`'s f64 pair.
    let lane_shapes: &[(usize, usize, &str)] = if quick {
        &[(9, 20, "f32")]
    } else {
        &[(49, 50, "f32"), (9, 20, "f32"), (2, 16, "f64")]
    };
    let threads_list = [1usize, 2, 4];
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let geo = cache_geometry();
    let tiers: Vec<&'static str> = available_tiers().iter().map(|t| Tier::name(*t)).collect();

    let mut rows = Vec::new();
    let mut mismatches = 0usize;
    let dense_shapes = shapes.iter().map(|&shape| (shape, PROBES, true));
    let sweep_shapes = wide_sweeps.iter().map(|&shape| (shape, 2 * PROBES, false));
    for (shape, probes, dense) in dense_shapes.chain(sweep_shapes) {
        eprintln!("[kernel_bench] (n, d, m) = {shape:?} ...");
        let (rows, mm) = (&mut rows, &mut mismatches);
        run_shape::<f32>("f32", shape, probes, dense, &threads_list, reps, rows, mm);
        run_shape::<f64>("f64", shape, probes, dense, &threads_list, reps, rows, mm);
    }

    for &shape in quad_shapes {
        eprintln!("[kernel_bench] quad (n, d) = {shape:?} ...");
        run_quad_shape::<f32>(
            "f32",
            shape,
            &threads_list,
            reps,
            &mut rows,
            &mut mismatches,
        );
        run_quad_shape::<f64>(
            "f64",
            shape,
            &threads_list,
            reps,
            &mut rows,
            &mut mismatches,
        );
    }

    for &(blocks, d, dtype) in lane_shapes {
        eprintln!("[kernel_bench] block lanes (c-1, d) = ({blocks}, {d}) {dtype} ...");
        let (rows, mm) = (&mut rows, &mut mismatches);
        match dtype {
            "f32" => run_block_lanes::<f32>("f32", (blocks, d), reps, rows, mm),
            _ => run_block_lanes::<f64>("f64", (blocks, d), reps, rows, mm),
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"lane_multiple\": \"per row: d is a whole number of the row's tier vectors \
         (off 1 lane; sse2/neon 4 f32 or 2 f64; avx2 8 f32 or 4 f64; avx512 16 f32 or \
         8 f64). d = 64 and 128 are lane multiples on every tier; d = 20, 50, 100 and \
         383 (Table V) are not on avx2 or avx512 f32\","
    );
    let _ = writeln!(json, "  \"cpu_features\": \"{}\",", cpu_features());
    let _ = writeln!(json, "  \"simd_tier\": \"{}\",", active_tier().name());
    let _ = writeln!(
        json,
        "  \"available_tiers\": [{}],",
        tiers
            .iter()
            .map(|t| format!("\"{t}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "  \"cache\": {{\"l1d\": {}, \"l2\": {}, \"source\": \"{}\"}},",
        geo.l1d, geo.l2, geo.source
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"dtype\": \"{}\", \"n\": {}, \"d\": {}, \"m\": {}, \
             \"threads\": {}, \"tier\": \"{}\", \"class_block\": {}, \"lane_multiple\": {}, \"secs\": {:.6}, \"gflops\": {:.3}}}{comma}",
            r.kernel,
            r.dtype,
            r.n,
            r.d,
            r.m,
            r.threads,
            r.tier,
            r.class_block
                .map_or("null".to_string(), |kb| kb.to_string()),
            r.lane_multiple,
            r.secs,
            r.gflops
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("failed to write the benchmark JSON");

    println!("kernel                dtype      n     d    m  thr  tier   kb      secs    GF/s");
    for r in &rows {
        println!(
            "{:<20}  {:<4} {:>7} {:>4} {:>4} {:>4}  {:<4} {:>4}  {:>8.4} {:>7.2}",
            r.kernel,
            r.dtype,
            r.n,
            r.d,
            r.m,
            r.threads,
            r.tier,
            r.class_block.map_or("-".to_string(), |kb| kb.to_string()),
            r.secs,
            r.gflops
        );
    }
    eprintln!("[kernel_bench] wrote {out_path} ({} rows)", rows.len());
    if host_cpus < *threads_list.iter().max().unwrap() {
        eprintln!(
            "[kernel_bench] note: host has {host_cpus} CPU(s); thread counts beyond that \
             timeshare one core and cannot show speedup"
        );
    }
    if mismatches > 0 {
        eprintln!("[kernel_bench] {mismatches} determinism violation(s)");
        std::process::exit(1);
    }
}
