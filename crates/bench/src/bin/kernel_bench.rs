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
//! scalar → SSE2 → AVX2 (or NEON) trajectory without tripling the sweep
//! time. Each row carries the tier and `lane_multiple` — whether `d` is a
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
//! Usage: cargo run --release -p firal-bench --bin kernel_bench
//!   [--quick] [--out PATH] [--reps N]
//!
//! `--quick` shrinks to two CI smoke shapes (one lane multiple, one not);
//! default shapes are n ∈ {10⁴, 10⁵} × d ∈ {64, 128} at m = 40 plus
//! n = 10⁴ × d ∈ {20, 50, 100, 383} at m = (c-1)·s ∈ {90, 490}, with
//! thread counts {1, 2, 4}. The `quad_sweep` rows run at the per-rank pool
//! shapes of the repo benchmark's ROUND workloads, (n, d) ∈ {(600, 50),
//! (3000, 20), (8000, 16)}, and quote GF/s on the *dense* `4nd²` count for
//! both paths, so the pair reads as a speed-up.

use std::fmt::Write as _;
use std::time::Instant;

use firal_bench::report::{arg_value, has_flag};
use firal_bench::workloads::lcg_matrix;
use firal_linalg::autotune::lane_count;
use firal_linalg::simd::{active_tier, available_tiers, cpu_features, Tier};
use firal_linalg::{
    cache_geometry, counters, fisher_sweep_planned, gemm_a_bt, gemm_at_b_tier, gemm_into,
    gram_weighted_multi_planned, invert_lower, plan_for, Cholesky, Matrix, QuadSweep, Scalar,
    SweepInput, SweepWorkspace, QUAD_BLOCK_ROWS,
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

/// Shortest time a cell is measured for: a millisecond kernel timed three
/// times catches whatever the host was doing in those three milliseconds.
const MIN_CELL_SECS: f64 = 0.05;

/// Time `f` over at least `reps` calls and [`MIN_CELL_SECS`] (after one
/// warm-up), returning the best per-call seconds and the result checksum
/// bits from the last call.
fn bench<R>(reps: usize, f: impl Fn() -> R, checksum: impl Fn(&R) -> u64) -> (f64, u64) {
    let warm = f();
    let mut bits = checksum(&warm);
    let mut best = f64::INFINITY;
    let started = Instant::now();
    let mut calls = 0;
    while calls < reps || started.elapsed().as_secs_f64() < MIN_CELL_SECS {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        bits = checksum(&out);
        calls += 1;
    }
    (best, bits)
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

#[allow(clippy::too_many_arguments)]
fn run_shape<T: Scalar>(
    dtype: &'static str,
    (n, d, m): (usize, usize, usize),
    threads_list: &[usize],
    reps: usize,
    rows: &mut Vec<Row>,
    mismatches: &mut usize,
) {
    let x = lcg_matrix::<T>(n, d, 1);
    let b = lcg_matrix::<T>(n, m, 2);
    let w = {
        let raw = lcg_matrix::<T>(n, GRAM_CLASSES, 3);
        Matrix::from_fn(n, GRAM_CLASSES, |i, j| {
            raw[(i, j)].abs() + T::from_f64(0.05)
        })
    };

    // The fused sweep applies Σᵢ zᵢ·G(hᵢ)⊗xᵢxᵢᵀ to a stacked d·c × s panel.
    let blocks = m / PROBES;
    assert_eq!(
        blocks * PROBES,
        m,
        "m must be whole blocks of {PROBES} probes"
    );
    let h = Matrix::from_fn(n, blocks, |i, k| {
        T::from_f64(0.9 * (1 + (i * 7 + k * 3) % 11) as f64 / 12.0 / blocks as f64)
    });
    let z: Vec<T> = (0..n)
        .map(|i| T::from_f64((1 + i % 5) as f64 / n as f64))
        .collect();
    let v = lcg_matrix::<T>(d * blocks, PROBES, 4);

    // One bit reference per kernel, shared across the tier AND thread axes:
    // every (tier, threads) cell must reproduce it exactly.
    let mut at_b_ref: Option<u64> = None;
    let mut gram_ref: Option<u64> = None;
    let mut sweep_ref: Option<u64> = None;
    let best = active_tier();
    // This host's blocking plan: `class_block` for the Gram kernel,
    // `sweep_bytes` for the fused sweep; `gemm_at_b` reads neither.
    let plan = plan_for::<T>(d);
    for tier in available_tiers() {
        // Full thread sweep on the active tier; single-thread rows on the
        // others (enough for the trajectory and the bit cross-check).
        let tier_threads: &[usize] = if tier == best { threads_list } else { &[1] };
        let lane_multiple = d % lane_count(tier, std::mem::size_of::<T>()) == 0;
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
                lane_multiple,
            };
            let mut record = |cell: Cell, kernel, m, reference: &mut Option<u64>, timed, flops| {
                *mismatches += cell.record(rows, kernel, m, reference, timed, flops);
            };

            let timed = pool.install(|| bench(reps, || gemm_at_b_tier(tier, &x, &b), matrix_bits));
            let flops = counters::gemm_at_b_flops(n, d, m);
            record(cell, "gemm_at_b", m, &mut at_b_ref, timed, flops);

            let timed = pool.install(|| {
                bench(
                    reps,
                    || gram_weighted_multi_planned(tier, plan, &x, &w),
                    |gs| gs.iter().fold(0u64, |acc, g| acc ^ matrix_bits(g)),
                )
            });
            let flops = counters::gram_weighted_multi_flops(GRAM_CLASSES, n, d);
            let gram_cell = Cell {
                class_block: Some(plan.class_block),
                ..cell
            };
            record(
                gram_cell,
                "gram_weighted_multi",
                GRAM_CLASSES,
                &mut gram_ref,
                timed,
                flops,
            );

            let ws = std::cell::RefCell::new(SweepWorkspace::new());
            let timed = pool.install(|| {
                bench(
                    reps,
                    || {
                        let mut out = Matrix::zeros(d * blocks, PROBES);
                        fisher_sweep_planned(
                            tier,
                            plan,
                            &x,
                            &h,
                            Some(&z),
                            SweepInput::Panel(v.as_slice()),
                            PROBES,
                            &mut ws.borrow_mut(),
                            out.as_mut_slice(),
                        );
                        out
                    },
                    matrix_bits,
                )
            });
            let flops = counters::gemm_flops(n, m, d) + counters::gemm_at_b_flops(n, d, m);
            record(cell, "fisher_sweep", m, &mut sweep_ref, timed, flops);
        }
    }
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
    let x = lcg_matrix::<T>(n, d, 7);
    let g = {
        let raw = lcg_matrix::<T>(n, 1, 8);
        Matrix::from_fn(n, 1, |i, _| raw[(i, 0)].abs() * T::from_f64(0.25))
    };
    let eta = T::from_f64(8.0);
    let dense_flops = 2 * counters::gemm_flops(n, d, d);

    let mut reference: Option<u64> = None;
    let best = active_tier();
    for tier in available_tiers() {
        let tier_threads: &[usize] = if tier == best { threads_list } else { &[1] };
        let cell = |threads| Cell {
            dtype,
            n,
            d,
            threads,
            tier,
            class_block: None,
            lane_multiple: d % lane_count(tier, std::mem::size_of::<T>()) == 0,
        };
        let mut sweep = QuadSweep::<T>::on_tier(tier, QUAD_BLOCK_ROWS, d);
        for i in 0..d {
            sweep.m_row_mut(i).copy_from_slice(&m_blk.row(i)[..=i]);
        }
        sweep.factor(&l_inv).expect("seeded SPD");
        let (r_inv_t, n_inv) = sweep.triangles();
        let sweep = std::cell::RefCell::new(sweep);
        for &threads in tier_threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool build");
            let timed = pool.install(|| {
                bench(
                    reps,
                    || {
                        let mut scores = vec![T::ZERO; n];
                        sweep.borrow_mut().accumulate(&x, &g, 0, eta, &mut scores);
                        scores
                    },
                    |s| slice_bits(s),
                )
            });
            *mismatches +=
                cell(threads).record(rows, "quad_sweep", d, &mut reference, timed, dense_flops);
            if tier != best {
                continue;
            }
            let buffers = std::cell::RefCell::new((vec![T::ZERO; n * d], vec![T::ZERO; n * d]));
            let timed = pool.install(|| {
                bench(
                    reps,
                    || {
                        let (z, y) = &mut *buffers.borrow_mut();
                        gemm_into(x.as_slice(), &r_inv_t, z);
                        gemm_into(z, &n_inv, y);
                        let norm = |v: &[T]| v.iter().fold(T::ZERO, |q, &e| q + e * e);
                        (z.chunks_exact(d).zip(y.chunks_exact(d)).enumerate())
                            .map(|(i, (zi, yi))| {
                                let gi = g[(i, 0)];
                                gi * norm(yi) / (T::ONE + eta * gi * norm(zi))
                            })
                            .collect::<Vec<T>>()
                    },
                    |s| slice_bits(s),
                )
            });
            *mismatches += cell(threads).record(
                rows,
                "quad_two_gemm_into",
                d,
                &mut reference,
                timed,
                dense_flops,
            );
        }
    }
}

fn main() {
    let quick = has_flag("--quick");
    let out_path: String = arg_value("--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let reps: usize = arg_value("--reps").unwrap_or(if quick { 1 } else { 3 });
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
    // (n, d): the per-rank pools of `round_bound`, `relax_bound` and
    // `stream_churn`.
    let quad_shapes: &[(usize, usize)] = if quick {
        &[(600, 50)]
    } else {
        &[(600, 50), (3_000, 20), (8_000, 16)]
    };
    let threads_list = [1usize, 2, 4];
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let geo = cache_geometry();
    let tiers: Vec<&'static str> = available_tiers().iter().map(|t| Tier::name(*t)).collect();

    let mut rows = Vec::new();
    let mut mismatches = 0usize;
    for &shape in &shapes {
        eprintln!("[kernel_bench] (n, d, m) = {shape:?} ...");
        run_shape::<f32>(
            "f32",
            shape,
            &threads_list,
            reps,
            &mut rows,
            &mut mismatches,
        );
        run_shape::<f64>(
            "f64",
            shape,
            &threads_list,
            reps,
            &mut rows,
            &mut mismatches,
        );
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

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"lane_multiple\": \"per row: d is a whole number of the row's tier vectors \
         (off 1 lane; sse2/neon 4 f32 or 2 f64; avx2 8 f32 or 4 f64). d = 64 and 128 \
         are lane multiples on every tier; d = 20, 50, 100 and 383 (Table V) are not \
         on avx2 f32\","
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
