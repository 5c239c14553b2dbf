//! Kernel throughput harness: times the hot `firal_linalg` kernels
//! (`gemm_at_b` — the Eq. 13 reduction GEMM —, `gram_weighted_multi` — the
//! Definition-1 preconditioner build — and `fisher_sweep` — the fused
//! Lemma-2 panel matvec RELAX actually runs) at paper-like tall-skinny
//! shapes across kernel-pool sizes **and SIMD dispatch tiers**, and writes
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
//! time. Each row carries the tier, the autotuned blocking plan
//! (`jb`/`pack`/`class_block`) and `lane_multiple` — whether `d` is a whole
//! number of that tier's vectors for that dtype — and the header records
//! the detected CPU features and cache geometry, so a reader can tell
//! exactly which code path produced each number. The shapes deliberately
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
//! thread counts {1, 2, 4}.

use std::fmt::Write as _;
use std::time::Instant;

use firal_bench::report::{arg_value, has_flag};
use firal_bench::workloads::lcg_matrix;
use firal_linalg::autotune::lane_count;
use firal_linalg::simd::{active_tier, available_tiers, cpu_features, Tier};
use firal_linalg::{
    cache_geometry, counters, fisher_sweep_planned, gemm_at_b_tier, gram_weighted_multi_tier,
    plan_for, Matrix, Scalar, SweepInput, SweepWorkspace,
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
    jb: usize,
    pack: bool,
    class_block: usize,
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

fn matrix_bits<T: Scalar>(m: &Matrix<T>) -> u64 {
    m.as_slice()
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(1) ^ v.to_f64().to_bits())
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
    for tier in available_tiers() {
        // Full thread sweep on the active tier; single-thread rows on the
        // others (enough for the trajectory and the bit cross-check).
        let tier_threads: &[usize] = if tier == best { threads_list } else { &[1] };
        let plan = plan_for::<T>(tier, d);
        let lane_multiple = d % lane_count(tier, std::mem::size_of::<T>()) == 0;
        for &threads in tier_threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool build");

            // Check one timed result against the kernel's bit reference and
            // file its row.
            let mut record = |kernel: &'static str,
                              m: usize,
                              reference: &mut Option<u64>,
                              (secs, bits): (f64, u64),
                              flops: usize| {
                if *reference.get_or_insert(bits) != bits {
                    eprintln!(
                        "DETERMINISM VIOLATION: {kernel} {dtype} n={n} d={d} m={m} \
                         tier={tier} t={threads}"
                    );
                    *mismatches += 1;
                }
                rows.push(Row {
                    kernel,
                    dtype,
                    n,
                    d,
                    m,
                    threads,
                    tier: tier.name(),
                    jb: plan.jb,
                    pack: plan.pack,
                    class_block: plan.class_block,
                    lane_multiple,
                    secs,
                    gflops: flops as f64 / secs / 1e9,
                });
            };

            let timed = pool.install(|| bench(reps, || gemm_at_b_tier(tier, &x, &b), matrix_bits));
            let flops = counters::gemm_at_b_flops(n, d, m);
            record("gemm_at_b", m, &mut at_b_ref, timed, flops);

            let timed = pool.install(|| {
                bench(
                    reps,
                    || gram_weighted_multi_tier(tier, &x, &w),
                    |gs| gs.iter().fold(0u64, |acc, g| acc ^ matrix_bits(g)),
                )
            });
            let flops = counters::gram_weighted_multi_flops(GRAM_CLASSES, n, d);
            record(
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
            record("fisher_sweep", m, &mut sweep_ref, timed, flops);
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
             \"threads\": {}, \"tier\": \"{}\", \"jb\": {}, \"pack\": {}, \"class_block\": {}, \
             \"lane_multiple\": {}, \"secs\": {:.6}, \"gflops\": {:.3}}}{comma}",
            r.kernel,
            r.dtype,
            r.n,
            r.d,
            r.m,
            r.threads,
            r.tier,
            r.jb,
            r.pack,
            r.class_block,
            r.lane_multiple,
            r.secs,
            r.gflops
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("failed to write the benchmark JSON");

    println!(
        "kernel                dtype      n     d    m  thr  tier  jb pk  kb      secs    GF/s"
    );
    for r in &rows {
        println!(
            "{:<20}  {:<4} {:>7} {:>4} {:>4} {:>4}  {:<4} {:>3} {:>2} {:>3}  {:>8.4} {:>7.2}",
            r.kernel,
            r.dtype,
            r.n,
            r.d,
            r.m,
            r.threads,
            r.tier,
            r.jb,
            if r.pack { "y" } else { "n" },
            r.class_block,
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
