//! Layer probes: each times one public function of one layer, alone and
//! single-threaded, at the shape of the workload that asked. They run only
//! in the traced pass, one `probe` span per layer.

use std::hint::black_box;
use std::time::Instant;

use firal_comm::{launch, socket_launch, CommScalar, Communicator, ReduceOp, SelfComm};
use firal_core::hessian::{BlockJacobi, PoolHessian, SigmaZ};
use firal_core::{dispatch_select, SelectRequest, SelectionProblem, ShardedProblem};
use firal_linalg::counters::{gemm_at_b_flops, gram_weighted_multi_flops};
use firal_linalg::{eigvalsh, gemm_at_b, gram_weighted_multi, Cholesky, Matrix, Scalar};
use firal_serve::proto::{self, PoolMutation};
use firal_serve::{plan_round, RankDemand};
use firal_solvers::{cg_solve_panel, rademacher_panel, solve_nu, CgConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Recorder;
use crate::workloads::Outcome;

/// Mean seconds per call of `f`, called for about `budget_s` seconds (at
/// least three times, after one untimed call).
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || started.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(calls)
}

fn random_matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.gen::<f64>() - 0.5))
}

/// `d × d` SPD blocks shaped like the ROUND state: `XᵀX/n + I`.
fn spd_blocks<T: Scalar>(count: usize, d: usize, rng: &mut StdRng) -> Vec<Matrix<T>> {
    (0..count)
        .map(|_| {
            let x = random_matrix::<T>(2 * d, d, rng);
            let mut g = gemm_at_b(&x, &x);
            g.scale_inplace(T::from_f64(1.0 / (2 * d) as f64));
            g.add_diag(T::ONE);
            g
        })
        .collect()
}

/// Run every probe at `problem`'s shape and store the results in `out`.
pub fn run_all<T: CommScalar>(
    rec: &mut Recorder,
    out: &mut Outcome,
    problem: &SelectionProblem<T>,
    budget_s: f64,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    rec.span("probe", 0, |rec| {
        rec.span("probe.linalg", 0, |_| {
            linalg(out, problem, budget_s, &mut rng)
        });
        rec.span("probe.solvers", 0, |_| {
            solvers(out, problem, budget_s, &mut rng)
        });
        rec.span("probe.comm", 0, |_| {
            let socket = socket_launch(2, |c| collectives(c, budget_s)).swap_remove(0);
            let thread = launch(2, |c| collectives(c, budget_s)).swap_remove(0);
            for (names, values) in [(SOCKET_PROBES, socket), (THREAD_PROBES, thread)] {
                for (name, value) in names.into_iter().zip(values) {
                    out.set(name, value);
                }
            }
        });
        rec.span("probe.core", 0, |_| {
            let shard_s = time_per_call(budget_s, || {
                black_box(ShardedProblem::shard(problem, 0, 2));
            });
            out.set("core.shard_ms", shard_s * 1e3);
            let comm = SelfComm::new();
            let floor = SelectRequest::new("random", 1).with_seed(seed);
            let dispatch_s = time_per_call(budget_s, || {
                black_box(dispatch_select(&comm, problem, &floor).expect("random selection"));
            });
            out.set("core.dispatch_floor_us", dispatch_s * 1e6);
        });
        rec.span("probe.serve", 0, |_| serve(out, problem, budget_s));
    });
}

fn linalg<T: CommScalar>(
    out: &mut Outcome,
    problem: &SelectionProblem<T>,
    budget_s: f64,
    rng: &mut StdRng,
) {
    let (n, d, blocks) = (problem.pool_size(), problem.dim(), problem.nblocks());
    // The RELAX matvec's second GEMM: Xᵀ·Γ with Γ of n × (c-1)·s, s = 10.
    let gamma = random_matrix::<T>(n, blocks * 10, rng);
    let s = time_per_call(budget_s, || {
        black_box(gemm_at_b(&problem.pool_x, &gamma));
    });
    out.set(
        "linalg.gemm_at_b.gflops",
        gemm_at_b_flops(n, d, blocks * 10) as f64 / s / 1e9,
    );

    // Block-diagonal assembly B(H_z): one fused weighted Gram per class.
    let s = time_per_call(budget_s, || {
        black_box(gram_weighted_multi(&problem.pool_x, &problem.pool_h));
    });
    out.set(
        "linalg.gram_weighted_multi.gflops",
        gram_weighted_multi_flops(blocks, n, d) as f64 / s / 1e9,
    );

    let spd = spd_blocks::<T>(blocks, d, rng);
    let s = time_per_call(budget_s, || {
        for block in &spd {
            black_box(eigvalsh(block).expect("eigenvalues of an SPD block"));
        }
    });
    out.set("linalg.eigvalsh.us_per_block", s / blocks as f64 * 1e6);

    let s = time_per_call(budget_s, || {
        for block in &spd {
            black_box(Cholesky::new(block).expect("factor of an SPD block"));
        }
    });
    out.set(
        "linalg.cholesky.factor_us_per_block",
        s / blocks as f64 * 1e6,
    );

    // Rank-one update then downdate with the same vector, so the factor
    // stays where it started however long the probe runs.
    let mut chol = Cholesky::new(&spd[0]).expect("factor of an SPD block");
    let v: Vec<T> = (0..d)
        .map(|_| T::from_f64(0.1 * rng.gen::<f64>()))
        .collect();
    let s = time_per_call(budget_s, || {
        chol.update(&v);
        chol.downdate(&v).expect("downdate of a vector just added");
    });
    out.set("linalg.cholesky.rank1_us", s / 2.0 * 1e6);
}

fn solvers<T: CommScalar>(
    out: &mut Outcome,
    problem: &SelectionProblem<T>,
    budget_s: f64,
    rng: &mut StdRng,
) {
    let n = problem.pool_size();
    // One RELAX panel solve Σ_z W = V at the uniform starting point.
    let ho = PoolHessian::unweighted(&problem.labeled_x, &problem.labeled_h);
    let z = vec![T::from_f64(10.0 / n as f64); n];
    let hz = PoolHessian::weighted(&problem.pool_x, &problem.pool_h, z);
    let sigma = SigmaZ::new(ho, hz);
    let prec = BlockJacobi::new_with_ridge(&sigma.block_diagonal(), T::from_f64(1e-8))
        .expect("block-Jacobi factors");
    let v: Matrix<T> = rademacher_panel(problem.ehat(), 10, rng);
    let config = CgConfig::default();
    let mut iters = 0usize;
    let s = time_per_call(budget_s, || {
        let (w, telemetry) = cg_solve_panel(&sigma, &prec, &v, &config);
        iters = telemetry.iter().map(|t| t.iterations).max().unwrap_or(1);
        black_box(w);
    });
    out.set("solvers.cg.ms_per_iter", s / iters.max(1) as f64 * 1e3);

    let lambdas: Vec<T> = (0..problem.ehat())
        .map(|_| T::from_f64(rng.gen::<f64>()))
        .collect();
    let eta = T::from_f64(8.0 * (problem.ehat() as f64).sqrt());
    let s = time_per_call(budget_s, || {
        black_box(solve_nu(&lambdas, eta));
    });
    out.set("solvers.solve_nu.us", s * 1e6);
}

/// The five collective probes per backend, in the order [`collectives`]
/// returns them.
const SOCKET_PROBES: [&str; 5] = [
    "comm.socket.allreduce_1k_us",
    "comm.socket.allreduce_4m_mbps",
    "comm.socket.allgatherv_1k_us",
    "comm.socket.maxloc_us",
    "comm.socket.split_us",
];
const THREAD_PROBES: [&str; 5] = [
    "comm.thread.allreduce_1k_us",
    "comm.thread.allreduce_4m_mbps",
    "comm.thread.allgatherv_1k_us",
    "comm.thread.maxloc_us",
    "comm.thread.split_us",
];

/// Mean seconds per call of a collective `f` on one rank of a group. The
/// call count comes from a one-call calibration on rank 0 and is broadcast,
/// so every rank makes the same calls and the group stays in step.
fn time_per_collective(comm: &dyn Communicator, budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    comm.barrier();
    let t0 = Instant::now();
    f();
    let mut calls = [(budget_s / t0.elapsed().as_secs_f64().max(1e-7)).clamp(3.0, 2000.0)];
    comm.bcast_f64(&mut calls, 0);
    let calls = calls[0] as u32;
    comm.barrier();
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

/// Five collective timings on one rank of a 2-rank group.
fn collectives(comm: &dyn Communicator, budget_s: f64) -> [f64; 5] {
    let mut small = vec![1.0f64; 128];
    let allreduce_1k = time_per_collective(comm, budget_s, || {
        comm.allreduce_f64(&mut small, ReduceOp::Sum);
    });
    let mut large = vec![1.0f64; 1 << 19];
    let allreduce_4m = time_per_collective(comm, budget_s, || {
        comm.allreduce_f64(&mut large, ReduceOp::Max);
    });
    let piece = vec![comm.rank() as f64; 128];
    let allgatherv = time_per_collective(comm, budget_s, || {
        black_box(comm.allgatherv_f64(&piece));
    });
    let maxloc = time_per_collective(comm, budget_s, || {
        black_box(comm.allreduce_maxloc(comm.rank() as f64, comm.rank() as u64));
    });
    let split = time_per_collective(comm, budget_s, || {
        black_box(comm.split(0, comm.rank()).size());
    });
    [
        allreduce_1k * 1e6,
        (large.len() * 8) as f64 / allreduce_4m / 1e6,
        allgatherv * 1e6,
        maxloc * 1e6,
        split * 1e6,
    ]
}

fn serve<T: CommScalar>(out: &mut Outcome, problem: &SelectionProblem<T>, budget_s: f64) {
    // The server speaks f64 only.
    let wide = SelectionProblem::<f64>::new(
        problem.pool_x.cast(),
        problem.pool_h.cast(),
        problem.labeled_x.cast(),
        problem.labeled_h.cast(),
        problem.num_classes,
    );
    let queue: Vec<RankDemand> = (0..8)
        .map(|id| RankDemand {
            id,
            want_ranks: 1 + (id as usize % 2),
        })
        .collect();
    let s = time_per_call(budget_s, || {
        black_box(plan_round(&[0, 1], &queue));
    });
    out.set("serve.plan_round_us", s * 1e6);

    let blob = proto::encode_pool(&wide);
    let s = time_per_call(budget_s, || {
        black_box(proto::encode_pool(&wide));
    });
    out.set("serve.encode_pool_mbps", blob.len() as f64 / s / 1e6);
    let s = time_per_call(budget_s, || {
        black_box(proto::decode_pool(&blob).expect("decode of an encoded pool"));
    });
    out.set("serve.decode_pool_mbps", blob.len() as f64 / s / 1e6);

    let add = PoolMutation::Add {
        xs: Matrix::from_fn(8, wide.dim(), |i, j| wide.pool_x.row(i)[j]),
        hs: Matrix::from_fn(8, wide.nblocks(), |i, j| wide.pool_h.row(i)[j]),
    };
    let s = time_per_call(budget_s, || {
        black_box(proto::encode_mutation(1, &add));
    });
    out.set("serve.encode_mutation_us", s * 1e6);
}
