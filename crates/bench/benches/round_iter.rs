//! Criterion micro-bench for one diagonal-ROUND iteration (Algorithm 3):
//! the Eq. 17 objective sweep and the per-block generalized eigensolve —
//! the two bars of Figs. 5(C)(D)/7 — plus the scoring pass that reads the
//! iteration's `ν` (`FIG7_BUDGET`: the last pick of a run skips Lines 9–11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use firal_bench::workloads::{selection_problem_from_dataset, FIG7_BUDGET};
use firal_comm::SelfComm;
use firal_core::{EigSolver, Executor, ShardedProblem};
use firal_data::SyntheticConfig;

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_iteration");
    group.sample_size(10);
    for (n, d, cls) in [(2000usize, 24usize, 8usize), (4000, 32, 16)] {
        let ds = SyntheticConfig::new(cls, d)
            .with_pool_size(n)
            .with_initial_per_class(1)
            .with_eval_size(cls * 2)
            .with_normalize(true)
            .with_seed(3)
            .generate::<f64>();
        let problem = selection_problem_from_dataset(&ds);
        let z = vec![4.0 / n as f64; n];
        let eta = 4.0 * (problem.ehat() as f64).sqrt();
        let (comm, shard) = (SelfComm::new(), ShardedProblem::replicate(&problem));
        let exec = Executor::new(&comm, &shard);
        group.bench_with_input(
            BenchmarkId::new("select_one", format!("n{n}_d{d}_c{cls}")),
            &(),
            |b, _| b.iter(|| exec.round(&z, FIG7_BUDGET, eta, EigSolver::Exact)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
