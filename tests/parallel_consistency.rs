//! Cross-crate integration tests for the unified execution layer: the same
//! communicator-generic RELAX/ROUND code must produce consistent results
//! whether it runs on [`firal::comm::SelfComm`] (`p = 1`, collectives are
//! no-ops), on the real multi-threaded [`firal::comm::ThreadComm`] runtime,
//! or on the TCP-mesh [`firal::comm::SocketComm`] backend, at any rank
//! count — in both precisions.

use firal::comm::{
    launch, launch_backend, socket_launch, Backend, CommScalar, Communicator, ReduceOp, SelfComm,
};
use firal::core::{
    dispatch_select, select_serial, strategy_by_name, EigSolver, EtaGroupGeometry, Executor,
    RelaxConfig, RoundConfig, SelectRequest, SelectionProblem, ShardedProblem,
};
use firal::data::SyntheticConfig;
use firal::linalg::Scalar;
use firal::logreg::LogisticRegression;

fn problem<T: Scalar>(seed: u64, n: usize, d: usize, c: usize) -> SelectionProblem<T> {
    let ds = SyntheticConfig::new(c, d)
        .with_pool_size(n)
        .with_initial_per_class(2)
        .with_seed(seed)
        .generate::<T>();
    let model = LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels).unwrap();
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        c,
    )
}

/// The consistency matrix of the unified path: for each rank count and
/// each multi-rank backend (shared-memory ThreadComm and TCP SocketComm),
/// the run must select the identical batch as the SelfComm reference and
/// reproduce its per-iteration RELAX objective series within `obj_tol`
/// (relative) — floating-point partial sums are the only permitted
/// difference between the runs.
fn consistency_matrix_case<T: CommScalar>(seed: u64, obj_tol: f64) {
    let p: SelectionProblem<T> = problem(seed, 48, 4, 3);
    let budget = 5;
    let eta = T::from_f64(6.0) * T::from_usize(p.ehat()).sqrt();
    let cfg = RelaxConfig {
        seed: 11,
        md: firal::core::MirrorDescentConfig {
            max_iters: 8,
            ..Default::default()
        },
        ..Default::default()
    };

    // p = 1 reference: the SelfComm instantiation of the same code.
    let comm = SelfComm::new();
    let shard = ShardedProblem::replicate(&p);
    let exec = Executor::new(&comm, &shard);
    let ref_relax = exec.relax(budget, &cfg);
    let ref_round = exec.round(&ref_relax.z_local, budget, eta, EigSolver::Exact);
    let ref_obj: Vec<f64> = ref_relax
        .telemetry
        .objective_history
        .iter()
        .map(|v| v.to_f64())
        .collect();

    let rank_body = |comm: &dyn Communicator| {
        let shard = ShardedProblem::shard(&p, comm.rank(), comm.size());
        let exec = Executor::new(comm, &shard);
        let relax = exec.relax(budget, &cfg);
        let round = exec.round(&relax.z_local, budget, eta, EigSolver::Exact);
        let obj: Vec<f64> = relax
            .telemetry
            .objective_history
            .iter()
            .map(|v| v.to_f64())
            .collect();
        (round.selected, obj)
    };

    // Both multi-rank backends against the same SelfComm reference: the
    // shared-memory transport at p ∈ {2, 4, 7} and the TCP socket mesh at
    // p ∈ {2, 4}.
    for (backend, rank_counts) in [
        (Backend::Thread, &[2usize, 4, 7][..]),
        (Backend::Socket, &[2usize, 4][..]),
    ] {
        for &procs in rank_counts {
            let results = launch_backend(backend, procs, rank_body);

            for (rank, (selected, obj)) in results.iter().enumerate() {
                assert_eq!(
                    selected, &ref_round.selected,
                    "{backend:?} p={procs} rank {rank}: selection diverged from the SelfComm reference"
                );
                assert_eq!(
                    obj.len(),
                    ref_obj.len(),
                    "{backend:?} p={procs} rank {rank}: RELAX iteration counts diverged"
                );
                for (t, (a, b)) in obj.iter().zip(ref_obj.iter()).enumerate() {
                    assert!(
                        (a - b).abs() <= obj_tol * b.abs().max(1e-9),
                        "{backend:?} p={procs} rank {rank}: objective at iteration {t} drifted: {a} vs {b}"
                    );
                }
            }
            // And all ranks agree bitwise among themselves.
            for (selected, obj) in &results[1..] {
                assert_eq!(selected, &results[0].0);
                assert_eq!(obj, &results[0].1);
            }
        }
    }
}

#[test]
fn consistency_matrix_f64() {
    consistency_matrix_case::<f64>(21, 1e-9);
}

#[test]
fn consistency_matrix_f32() {
    // f32 partial sums differ across shard boundaries; the objective series
    // tolerance is correspondingly looser, but the selected batch must
    // still be identical.
    consistency_matrix_case::<f32>(22, 5e-3);
}

/// The backend × strategy consistency matrix for the executor-generic
/// selection strategies, mirroring the Approx-FIRAL rows above: the
/// distributed selection must be **bitwise identical** to the serial
/// SelfComm selection (the `p = 1` instantiation of the same
/// `DistStrategy` code) on both multi-rank backends at p ∈ {1, 2, 4} and
/// at kernel-pool sizes threads ∈ {1, 4}, and all ranks must agree among
/// themselves. For UPAL every decision is made from replicated state
/// (Allgathered scores in global order + owner-Bcast rows), so the
/// invariance is by construction; for Bayes-Batch the pool target `t`
/// crosses shard boundaries through an Allreduce, making this matrix the
/// pin that the Frank–Wolfe argmaxes absorb the last-ulp drift exactly
/// like ROUND's MAXLOC does.
fn strategy_matrix_case(name: &str) {
    let p: SelectionProblem<f64> = problem(51, 48, 4, 3);
    let budget = 5;
    let seed = 9;
    let serial = select_serial(
        strategy_by_name::<f64>(name).unwrap().as_ref(),
        &p,
        budget,
        seed,
    )
    .unwrap()
    .selected;
    assert_eq!(serial.len(), budget);
    for backend in [Backend::Thread, Backend::Socket] {
        for procs in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let prob = p.clone();
                let req = SelectRequest::new(name, budget)
                    .with_seed(seed)
                    .with_threads(threads);
                let results = launch_backend(backend, procs, move |comm| {
                    dispatch_select(comm, &prob, &req).unwrap().selected
                });
                for (rank, sel) in results.iter().enumerate() {
                    assert_eq!(
                        sel, &serial,
                        "{name}: {backend:?} p={procs} threads={threads} rank {rank} \
                         diverged from the SelfComm reference"
                    );
                }
            }
        }
    }
}

#[test]
fn strategy_matrix_upal() {
    strategy_matrix_case("upal");
}

#[test]
fn strategy_matrix_bayes_batch() {
    strategy_matrix_case("bayes-batch");
}

/// The intra-rank parallelism determinism matrix: Approx-FIRAL's selected
/// indices AND its RELAX objective series must be **bitwise identical**
/// across kernel-pool sizes (`threads ∈ {ambient, 1, 2, 4}`, where
/// `ambient` = 0 inherits the `FIRAL_NUM_THREADS`-sized global pool — CI
/// re-runs this test under `FIRAL_NUM_THREADS=1` and `=4`) at every
/// ThreadComm rank count `p ∈ {1, 2}`. This is the contract
/// `firal_linalg::gemm` documents: chunk boundaries are shape-derived and
/// partial sums combine in chunk order, so the thread axis never perturbs
/// floating point. (Across the *rank* axis the selection stays identical
/// while objective bits may differ at shard boundaries — that axis is
/// covered by `consistency_matrix_*` above.)
#[test]
fn thread_determinism_matrix() {
    // Shape chosen so the dense kernels cross firal_linalg's parallel
    // threshold — the pool genuinely engages instead of taking the
    // sequential small-shape fallback.
    let p: SelectionProblem<f64> = problem(31, 768, 16, 4);
    let budget = 4;
    let eta = 4.0 * (p.ehat() as f64).sqrt();
    let cfg = RelaxConfig {
        seed: 13,
        md: firal::core::MirrorDescentConfig {
            max_iters: 3,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut selection_ref: Option<Vec<usize>> = None;
    for ranks in [1usize, 2] {
        let mut cell_ref: Option<(Vec<usize>, Vec<u64>)> = None;
        for threads in [0usize, 1, 2, 4] {
            let prob = p.clone();
            let config = cfg;
            let results = launch(ranks, move |comm| {
                let shard = ShardedProblem::shard(&prob, comm.rank(), comm.size());
                let exec = Executor::new(comm, &shard).with_threads(threads);
                let relax = exec.relax(budget, &config);
                let round = exec.round(&relax.z_local, budget, eta, EigSolver::Exact);
                let obj_bits: Vec<u64> = relax
                    .telemetry
                    .objective_history
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (round.selected, obj_bits)
            });
            for cell in &results[1..] {
                assert_eq!(cell, &results[0], "p={ranks} t={threads}: ranks disagreed");
            }
            match &cell_ref {
                None => cell_ref = Some(results[0].clone()),
                Some((sel, bits)) => {
                    assert_eq!(
                        &results[0].0, sel,
                        "p={ranks} t={threads}: selection changed with thread count"
                    );
                    assert_eq!(
                        &results[0].1, bits,
                        "p={ranks} t={threads}: RELAX objective bits changed with thread count"
                    );
                }
            }
        }
        let (sel, _) = cell_ref.unwrap();
        match &selection_ref {
            None => selection_ref = Some(sel),
            Some(r) => assert_eq!(&sel, r, "p={ranks}: selection diverged across rank counts"),
        }
    }
}

/// Selection + RELAX-objective fingerprint of one full Approx-FIRAL run
/// (SelfComm, ambient threads), shared by the forced-scalar consistency
/// row below. Shape chosen so the dense kernels cross firal_linalg's
/// parallel threshold and genuinely engage the dispatched SIMD paths.
fn simd_fingerprint() -> (Vec<usize>, Vec<u64>) {
    let p: SelectionProblem<f64> = problem(31, 768, 16, 4);
    let budget = 4;
    let eta = 4.0 * (p.ehat() as f64).sqrt();
    let cfg = RelaxConfig {
        seed: 13,
        md: firal::core::MirrorDescentConfig {
            max_iters: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let comm = SelfComm::new();
    let shard = ShardedProblem::replicate(&p);
    let exec = Executor::new(&comm, &shard);
    let relax = exec.relax(budget, &cfg);
    let round = exec.round(&relax.z_local, budget, eta, EigSolver::Exact);
    let obj_bits = relax
        .telemetry
        .objective_history
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (round.selected, obj_bits)
}

/// Child half of `simd_off_selection_is_bitwise_identical`: when re-invoked
/// by that test with `FIRAL_SIMD=off` in the environment, print the
/// fingerprint for the parent to parse; a no-op in a normal test run.
/// (The SIMD tier is latched process-wide on first kernel use, so forcing
/// the scalar tier requires a fresh process — flipping a global in-process
/// would race with concurrently running tests.)
#[test]
fn simd_off_child_fingerprint() {
    if std::env::var("FIRAL_SIMD_OFF_CHILD").is_err() {
        return;
    }
    let (sel, bits) = simd_fingerprint();
    let sel: Vec<String> = sel.iter().map(|v| v.to_string()).collect();
    let bits: Vec<String> = bits.iter().map(|v| v.to_string()).collect();
    println!("SIMD_OFF_FINGERPRINT={}|{}", sel.join(","), bits.join(","));
}

/// The `FIRAL_SIMD=off` consistency row: the full Approx-FIRAL selection
/// AND the RELAX objective bits must be identical under forced-scalar
/// kernels and under this process's default dispatch tier — the
/// whole-pipeline instantiation of the canonical-summation-tree contract
/// (`firal_linalg::simd`). The scalar run happens in a child process (same
/// test binary, filtered to the helper above) because the tier latches
/// once per process.
#[test]
fn simd_off_selection_is_bitwise_identical() {
    if std::env::var("FIRAL_SIMD_OFF_CHILD").is_ok() {
        return; // don't recurse when running inside the child
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "simd_off_child_fingerprint",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("FIRAL_SIMD_OFF_CHILD", "1")
        .env("FIRAL_SIMD", "off")
        .output()
        .expect("spawn forced-scalar child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "forced-scalar child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness may print its own `test … ...` prefix on the same line,
    // so locate the marker anywhere in the line.
    const MARKER: &str = "SIMD_OFF_FINGERPRINT=";
    let payload = stdout
        .lines()
        .find_map(|l| l.find(MARKER).map(|i| &l[i + MARKER.len()..]))
        .unwrap_or_else(|| panic!("child printed no fingerprint:\n{stdout}"));
    let (sel_csv, bits_csv) = payload.split_once('|').expect("malformed fingerprint");
    let parse_csv = |s: &str| -> Vec<u64> {
        s.split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().unwrap())
            .collect()
    };
    let child_sel: Vec<usize> = parse_csv(sel_csv).iter().map(|&v| v as usize).collect();
    let child_bits = parse_csv(bits_csv);

    let (sel, bits) = simd_fingerprint();
    assert_eq!(
        child_sel, sel,
        "forced-scalar selection diverged from the default tier"
    );
    assert_eq!(
        child_bits, bits,
        "forced-scalar RELAX objective bits diverged from the default tier"
    );
}

/// The η-group consistency matrix: the full grouped pipeline (RELAX on
/// each group's p_shard-way partition, then the η grid distributed over
/// p_eta sub-communicator groups) must return the **bitwise identical**
/// (η★, selection) as the serial SelfComm grid sweep at every layout
/// (p_shard, p_eta) ∈ {(1,1), (2,1), (1,2), (2,2)} on both multi-rank
/// backends — and the criterion bits must be invariant along the η-group
/// axis for a fixed group size p_shard (the only permitted float
/// difference across layouts is shard-boundary partial sums along the
/// p_shard axis).
#[test]
fn eta_group_matrix_matches_serial_grid_sweep() {
    let p: SelectionProblem<f64> = problem(41, 36, 4, 3);
    let budget = 5;
    let relax_cfg = RelaxConfig {
        seed: 17,
        md: firal::core::MirrorDescentConfig {
            max_iters: 6,
            ..Default::default()
        },
        ..Default::default()
    };
    let grid = RoundConfig::<f64>::default().eta_grid;

    // Serial reference: SelfComm RELAX + sequential grid sweep.
    let comm = SelfComm::new();
    let shard = ShardedProblem::replicate(&p);
    let exec = Executor::new(&comm, &shard);
    let ref_relax = exec.relax(budget, &relax_cfg);
    let ref_round = exec.select_eta(&ref_relax.z_local, budget, &grid);
    let ref_crit = ref_round.criterion.expect("grid sweep records criterion");

    // criterion bits per p_shard: layouts with the same group size must
    // agree exactly, whatever p_eta is.
    let mut crit_bits_by_shard: std::collections::HashMap<usize, u64> = Default::default();
    for (p_shard, p_eta) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2)] {
        let world = p_shard * p_eta;
        for backend in [Backend::Thread, Backend::Socket] {
            let (prob, grid) = (p.clone(), grid.clone());
            let results = launch_backend(backend, world, move |world| {
                // RELAX inside each group on its p_shard-way partition
                // (the probe panels are seeded and group collectives reduce
                // in rank order, so every group computes bit-identical z⋄),
                // then the η grid distributed across the groups.
                let geometry = EtaGroupGeometry::new(world.size(), p_eta);
                let (group_comm, cross_comm) = geometry.split(world);
                let shard = ShardedProblem::shard(&prob, group_comm.rank(), geometry.p_shard);
                let exec = Executor::new(&*group_comm, &shard);
                let relax = exec.relax(budget, &relax_cfg);
                let round = exec.select_eta_grouped(&relax.z_local, budget, &grid, &*cross_comm);
                (
                    round.selected,
                    round.eta.to_bits(),
                    round.criterion.unwrap().to_bits(),
                    cross_comm.rank(),
                    geometry,
                )
            });
            for (rank, (selected, eta_bits, crit_bits, group, geometry)) in
                results.iter().enumerate()
            {
                assert_eq!((geometry.p_shard, geometry.p_eta), (p_shard, p_eta));
                assert_eq!(*group, rank / p_shard);
                assert_eq!(
                    selected, &ref_round.selected,
                    "{backend:?} ({p_shard}x{p_eta}) rank {rank}: selection diverged from serial"
                );
                assert_eq!(
                    *eta_bits,
                    ref_round.eta.to_bits(),
                    "{backend:?} ({p_shard}x{p_eta}) rank {rank}: η★ bits diverged from serial"
                );
                match crit_bits_by_shard.get(&p_shard) {
                    None => {
                        crit_bits_by_shard.insert(p_shard, *crit_bits);
                    }
                    Some(&bits) => assert_eq!(
                        *crit_bits, bits,
                        "{backend:?} ({p_shard}x{p_eta}) rank {rank}: criterion bits changed \
                         along the η-group axis"
                    ),
                }
            }
        }
    }
    // p_shard = 1 is exactly the serial computation: same criterion bits.
    assert_eq!(crit_bits_by_shard[&1], ref_crit.to_bits());
}

/// The shared-scratch η sweep against the unshared composition: for a
/// 3-point grid, [`Executor::select_eta`]'s winner must equal the first
/// maximum of `selection_min_eig` over three independent
/// `round(z, b, ηᵢ·√ê)` runs — selection, η★ and criterion **bitwise** — at
/// p ∈ {1, 2}. The grouped rows above pin the sweep against itself across
/// layouts; this one pins it against runs that share nothing.
fn eta_sweep_matches_independent_rounds_case<T: CommScalar>(seed: u64) {
    let (n, budget) = (40usize, 4usize);
    let p: SelectionProblem<T> = problem(seed, n, 4, 3);
    let grid = [2.0, 4.0, 8.0].map(T::from_f64);
    // Non-uniform z⋄ with ‖z⋄‖₁ = b, so the η values have something to
    // disagree about.
    let total: usize = (0..n).map(|i| 1 + i % 5).sum();
    let z: Vec<T> = (0..n)
        .map(|i| T::from_f64((budget * (1 + i % 5)) as f64 / total as f64))
        .collect();
    let mut by_ranks = Vec::new();
    for procs in [1usize, 2] {
        let results = launch(procs, |comm| {
            let shard = ShardedProblem::shard(&p, comm.rank(), comm.size());
            let exec = Executor::new(comm, &shard);
            let z_local = &z[shard.offset..shard.offset + shard.local_n()];
            let scale = T::from_usize(shard.ehat()).sqrt();
            let mut best: Option<(T, T, Vec<usize>)> = None;
            for &mult in &grid {
                let run = exec.round(z_local, budget, mult * scale, EigSolver::Exact);
                assert_eq!(run.criterion, None, "a fixed-η run records no criterion");
                let crit = exec.selection_min_eig(&run.selected);
                match &best {
                    Some((c, _, _)) if *c >= crit => {}
                    _ => best = Some((crit, run.eta, run.selected)),
                }
            }
            let (crit, eta, selected) = best.unwrap();
            let sweep = exec.select_eta(z_local, budget, &grid);
            assert_eq!(sweep.selected, selected, "p={procs}: selection");
            assert_eq!(
                sweep.eta.to_f64().to_bits(),
                eta.to_f64().to_bits(),
                "p={procs}: η★ bits"
            );
            assert_eq!(
                sweep.criterion.unwrap().to_f64().to_bits(),
                crit.to_f64().to_bits(),
                "p={procs}: criterion bits"
            );
            sweep.selected
        });
        for sel in &results[1..] {
            assert_eq!(sel, &results[0], "p={procs}: ranks disagreed");
        }
        by_ranks.push(results[0].clone());
    }
    assert_eq!(by_ranks[0], by_ranks[1], "selection changed with p");
}

#[test]
fn eta_sweep_matches_independent_rounds_f64() {
    eta_sweep_matches_independent_rounds_case::<f64>(71);
}

#[test]
fn eta_sweep_matches_independent_rounds_f32() {
    eta_sweep_matches_independent_rounds_case::<f32>(72);
}

/// The streaming-state consistency row: one fixed update sequence committed
/// through [`StreamingState`] (including a refactor boundary — interval 3
/// over 3 batches) must leave every rank of every backend with the
/// **bitwise-identical** replicated fingerprint (`Σ⋄`, `B(H_o)`, factors) at
/// a fixed rank count, fingerprints must agree **across backends** at that
/// rank count, and the post-stream selection must equal the SelfComm
/// reference at every rank count — the streaming instantiation of the
/// repo-wide shard convention (selections invariant across `p`, partial-sum
/// bits only pinned within a fixed `p`).
#[test]
fn streaming_state_consistency_row() {
    use firal::core::{FiralConfig as FC, PoolUpdate, StreamingState};

    let p: SelectionProblem<f64> = problem(61, 40, 4, 3);
    let weights: Vec<f64> = (0..p.pool_size())
        .map(|i| 0.04 + 0.01 * (i % 5) as f64)
        .collect();
    let cfg = FC {
        refactor_interval: 3,
        ..Default::default()
    };
    let budget = 4;
    // Initial points carry ids 0..40; the batch-0 Add mints id 40, which
    // batch 2 then removes — exercising add/label/remove plus the refactor
    // boundary on the final commit.
    let updates: Vec<Vec<PoolUpdate<f64>>> = vec![
        vec![
            PoolUpdate::Add {
                x: vec![0.2, -0.1, 0.4, 0.05],
                h: vec![0.3, 0.2],
                weight: 0.06,
            },
            PoolUpdate::Label { id: 5 },
        ],
        vec![PoolUpdate::Remove { id: 11 }, PoolUpdate::Remove { id: 2 }],
        vec![
            PoolUpdate::Add {
                x: vec![-0.3, 0.2, 0.1, 0.3],
                h: vec![0.25, 0.25],
                weight: 0.05,
            },
            PoolUpdate::Label { id: 7 },
            PoolUpdate::Remove { id: 40 },
        ],
    ];

    let rank_body = {
        let (p, weights, cfg, updates) = (p.clone(), weights.clone(), cfg.clone(), updates.clone());
        move |comm: &dyn Communicator| -> (u64, bool, Vec<usize>) {
            let mut st = StreamingState::new(comm, &p, &weights, &cfg);
            let mut refactored = false;
            for batch in &updates {
                refactored = st.commit(comm, batch).refactored;
            }
            let eta = 6.0 * (p.ehat() as f64).sqrt();
            let run = st.select(comm, budget, eta, EigSolver::Exact);
            (st.fingerprint(), refactored, run.selected)
        }
    };

    // p = 1 reference: the SelfComm instantiation of the same sequence.
    let (ref_fp, ref_refactored, ref_sel) = rank_body(&SelfComm::new());
    assert!(
        ref_refactored,
        "third commit must hit the interval-3 boundary"
    );
    assert_eq!(ref_sel.len(), budget);

    for (backend, rank_counts) in [
        (Backend::Thread, &[2usize, 4][..]),
        (Backend::Socket, &[2usize][..]),
    ] {
        for &procs in rank_counts {
            let results = launch_backend(backend, procs, rank_body.clone());
            for (rank, (fp, refactored, selected)) in results.iter().enumerate() {
                assert!(refactored, "{backend:?} p={procs} rank {rank}: no refactor");
                assert_eq!(
                    selected, &ref_sel,
                    "{backend:?} p={procs} rank {rank}: streaming selection diverged \
                     from the SelfComm reference"
                );
                assert_eq!(
                    *fp, results[0].0,
                    "{backend:?} p={procs} rank {rank}: fingerprint diverged across ranks"
                );
            }
            // Fixed p: the fingerprint is backend-invariant, so the thread
            // p=2 cell doubles as the socket p=2 expectation.
            if procs == 2 {
                let thread_fp = launch_backend(Backend::Thread, 2, rank_body.clone())[0].0;
                assert_eq!(
                    results[0].0, thread_fp,
                    "{backend:?} p=2: fingerprint diverged across backends"
                );
            }
        }
    }
    // p = 1 on a real backend matches the SelfComm reference bitwise.
    let p1 = launch_backend(Backend::Thread, 1, rank_body.clone());
    assert_eq!(p1[0].0, ref_fp, "thread p=1 fingerprint != SelfComm");
    assert_eq!(p1[0].2, ref_sel);
}

#[test]
fn full_pipeline_rank_invariance() {
    let p: SelectionProblem<f64> = problem(1, 60, 6, 4);
    let eta = 6.0 * (p.ehat() as f64).sqrt();
    let cfg = RelaxConfig {
        seed: 5,
        ..Default::default()
    };
    let mut reference: Option<Vec<usize>> = None;
    for ranks in [1usize, 2, 3, 5] {
        let prob = p.clone();
        let config = cfg;
        let results = launch(ranks, move |comm| {
            let shard = ShardedProblem::shard(&prob, comm.rank(), comm.size());
            let exec = Executor::new(comm, &shard);
            let relax = exec.relax(8, &config);
            exec.round(&relax.z_local, 8, eta, EigSolver::Exact)
                .selected
        });
        // Identical on every rank.
        for sel in &results[1..] {
            assert_eq!(sel, &results[0], "ranks disagreed at p={ranks}");
        }
        match &reference {
            None => reference = Some(results[0].clone()),
            Some(r) => {
                let overlap = r.iter().filter(|i| results[0].contains(i)).count();
                assert!(
                    overlap >= 7,
                    "p={ranks} selection {:?} drifted from p=1 {:?}",
                    results[0],
                    r
                );
            }
        }
    }
}

#[test]
fn relax_weights_sum_to_budget_across_ranks() {
    let p: SelectionProblem<f64> = problem(2, 45, 6, 4);
    for ranks in [2usize, 3] {
        let prob = p.clone();
        let results = launch(ranks, move |comm| {
            let shard = ShardedProblem::shard(&prob, comm.rank(), comm.size());
            let out = Executor::new(comm, &shard).relax(6, &RelaxConfig::default());
            (
                out.z_local.iter().sum::<f64>(),
                out.z_diamond.iter().sum::<f64>(),
            )
        });
        let local_total: f64 = results.iter().map(|(l, _)| l).sum();
        assert!(
            (local_total - 6.0).abs() < 1e-8,
            "locals sum to {local_total}"
        );
        for (_, global) in &results {
            assert!((global - 6.0).abs() < 1e-8, "global sums to {global}");
        }
    }
}

/// A mixed sequence of collectives with data dependencies, shared by the
/// thread- and socket-backend composition tests below so the cross-backend
/// equality assertion always compares the identical workload.
fn mixed_collectives_body(comm: &dyn Communicator) -> f64 {
    let mut acc = 0.0f64;
    for round in 0..20 {
        let mut v = vec![(comm.rank() * (round + 1)) as f64; 8];
        comm.allreduce_f64(&mut v, ReduceOp::Sum);
        let gathered = comm.allgatherv_f64(&v[..1]);
        let mut top = vec![gathered.iter().sum::<f64>()];
        comm.bcast_f64(&mut top, round % 4);
        let (mx, who) = comm.allreduce_maxloc(top[0] + comm.rank() as f64, comm.rank() as u64);
        assert_eq!(who, 3, "max always at the highest rank");
        acc += mx;
    }
    acc
}

#[test]
fn collectives_compose_under_load() {
    // Exercises slot reuse and barrier correctness under the real thread
    // runtime.
    let results = launch(4, |comm| mixed_collectives_body(comm));
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn collectives_compose_under_load_socket() {
    // The same sequence over the TCP mesh: exercises the hub reduction,
    // direct-mesh bcast, and wire framing under data dependencies, and
    // must agree with the ThreadComm backend exactly (both implement the
    // rank-ordered reduction contract).
    let socket = socket_launch(4, |comm| mixed_collectives_body(comm));
    let thread = launch(4, |comm| mixed_collectives_body(comm));
    for r in &socket[1..] {
        assert_eq!(r, &socket[0]);
    }
    assert_eq!(socket, thread);
}

#[test]
fn sharded_problem_covers_pool_for_odd_sizes() {
    let p: SelectionProblem<f64> = problem(3, 53, 6, 4); // deliberately not divisible
    for ranks in [2usize, 3, 7] {
        let total: usize = (0..ranks)
            .map(|r| ShardedProblem::shard(&p, r, ranks).local_n())
            .sum();
        assert_eq!(total, 53);
    }
}
