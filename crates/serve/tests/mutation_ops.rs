//! Pool mutation ops end-to-end over a 2-rank mesh.
//!
//! The hub applies each mutation to its own pool copy at request time and
//! ships only the encoded delta inside the next round frame; the worker
//! replays it through the same `apply_mutation`. These tests drive that
//! path with a client-side *shadow* copy mutated identically: after any
//! mix of add/label/remove the server's selection must be bitwise equal to
//! the serial reference computed on the shadow — i.e. the O(Δpool)
//! streaming path is indistinguishable from re-uploading the whole pool.
//! Deletes ride the same log, so a pool the worker holds is dropped there
//! too. The last test pins that `StreamingState` edits its pool through the
//! same row edits as `apply_mutation`.

use std::time::Duration;

use firal_comm::{free_rendezvous_addr, socket_launch, SelfComm};
use firal_core::{
    select_serial, strategy_by_name, FiralConfig, PoolUpdate, SelectionProblem, StreamingState,
};
use firal_data::SyntheticConfig;
use firal_linalg::Matrix;
use firal_serve::proto::{self, PoolMutation, ERR_PROTOCOL, ERR_UNKNOWN_POOL};
use firal_serve::{run, ClientError, SelectSpec, ServeClient, ServeConfig};

const PATIENCE: Duration = Duration::from_secs(30);

fn problem() -> SelectionProblem<f64> {
    let ds = SyntheticConfig::new(3, 4)
        .with_pool_size(40)
        .with_initial_per_class(2)
        .with_seed(29)
        .generate::<f64>();
    let model =
        firal_logreg::LogisticRegression::fit_default(&ds.initial_features, &ds.initial_labels)
            .unwrap();
    SelectionProblem::new(
        ds.pool_features.clone(),
        model.class_probs_cm1(&ds.pool_features),
        ds.initial_features.clone(),
        model.class_probs_cm1(&ds.initial_features),
        3,
    )
}

fn connect(addr: &str) -> ServeClient {
    ServeClient::connect(addr, Duration::from_secs(10))
        .and_then(|c| c.with_patience(Some(PATIENCE)))
        .expect("client connect")
}

fn spec(pool: u64, strategy: &str, budget: usize) -> SelectSpec {
    SelectSpec {
        pool,
        strategy: strategy.to_string(),
        budget,
        seed: 11,
        threads: 0,
        max_ranks: 0,
    }
}

fn serial_reference(problem: &SelectionProblem<f64>, strategy: &str, budget: usize) -> Vec<usize> {
    select_serial(
        strategy_by_name::<f64>(strategy).unwrap().as_ref(),
        problem,
        budget,
        11,
    )
    .unwrap()
    .selected
}

#[test]
fn mutations_ship_deltas_and_match_a_full_rebuild() {
    let addr = free_rendezvous_addr().expect("free port");
    let config = ServeConfig::new(addr.clone()).with_batch_wait(Duration::from_millis(5));
    let server = std::thread::spawn({
        let config = config.clone();
        move || socket_launch(2, move |comm| run(comm, &config))
    });

    let mut shadow = problem();
    let mut client = connect(&addr);
    let pool = client.upload_pool(&shadow).expect("upload");

    // Round 1 ships the pool to the worker; healthy baseline first.
    let outcome = client.select(&spec(pool, "entropy", 4)).expect("select");
    assert_eq!(outcome.selected, serial_reference(&shadow, "entropy", 4));

    // Add three rows, label two, remove two — mirroring every edit on the
    // local shadow through the same apply_mutation the mesh runs.
    let xs = Matrix::from_fn(3, shadow.dim(), |i, j| {
        0.05 * (i + 1) as f64 + 0.01 * j as f64
    });
    let hs = Matrix::from_fn(3, shadow.nblocks(), |i, j| 1.0 / (3.0 + (i + j) as f64));
    let ack = client.add_points(pool, &xs, &hs).expect("add");
    proto::apply_mutation(
        &mut shadow,
        &PoolMutation::Add {
            xs: xs.clone(),
            hs: hs.clone(),
        },
    )
    .unwrap();
    assert_eq!(ack.pool_size, shadow.pool_size());

    let ack = client.label_points(pool, &[2, 5]).expect("label");
    proto::apply_mutation(
        &mut shadow,
        &PoolMutation::Label {
            indices: vec![2, 5],
        },
    )
    .unwrap();
    assert_eq!(
        (ack.pool_size, ack.labeled),
        (shadow.pool_size(), shadow.labeled_x.rows())
    );

    let ack = client.remove_points(pool, &[3, 1]).expect("remove");
    proto::apply_mutation(
        &mut shadow,
        &PoolMutation::Remove {
            indices: vec![3, 1],
        },
    )
    .unwrap();
    assert_eq!(ack.pool_size, shadow.pool_size());

    // Round 2 ships only the three deltas. The distributed selection on
    // the mutated pool must be bitwise the serial reference on the shadow
    // — for the cheap entropy scorer and for the full Approx-FIRAL stack
    // (which also sees the grown labeled panels).
    let outcome = client.select(&spec(pool, "entropy", 5)).expect("select");
    assert_eq!(outcome.selected, serial_reference(&shadow, "entropy", 5));
    let outcome = client
        .select(&spec(pool, "approx-firal", 3))
        .expect("approx-firal select");
    assert_eq!(
        outcome.selected,
        serial_reference(&shadow, "approx-firal", 3)
    );

    // An invalid mutation is a structured error and leaves the replicated
    // state untouched on every rank.
    match client.remove_points(pool, &[99_999]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ERR_PROTOCOL, "{}", e.message),
        other => panic!("out-of-range remove: expected a protocol error, got {other:?}"),
    }
    let outcome = client.select(&spec(pool, "entropy", 5)).expect("select");
    assert_eq!(outcome.selected, serial_reference(&shadow, "entropy", 5));

    client.shutdown().expect("shutdown");
    let summaries = server.join().expect("server thread");
    assert_eq!(summaries.len(), 2);
    for s in summaries {
        let s = s.expect("rank summary");
        assert!(s.degraded.is_none(), "mesh must stay healthy: {s:?}");
    }
}

#[test]
fn deleting_a_shipped_pool_drops_it_on_every_rank() {
    let addr = free_rendezvous_addr().expect("free port");
    let config = ServeConfig::new(addr.clone()).with_batch_wait(Duration::from_millis(5));
    let server = std::thread::spawn({
        let config = config.clone();
        move || socket_launch(2, move |comm| run(comm, &config))
    });

    let base = problem();
    let mut client = connect(&addr);

    // Pool A reaches the worker with its first round; then it is deleted.
    let pool_a = client.upload_pool(&base).expect("upload a");
    let outcome = client.select(&spec(pool_a, "entropy", 3)).expect("warm a");
    assert_eq!(outcome.selected, serial_reference(&base, "entropy", 3));
    client.delete_pool(pool_a).expect("delete a");
    match client.select(&spec(pool_a, "entropy", 3)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ERR_UNKNOWN_POOL, "{}", e.message),
        other => panic!("a deleted pool must be unknown, got {other:?}"),
    }

    // Pool B never leaves the hub: deleted before any round ships it.
    let pool_b = client.upload_pool(&base).expect("upload b");
    client.delete_pool(pool_b).expect("delete b");

    // A fresh pool's round also carries pool A's delete to the worker (a
    // delete of B, which the worker never installed, would desync it).
    let pool_c = client.upload_pool(&base).expect("upload c");
    let outcome = client
        .select(&spec(pool_c, "entropy", 3))
        .expect("select c");
    assert_eq!(outcome.selected, serial_reference(&base, "entropy", 3));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.pools_live, 1, "{stats:?}");
    assert_eq!(stats.pools_evicted, 2, "{stats:?}");

    client.shutdown().expect("shutdown");
    for s in server.join().expect("server thread") {
        assert!(s.expect("rank summary").degraded.is_none());
    }
}

fn bits(m: &Matrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One pool-mutation path: a seeded Add / Remove / Label script, committed
/// in batches of one to three updates through `StreamingState::commit` and
/// replayed update by update through `apply_mutation` (each id mapped to
/// its pool position at that point of the batch), leaves bitwise-equal pool
/// and labeled panels after every batch.
#[test]
fn streaming_commits_and_serve_mutations_edit_the_pool_alike() {
    let comm = SelfComm::new();
    let mut shadow = problem();
    let (d, cm1) = (shadow.dim(), shadow.nblocks());
    let weights = vec![0.05; shadow.pool_size()];
    let mut st = StreamingState::new(&comm, &shadow, &weights, &FiralConfig::default());
    let mut ids = st.ids();
    let mut next_id = ids.len() as u64;
    // splitmix64: a seeded script without a dependency.
    let mut state = 0x5eed_u64;
    let mut draw = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
    for step in 0..40 {
        let mut batch = Vec::new();
        let mut mutations = Vec::new();
        for _ in 0..1 + draw() % 3 {
            let kind = if ids.len() <= 8 { 0 } else { draw() % 3 };
            if kind == 0 {
                let x: Vec<f64> = (0..d).map(|_| 2.0 * unit(draw()) - 1.0).collect();
                let h: Vec<f64> = (0..cm1).map(|_| 0.1 + 0.3 * unit(draw())).collect();
                mutations.push(PoolMutation::Add {
                    xs: Matrix::from_vec(1, d, x.clone()),
                    hs: Matrix::from_vec(1, cm1, h.clone()),
                });
                batch.push(PoolUpdate::Add { x, h, weight: 0.05 });
                ids.push(next_id);
                next_id += 1;
            } else {
                let pos = (draw() % ids.len() as u64) as usize;
                let id = ids.remove(pos);
                if kind == 1 {
                    batch.push(PoolUpdate::Remove { id });
                    mutations.push(PoolMutation::Remove { indices: vec![pos] });
                } else {
                    batch.push(PoolUpdate::Label { id });
                    mutations.push(PoolMutation::Label { indices: vec![pos] });
                }
            }
        }
        st.commit(&comm, &batch);
        for m in &mutations {
            proto::apply_mutation(&mut shadow, m).unwrap();
        }
        let p = st.problem();
        assert_eq!(st.ids(), ids, "step {step}: ids");
        assert_eq!(bits(&p.pool_x), bits(&shadow.pool_x), "step {step}: pool_x");
        assert_eq!(bits(&p.pool_h), bits(&shadow.pool_h), "step {step}: pool_h");
        assert_eq!(
            bits(&p.labeled_x),
            bits(&shadow.labeled_x),
            "step {step}: labeled_x"
        );
        assert_eq!(
            bits(&p.labeled_h),
            bits(&shadow.labeled_h),
            "step {step}: labeled_h"
        );
    }
    assert!(
        shadow.labeled_x.rows() > problem().labeled_x.rows(),
        "the script labeled nothing"
    );
}
