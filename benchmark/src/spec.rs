//! The benchmark's vocabulary: workload names and every metric with its
//! unit. `BENCHMARK.json` carries the same lists; a unit test keeps the two
//! equal.

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "relax_bound",
    "round_bound",
    "mesh_p2",
    "serve_churn",
    "stream_churn",
];

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the baseline median by which it may worsen before `compare`
/// calls a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Every workload reports every one of these. The "operation" is the
/// workload's primary one: a selection (`relax_bound`, `round_bound`,
/// `mesh_p2` at p=2), a client-observed SELECT (`serve_churn`), a commit
/// followed by a select (`stream_churn`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A metric
/// that does not apply to a workload is reported as 0 there.
pub const PER_LAYER: [(&str, &str); 55] = [
    // data + logreg + serve upload -> setup_s
    ("data.generate_s", "s"),
    ("logreg.fit_s", "s"),
    ("serve.upload_ms", "ms"),
    // linalg probes at the workload's own (n, d, c), single-threaded
    ("linalg.gemm_at_b.gflops", "GF/s"),
    ("linalg.gram_weighted_multi.gflops", "GF/s"),
    ("linalg.eigvalsh.us_per_block", "us"),
    ("linalg.cholesky.factor_us_per_block", "us"),
    ("linalg.cholesky.rank1_us", "us"),
    // exact counts from counters::measure around one operation
    ("linalg.flops_per_select", "count"),
    ("linalg.alloc_bytes_per_select", "B"),
    ("linalg.achieved_gflops", "GF/s"),
    ("core.rss_over_model", "ratio"),
    // solvers
    ("solvers.cg.iters_per_select", "count"),
    ("core.md_iters_per_select", "count"),
    ("solvers.cg.ms_per_iter", "ms"),
    ("solvers.solve_nu.us", "us"),
    // comm: what the operation issued, then latency/bandwidth probes at p=2
    ("comm.calls_per_select", "count"),
    ("comm.bytes_per_select", "B"),
    ("comm.wait_s_per_select", "s"),
    ("comm.wait_share", "ratio"),
    ("comm.socket.allreduce_1k_us", "us"),
    ("comm.socket.allreduce_4m_mbps", "MB/s"),
    ("comm.socket.allgatherv_1k_us", "us"),
    ("comm.socket.maxloc_us", "us"),
    ("comm.socket.split_us", "us"),
    ("comm.thread.allreduce_1k_us", "us"),
    ("comm.thread.allreduce_4m_mbps", "MB/s"),
    ("comm.thread.allgatherv_1k_us", "us"),
    ("comm.thread.maxloc_us", "us"),
    ("comm.thread.split_us", "us"),
    // core: the two phases of a selection and what the entry point adds
    ("core.relax_s", "s"),
    ("core.eta_sweep_s", "s"),
    ("core.round_s_per_pick", "s"),
    ("core.select_self_s", "s"),
    ("core.relax_share", "ratio"),
    ("core.shard_ms", "ms"),
    ("core.dispatch_floor_us", "us"),
    ("core.scaling_eff_p2", "ratio"),
    ("core.baselines_ms_p50", "ms"),
    // core: streaming state
    ("core.stream.commit_us", "us"),
    ("core.stream.select_ms", "ms"),
    ("core.stream.rebuild_ms", "ms"),
    ("core.stream.refactors", "count"),
    ("core.stream.downdate_fallbacks", "count"),
    // serve
    ("serve.overhead_ms", "ms"),
    ("serve.mutate_ms_p50", "ms"),
    ("serve.rounds_per_request", "ratio"),
    ("serve.billed_bytes_per_request", "B"),
    ("serve.plan_round_us", "us"),
    ("serve.encode_pool_mbps", "MB/s"),
    ("serve.decode_pool_mbps", "MB/s"),
    ("serve.encode_mutation_us", "us"),
    // the benchmark itself
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.op_samples", "count"),
    // The tail is not an end-to-end metric: a `*_bound` run has under 20
    // samples, and in the host's noisy phases its p90 spread over ten seeds
    // was 0.27 against a largest allowed bound of 0.25.
    ("bench.op_ms_p90", "ms"),
];

/// Per-layer metrics that are exact counts of the program's work: equal
/// across runs of one commit at one seed (the determinism test), and the
/// only per-layer numbers a later claim may rest on.
///
/// `linalg.alloc_bytes_per_select` is not among them: it includes the
/// packed-panel staging the autotuned kernel plan may or may not choose, and
/// the autotuner times kernels, so it differs between runs.
pub const EXACT_COUNTS: [&str; 5] = [
    "linalg.flops_per_select",
    "solvers.cg.iters_per_select",
    "core.md_iters_per_select",
    "comm.calls_per_select",
    "comm.bytes_per_select",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for count in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == count), "{count}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn lists_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, want) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), want.name);
            assert_eq!(field(item, "unit"), want.unit);
            let better = if want.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(field(item, "better"), better, "{}", want.name);
            assert_eq!(item.get("bound").unwrap().as_f64(), Some(want.bound));
        }

        let per_layer: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(per_layer, want);
    }
}
