//! Two `--quick` runs at one seed do exactly the same work: identical exact
//! counts (CG and mirror-descent iterations, collective calls and bytes,
//! flops) and identical selections on every workload.
//! `compare` refuses quick results.

use std::process::Command;

use firal_benchmark::json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_firal-benchmark");
/// The benchmark writes under `benchmark/out` of the directory it runs in.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn quick_run(out: &str) -> Json {
    let status = Command::new(EXE)
        .current_dir(REPO_ROOT)
        .args(["run", "--quick", "--seed", "11", "--out", out])
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "quick run failed: {status}");
    let text = std::fs::read_to_string(format!("{REPO_ROOT}/{out}")).expect("result file");
    Json::parse(&text).expect("result file parses")
}

#[test]
fn quick_runs_repeat_their_counts_and_selections() {
    let a = quick_run("benchmark/out/quick_a.json");
    let b = quick_run("benchmark/out/quick_b.json");
    assert_eq!(a.get("quick"), Some(&Json::Bool(true)));
    assert_eq!(a.get("claim"), Some(&Json::Null));

    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    assert_eq!(workloads.len(), 5);
    for (name, in_a) in workloads {
        let in_b = b.get("workloads").and_then(|w| w.get(name)).expect(name);
        assert_eq!(in_a.get("failed"), Some(&Json::Num(0.0)), "{name}");
        let counts = in_a.get("counts").and_then(Json::as_obj).expect("counts");
        assert_eq!(counts.len(), 5, "{name}");
        assert_eq!(in_a.get("counts"), in_b.get("counts"), "{name}");
        assert_eq!(
            in_a.get("selection_hash"),
            in_b.get("selection_hash"),
            "{name}"
        );
    }

    let refused = Command::new(EXE)
        .current_dir(REPO_ROOT)
        .args([
            "compare",
            "benchmark/out/quick_a.json",
            "benchmark/out/quick_b.json",
        ])
        .output()
        .expect("compare runs");
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--quick"));
}
