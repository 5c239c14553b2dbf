//! Fixture self-tests for every `firal-lint` rule, plus the workspace
//! self-test: the repo's own source must lint clean with all rules enabled.

use std::path::Path;

use firal_lint::{find_workspace_root, lint_source, lint_workspace, Finding, Rule};

fn lines_of(findings: &[Finding], rule: Rule) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn unsafe_without_safety_note_is_flagged() {
    let src = include_str!("fixtures/unsafe_missing_safety.rs");
    let findings = lint_source("crates/comm/src/fixture.rs", src);
    assert_eq!(
        lines_of(&findings, Rule::UnsafeSafety),
        vec![1, 2],
        "{findings:?}"
    );
    assert_eq!(findings.len(), 2);
}

#[test]
fn hash_containers_are_scoped_to_determinism_critical_crates() {
    let src = include_str!("fixtures/hash_order.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    // Line 10 is covered by the allow-pragma on line 9; the comment-lane
    // mention on line 15 must not fire at all.
    assert_eq!(
        lines_of(&findings, Rule::HashOrder),
        vec![1, 4],
        "{findings:?}"
    );
    assert_eq!(findings.len(), 2);
    // The serve layer's replayed pool log is a bitwise contract too, and so
    // are K-Means and UPAL's logistic re-fit inside the strategy contract.
    for path in [
        "crates/serve/src/fixture.rs",
        "crates/cluster/src/fixture.rs",
        "crates/logreg/src/fixture.rs",
    ] {
        let scoped = lint_source(path, src);
        assert_eq!(
            lines_of(&scoped, Rule::HashOrder),
            vec![1, 4],
            "{path}: {scoped:?}"
        );
    }
    // Outside the scoped crates the rule is silent.
    let outside = lint_source("crates/bench/src/fixture.rs", src);
    assert!(lines_of(&outside, Rule::HashOrder).is_empty());
}

#[test]
fn thread_count_queries_need_a_pragma() {
    let src = include_str!("fixtures/thread_count.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(
        lines_of(&findings, Rule::ThreadCount),
        vec![2, 12],
        "{findings:?}"
    );
}

#[test]
fn fused_multiply_add_is_banned_in_kernel_code() {
    let src = include_str!("fixtures/fma.rs");
    let findings = lint_source("crates/linalg/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, Rule::Fma), vec![2, 7], "{findings:?}");
    // The scope is the crate's whole `src/` tree, so a kernel added to it
    // (the fused sweep's body under `simd/`, the Eq. 17 sweep beside
    // `gemm.rs`) is covered without being listed.
    for kernel in [
        "crates/linalg/src/simd/sweep.rs",
        "crates/linalg/src/quad.rs",
    ] {
        let findings = lint_source(kernel, src);
        assert_eq!(
            lines_of(&findings, Rule::Fma),
            vec![2, 7],
            "{kernel}: {findings:?}"
        );
    }
    // Outside crates/linalg the rule does not apply.
    let outside = lint_source("crates/solvers/src/fixture.rs", src);
    assert!(lines_of(&outside, Rule::Fma).is_empty());
}

#[test]
fn target_feature_must_wrap_unsafe_fns_behind_the_dispatcher() {
    let src = include_str!("fixtures/target_feature.rs");
    let inside = lint_source("crates/linalg/src/simd/fixture.rs", src);
    // The safe wrapper on line 1 is flagged; the proper one on line 8 is not.
    assert_eq!(
        lines_of(&inside, Rule::TargetFeature),
        vec![1],
        "{inside:?}"
    );
    let outside = lint_source("crates/linalg/src/fixture.rs", src);
    // Outside src/simd/ both attributes are out of place, and line 1 keeps
    // its missing-unsafe finding too.
    assert_eq!(
        lines_of(&outside, Rule::TargetFeature),
        vec![1, 1, 8],
        "{outside:?}"
    );
}

#[test]
fn collectives_must_document_determinism() {
    let src = include_str!("fixtures/collective_doc.rs");
    let findings = lint_source("crates/comm/src/communicator.rs", src);
    let doc = lines_of(&findings, Rule::CollectiveDoc);
    // bcast_f64 (line 13) lacks the paragraph; the six try_ collectives and
    // four of the infallible ones are missing from the fixture trait
    // entirely and are reported at the trait line.
    let mut expected = vec![2; 10];
    expected.push(13);
    assert_eq!(doc, expected, "{findings:?}");
    let missing: Vec<&str> = findings
        .iter()
        .filter(|f| f.line == 2)
        .map(|f| f.message.as_str())
        .collect();
    for name in [
        "`try_barrier`",
        "`try_allreduce_f64`",
        "`try_bcast_f64`",
        "`try_allgatherv_f64`",
        "`try_allreduce_maxloc`",
        "`try_split`",
        "`barrier`",
        "`allgatherv_f64`",
        "`allreduce_maxloc`",
        "`split`",
    ] {
        assert!(missing.iter().any(|m| m.contains(name)), "{missing:?}");
    }
    // The rule only applies to the real communicator.rs path.
    let elsewhere = lint_source("crates/comm/src/other.rs", src);
    assert!(lines_of(&elsewhere, Rule::CollectiveDoc).is_empty());
}

#[test]
fn comm_unwrap_flags_wire_io_outside_bootstrap_and_tests() {
    let src = include_str!("fixtures/comm_unwrap.rs");
    let findings = lint_source("crates/comm/src/fixture.rs", src);
    // write_all / flush / try_clone unwraps are findings; the pragma'd
    // bootstrap bind, the Option unwrap, comment/string mentions, and
    // everything after `#[cfg(test)]` are not.
    assert_eq!(
        lines_of(&findings, Rule::CommUnwrap),
        vec![9, 10, 11],
        "{findings:?}"
    );
    assert_eq!(findings.len(), 3, "{findings:?}");
    // Outside crates/comm/src the rule is silent.
    let outside = lint_source("crates/bench/src/fixture.rs", src);
    assert!(lines_of(&outside, Rule::CommUnwrap).is_empty());
}

#[test]
fn near_misses_stay_quiet() {
    let src = include_str!("fixtures/clean.rs");
    let findings = lint_source("crates/linalg/src/clean.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn pragmas_with_placeholder_reasons_are_flagged() {
    let src = "\
// lint: allow(fma) TODO: justify why the contract holds here
fn f(x: f64) -> f64 { x.mul_add(x, x) }
// lint: allow(nonexistent-rule) some reason
// lint: allow(fma)
";
    let findings = lint_source("crates/linalg/src/fixture.rs", src);
    let pragma = lines_of(&findings, Rule::Pragma);
    assert_eq!(pragma, vec![1, 3, 4], "{findings:?}");
    // The TODO pragma still suppresses the base fma finding: the pragma
    // finding is the single actionable item per site.
    assert!(lines_of(&findings, Rule::Fma).is_empty());
}

#[test]
fn workspace_lints_clean_with_every_rule_enabled() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest).expect("workspace root above crates/lint");
    let findings = lint_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
