//! `firal-lint`: contract-enforcing static analysis for the firal workspace.
//!
//! The workspace's central claim — bitwise-identical results across SIMD
//! tiers, thread counts, and communication backends — rests on a handful of
//! source-level conventions that the compiler cannot check: no fused
//! multiply-add in kernel code, no hash-ordered iteration in
//! determinism-critical crates, no thread-count-dependent algorithm shapes,
//! documented safety reasoning next to every `unsafe`, feature-gated code
//! kept behind the runtime-checked dispatcher, and a documented determinism
//! guarantee on every public collective. This crate turns each convention
//! into a named, allowlistable rule over a hand-rolled lexical scan — no
//! rustc plumbing, no external dependencies, fast enough to run on every
//! commit.
//!
//! # How it works
//!
//! [`split_lanes`] performs a small lexical pass that splits every source
//! line into a *code lane* and a *comment lane*, masking out string and
//! character literals so a rule can match tokens without being fooled by
//! text. Each [`Rule`] then runs over the lanes of the files in its scope;
//! a site can be exempted with an inline pragma
//!
//! ```text
//! // lint: allow(rule-id) reason the contract still holds here
//! ```
//!
//! on the finding line or the line directly above it. The reason is
//! mandatory: a pragma with a missing or placeholder (`TODO`-style) reason
//! is itself a finding, so `--fix` (which inserts pragma *stubs*) cannot
//! silently green a build.
//!
//! The contracts themselves are catalogued in the repo-root
//! `ARCHITECTURE.md` ("Determinism contracts and how they are enforced").

#![deny(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One enforced contract. `firal-lint` reports findings as
/// `file:line: rule-id: message`; [`Rule::id`] is the stable `rule-id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Every `unsafe` token must carry nearby `SAFETY`/`# Safety` prose.
    UnsafeSafety,
    /// No `HashMap`/`HashSet` in determinism-critical crates.
    HashOrder,
    /// No thread-count queries in algorithm code.
    ThreadCount,
    /// No fused multiply-add in kernel code.
    Fma,
    /// `#[target_feature]` only as an `unsafe fn` behind the dispatcher.
    TargetFeature,
    /// Every public collective documents its determinism guarantee.
    CollectiveDoc,
    /// No `unwrap`/`expect` on wire I/O in the comm crate's survivable
    /// paths: failures must become structured `CommError`s.
    CommUnwrap,
    /// Allow-pragmas must name a known rule and carry a real reason.
    Pragma,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::UnsafeSafety,
        Rule::HashOrder,
        Rule::ThreadCount,
        Rule::Fma,
        Rule::TargetFeature,
        Rule::CollectiveDoc,
        Rule::CommUnwrap,
        Rule::Pragma,
    ];

    /// Stable identifier used in reports and allow-pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::HashOrder => "hash-order",
            Rule::ThreadCount => "thread-count",
            Rule::Fma => "fma",
            Rule::TargetFeature => "target-feature",
            Rule::CollectiveDoc => "collective-doc",
            Rule::CommUnwrap => "comm-unwrap",
            Rule::Pragma => "pragma",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "every `unsafe` needs an adjacent or attached SAFETY comment",
            Rule::HashOrder => {
                "no HashMap/HashSet in crates/{cluster,comm,core,linalg,logreg,serve,solvers}: \
                 iteration order is unspecified"
            }
            Rule::ThreadCount => {
                "no thread-count queries in algorithm code: chunking must be \
                 shape-only"
            }
            Rule::Fma => {
                "no FMA in kernel code: the contract pins two-rounding \
                 multiply-then-add"
            }
            Rule::TargetFeature => {
                "#[target_feature] fns must be unsafe and live behind the \
                 checked SIMD dispatcher"
            }
            Rule::CollectiveDoc => {
                "every public collective on Communicator documents its \
                 determinism guarantee"
            }
            Rule::CommUnwrap => {
                "no unwrap/expect on wire I/O in crates/comm/src: survivable \
                 failures must surface as structured CommErrors"
            }
            Rule::Pragma => "allow-pragmas must name a known rule and give a real reason",
        }
    }

    /// Parse a `rule-id` back into a [`Rule`].
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

/// One lint finding, anchored to a repo-relative file and 1-based line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// The code and comment lanes of one source line, string/char literals
/// masked out of the code lane (delimiters kept, contents blanked).
#[derive(Debug, Default, Clone)]
pub struct Lanes {
    /// Code text with literals masked.
    pub code: String,
    /// Comment text, markers included (`//`, `///`, `/* … */`, …).
    pub comment: String,
}

#[derive(Debug, Clone, Copy)]
enum ScanState {
    Code,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    CharLit,
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Split source text into per-line code/comment lanes.
///
/// The scan understands line and (nested) block comments, plain, raw, byte
/// and byte-raw strings, character literals, and lifetimes (`'a` is code,
/// `'a'` is a masked literal). It is a lexical approximation — exactly what
/// the token-level rules need, with no parser dependency.
pub fn split_lanes(src: &str) -> Vec<Lanes> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Lanes::default();
    let mut state = ScanState::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; every other state persists.
            if matches!(state, ScanState::LineComment) {
                state = ScanState::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            ScanState::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = ScanState::LineComment;
                    cur.comment.push(c);
                    i += 1;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(1);
                    cur.comment.push_str("/*");
                    i += 2;
                    continue;
                }
                // Raw-string openings: (b?)r(#*)", with `r` not glued to a
                // preceding identifier.
                let prev_word =
                    i > 0 && chars[i - 1].is_ascii() && is_word_byte(chars[i - 1] as u8);
                if (c == 'r' || c == 'b') && !prev_word {
                    let mut j = i;
                    if chars.get(j) == Some(&'b') {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'r') {
                        j += 1;
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            for k in i..=j {
                                cur.code.push(chars[k]);
                            }
                            state = ScanState::Str {
                                raw_hashes: Some(hashes),
                            };
                            i = j + 1;
                            continue;
                        }
                    }
                    cur.code.push(c);
                    i += 1;
                    continue;
                }
                if c == '"' {
                    cur.code.push('"');
                    state = ScanState::Str { raw_hashes: None };
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // `'\…'` and `'x'` are char literals; `'ident` is a
                    // lifetime and stays in the code lane.
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        cur.code.push('\'');
                        state = ScanState::CharLit;
                        i += 1;
                        continue;
                    }
                    cur.code.push('\'');
                    i += 1;
                    continue;
                }
                cur.code.push(c);
                i += 1;
            }
            ScanState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            ScanState::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth > 1 {
                        ScanState::BlockComment(depth - 1)
                    } else {
                        ScanState::Code
                    };
                    cur.comment.push_str("*/");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            ScanState::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        // A string-continuation escape (`\` before the line
                        // break) must leave the newline for the top-level
                        // handler, or every later finding and pragma would
                        // drift off the editor's line numbers.
                        if chars.get(i + 1) == Some(&'\n') {
                            cur.code.push(' ');
                            i += 1;
                        } else {
                            cur.code.push_str("  ");
                            i += 2;
                        }
                    } else if c == '"' {
                        cur.code.push('"');
                        state = ScanState::Code;
                        i += 1;
                    } else {
                        cur.code.push(' ');
                        i += 1;
                    }
                }
                Some(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes as usize {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            cur.code.push('"');
                            for _ in 0..hashes {
                                cur.code.push('#');
                            }
                            state = ScanState::Code;
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    cur.code.push(' ');
                    i += 1;
                }
            },
            ScanState::CharLit => {
                if c == '\\' {
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = ScanState::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Whole-word occurrence of `word` (ASCII) in masked code text.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let b = start + pos;
        let e = b + word.len();
        let before_ok = b == 0 || !is_word_byte(bytes[b - 1]);
        let after_ok = e >= bytes.len() || !is_word_byte(bytes[e]);
        if before_ok && after_ok {
            return true;
        }
        start = b + 1;
    }
    false
}

fn comment_has_safety(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("# Safety")
}

/// Is a SAFETY note visible from line `i` — within ±2 lines, or anywhere in
/// the contiguous doc/attribute block attached above the item?
fn safety_near(lanes: &[Lanes], i: usize) -> bool {
    let lo = i.saturating_sub(2);
    let hi = (i + 2).min(lanes.len().saturating_sub(1));
    if lanes[lo..=hi]
        .iter()
        .any(|l| comment_has_safety(&l.comment))
    {
        return true;
    }
    attached_block_above(lanes, i, comment_has_safety)
}

/// Walk upward through the doc-comment/attribute lines attached to the item
/// on line `i`, returning whether any comment satisfies `pred`.
fn attached_block_above(lanes: &[Lanes], i: usize, pred: fn(&str) -> bool) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = lanes[j].code.trim();
        let comment = &lanes[j].comment;
        let blank = code.is_empty() && comment.is_empty();
        let attached = code.is_empty() || code.starts_with("#[") || code.starts_with("#!");
        if blank || !attached {
            return false;
        }
        if pred(comment) {
            return true;
        }
    }
    false
}

/// A parsed `// lint: allow(rule-id) reason` pragma.
#[derive(Debug, Clone)]
struct PragmaAt {
    line: usize, // 1-based
    rule_id: String,
}

/// Parse the allow-pragma on one comment lane, if any. The pragma must be
/// the start of the comment (after the marker), so prose that merely
/// *mentions* the syntax does not count.
fn parse_pragma(comment: &str) -> Option<(String, String)> {
    let body = comment
        .trim_start()
        .trim_start_matches('/')
        .trim_start_matches(['!', '*'])
        .trim_start();
    let rest = body.strip_prefix("lint:")?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule_id = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim().to_string();
    Some((rule_id, reason))
}

fn placeholder_reason(reason: &str) -> bool {
    let lower = reason.to_ascii_lowercase();
    ["todo", "fixme", "xxx", "tbd"]
        .iter()
        .any(|p| lower.contains(p))
}

/// Crates whose `src/` trees are in scope for the hash-order rule: the
/// layers where an unspecified iteration order could leak into numeric
/// results, collective schedules, or the serve layer's replicated pool log.
/// K-Means clustering and UPAL's per-step logistic re-fit run inside the
/// bitwise strategy contract, so their crates are in scope too.
const HASH_ORDER_SCOPE: [&str; 7] = [
    "crates/cluster/src/",
    "crates/comm/src/",
    "crates/core/src/",
    "crates/linalg/src/",
    "crates/logreg/src/",
    "crates/serve/src/",
    "crates/solvers/src/",
];

/// The collectives of `firal_comm::Communicator` that must document their
/// determinism guarantee. Kept in sync by the rule itself: a missing name
/// is reported as drift.
const COLLECTIVES: [&str; 12] = [
    "try_barrier",
    "try_allreduce_f64",
    "try_bcast_f64",
    "try_allgatherv_f64",
    "try_allreduce_maxloc",
    "try_split",
    "barrier",
    "allreduce_f64",
    "bcast_f64",
    "allgatherv_f64",
    "allreduce_maxloc",
    "split",
];

/// Substrings marking a code lane as wire/socket I/O for the comm-unwrap
/// rule. Prefix tokens (`read_`, `write_`, `hub_`) deliberately match any
/// method in that family; `writeln!`-style formatting macros do not match.
const COMM_IO_TOKENS: [&str; 15] = [
    "read_",
    "write_",
    "flush",
    "connect",
    "bind",
    "accept",
    "shutdown",
    "try_clone",
    "local_addr",
    "set_nodelay",
    "set_read_timeout",
    "set_write_timeout",
    "expect_scope",
    "expect_magic",
    "hub_",
];

/// Lint one file's source text. `rel` is the repo-relative path with `/`
/// separators; it scopes the path-dependent rules.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let lanes = split_lanes(src);
    let mut findings = Vec::new();
    let mut pragmas: Vec<PragmaAt> = Vec::new();

    for (idx, lane) in lanes.iter().enumerate() {
        let line = idx + 1;
        if let Some((rule_id, reason)) = parse_pragma(&lane.comment) {
            match Rule::from_id(&rule_id) {
                None => findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: Rule::Pragma,
                    message: format!("allow-pragma names unknown rule `{rule_id}`"),
                }),
                Some(_) if reason.is_empty() => findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: Rule::Pragma,
                    message: format!(
                        "allow({rule_id}) pragma has no reason; say why the \
                         contract still holds at this site"
                    ),
                }),
                Some(_) if placeholder_reason(&reason) => findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: Rule::Pragma,
                    message: format!(
                        "allow({rule_id}) pragma reason looks like a \
                         placeholder ({reason:?}); write the real justification"
                    ),
                }),
                Some(_) => {}
            }
            // Even a placeholder pragma suppresses its base rule: the
            // pragma finding above is the single actionable item left.
            pragmas.push(PragmaAt { line, rule_id });
        }
    }

    let mut raw = Vec::new();
    rule_unsafe_safety(rel, &lanes, &mut raw);
    rule_hash_order(rel, &lanes, &mut raw);
    rule_thread_count(rel, &lanes, &mut raw);
    rule_fma(rel, &lanes, &mut raw);
    rule_target_feature(rel, &lanes, &mut raw);
    rule_collective_doc(rel, &lanes, &mut raw);
    rule_comm_unwrap(rel, &lanes, &mut raw);

    // A pragma covers its own line and the line below it.
    let allowed = |f: &Finding| {
        pragmas
            .iter()
            .any(|p| p.rule_id == f.rule.id() && (p.line == f.line || p.line + 1 == f.line))
    };
    findings.extend(raw.into_iter().filter(|f| !allowed(f)));
    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

fn push(findings: &mut Vec<Finding>, rel: &str, line: usize, rule: Rule, message: String) {
    findings.push(Finding {
        file: rel.to_string(),
        line,
        rule,
        message,
    });
}

fn rule_unsafe_safety(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    for (idx, lane) in lanes.iter().enumerate() {
        if has_word(&lane.code, "unsafe") && !safety_near(lanes, idx) {
            push(
                out,
                rel,
                idx + 1,
                Rule::UnsafeSafety,
                "`unsafe` without a SAFETY note nearby; add a `// SAFETY:` \
                 comment (or a `# Safety` doc section) stating why the \
                 invariants hold"
                    .to_string(),
            );
        }
    }
}

fn rule_hash_order(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    if !HASH_ORDER_SCOPE.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for (idx, lane) in lanes.iter().enumerate() {
        if has_word(&lane.code, "HashMap") || has_word(&lane.code, "HashSet") {
            push(
                out,
                rel,
                idx + 1,
                Rule::HashOrder,
                "hash-ordered container in a determinism-critical crate: \
                 iteration order is unspecified and can leak into results; \
                 use BTreeMap/BTreeSet, or justify why order cannot leak"
                    .to_string(),
            );
        }
    }
}

fn rule_thread_count(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    for (idx, lane) in lanes.iter().enumerate() {
        if has_word(&lane.code, "current_num_threads") || lane.code.contains("ThreadPool::threads")
        {
            push(
                out,
                rel,
                idx + 1,
                Rule::ThreadCount,
                "thread-count query: algorithm shapes must not depend on the \
                 worker count (reduction chunking is shape-only); justify \
                 telemetry or pool-sizing uses with an allow-pragma"
                    .to_string(),
            );
        }
    }
}

fn rule_fma(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    if !rel.starts_with("crates/linalg/src/") {
        return;
    }
    for (idx, lane) in lanes.iter().enumerate() {
        let fused_intrinsic = ["fmadd", "fmsub", "vfma", "vmla"]
            .iter()
            .any(|t| lane.code.contains(t));
        if has_word(&lane.code, "mul_add") || fused_intrinsic {
            push(
                out,
                rel,
                idx + 1,
                Rule::Fma,
                "fused multiply-add in kernel code: the determinism contract \
                 pins two-rounding multiply-then-add so every SIMD tier \
                 matches the one-lane `off` tier bitwise"
                    .to_string(),
            );
        }
    }
}

fn rule_target_feature(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    for (idx, lane) in lanes.iter().enumerate() {
        if !lane.code.contains("#[target_feature") {
            continue;
        }
        if !rel.contains("/simd/") {
            push(
                out,
                rel,
                idx + 1,
                Rule::TargetFeature,
                "#[target_feature] outside the checked SIMD dispatch module; \
                 keep feature-gated code behind the runtime-verified \
                 dispatcher in src/simd/"
                    .to_string(),
            );
        }
        let follows_unsafe_fn = lanes[idx + 1..]
            .iter()
            .take(3)
            .any(|l| has_word(&l.code, "unsafe") && has_word(&l.code, "fn"));
        if !follows_unsafe_fn {
            push(
                out,
                rel,
                idx + 1,
                Rule::TargetFeature,
                "#[target_feature] must annotate an `unsafe fn`: a safe \
                 feature-gated fn could be called without the runtime check"
                    .to_string(),
            );
        }
    }
}

fn rule_collective_doc(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    if rel != "crates/comm/src/communicator.rs" {
        return;
    }
    let Some(start) = lanes
        .iter()
        .position(|l| l.code.contains("trait Communicator"))
    else {
        push(
            out,
            rel,
            1,
            Rule::CollectiveDoc,
            "`trait Communicator` not found; update firal-lint if the trait \
             moved"
                .to_string(),
        );
        return;
    };
    let mut depth: i32 = 0;
    let mut seen = [false; COLLECTIVES.len()];
    for (idx, lane) in lanes.iter().enumerate().skip(start) {
        let depth_before = depth;
        for c in lane.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if idx > start && depth_before == 0 {
            break; // end of the trait item
        }
        if depth_before != 1 {
            continue;
        }
        let code = lane.code.trim();
        let Some(name_on) = code.strip_prefix("fn ") else {
            continue;
        };
        let name: String = name_on
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let Some(slot) = COLLECTIVES.iter().position(|c| *c == name) else {
            continue;
        };
        seen[slot] = true;
        let documented = attached_block_above(lanes, idx, |c| c.contains("Determinism"));
        if !documented {
            push(
                out,
                rel,
                idx + 1,
                Rule::CollectiveDoc,
                format!(
                    "collective `{name}` must document its determinism \
                     guarantee (a `Determinism:` paragraph in its doc comment)"
                ),
            );
        }
    }
    for (slot, name) in COLLECTIVES.iter().enumerate() {
        if !seen[slot] {
            push(
                out,
                rel,
                start + 1,
                Rule::CollectiveDoc,
                format!(
                    "expected collective `{name}` not found in `trait \
                     Communicator`; update firal-lint's collective list if it \
                     was renamed"
                ),
            );
        }
    }
}

/// In `crates/comm/src`, an `.unwrap()`/`.expect(` on the same code lane as
/// a wire-I/O call is a contract violation: once the mesh exists, an I/O
/// failure is *survivable* and must be diagnosed as a structured
/// `CommError` (with an abort broadcast), never a local panic that leaves
/// peers hanging until their deadline. Bootstrap sites (no mesh yet) and
/// other genuinely-fatal paths take an allow-pragma with a reason. The scan
/// stops at `#[cfg(test)]` — test code intentionally asserts on I/O.
fn rule_comm_unwrap(rel: &str, lanes: &[Lanes], out: &mut Vec<Finding>) {
    if !rel.starts_with("crates/comm/src/") {
        return;
    }
    for (idx, lane) in lanes.iter().enumerate() {
        if lane.code.contains("#[cfg(test)]") {
            break;
        }
        let unwrapping = lane.code.contains(".unwrap()") || lane.code.contains(".expect(");
        if unwrapping && COMM_IO_TOKENS.iter().any(|t| lane.code.contains(t)) {
            push(
                out,
                rel,
                idx + 1,
                Rule::CommUnwrap,
                "unwrap/expect on wire I/O in the comm crate: a post-rendezvous \
                 failure is survivable and must surface as a structured \
                 CommError (see the Failure model in ARCHITECTURE.md); \
                 bootstrap-only sites take an allow-pragma with a reason"
                    .to_string(),
            );
        }
    }
}

/// Directory names never descended into: build output, VCS metadata,
/// deliberately-broken lint fixtures, and the vendored offline compat
/// stand-ins (external code, not ours to lint).
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "compat"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, files)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// All lintable `.rs` files under `root` (the `crates/` and `src/` trees),
/// sorted, with the skip list (build output, VCS metadata, lint fixtures,
/// vendored compat stand-ins) pruned.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    Ok(files)
}

/// Lint every file in the workspace rooted at `root`, in path order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Insert allow-pragma stubs above each finding line (`--fix`). Returns the
/// rewritten text and the number of stubs inserted. Pragma-hygiene findings
/// are skipped — a bad reason can only be fixed by writing a real one — and
/// the inserted stubs carry a placeholder reason, so the file still fails
/// the pragma rule until a human justifies each site.
pub fn apply_fix_stubs(src: &str, findings: &[Finding]) -> (String, usize) {
    let mut sites: Vec<(usize, Rule)> = findings
        .iter()
        .filter(|f| f.rule != Rule::Pragma)
        .map(|f| (f.line, f.rule))
        .collect();
    sites.sort();
    sites.dedup();
    let mut lines: Vec<String> = src.lines().map(String::from).collect();
    let mut count = 0;
    // Splice in reverse line order so earlier indices stay valid.
    for &(line, rule) in sites.iter().rev() {
        if line == 0 || line > lines.len() {
            continue;
        }
        let indent: String = lines[line - 1]
            .chars()
            .take_while(|c| *c == ' ' || *c == '\t')
            .collect();
        let stub = format!(
            "{indent}// lint: allow({}) TODO: justify why the contract holds here",
            rule.id()
        );
        lines.insert(line - 1, stub);
        count += 1;
    }
    let mut text = lines.join("\n");
    if src.ends_with('\n') {
        text.push('\n');
    }
    (text, count)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize findings as a JSON report (`--format=json`).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"count\":");
    out.push_str(&findings.len().to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule.id(),
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_split_comments_and_mask_strings() {
        let src = "let x = \"HashMap // not code\"; // HashMap in prose\n";
        let lanes = split_lanes(src);
        assert_eq!(lanes.len(), 1);
        assert!(!lanes[0].code.contains("HashMap"));
        assert!(lanes[0].comment.contains("HashMap"));
        assert!(lanes[0].code.contains("let x"));
    }

    #[test]
    fn lanes_handle_lifetimes_and_char_literals() {
        let lanes = split_lanes("fn f<'a>(x: &'a str) -> char { 'b' }\n");
        assert!(lanes[0].code.contains("'a>"));
        assert!(!lanes[0].code.contains("'b'"));
        let lanes = split_lanes("let c = '\\n'; let s: &'static str = \"y\";\n");
        assert!(lanes[0].code.contains("'static"));
    }

    #[test]
    fn lanes_handle_raw_strings_and_block_comments() {
        let src = "let j = r#\"unsafe { \"quoted\" }\"#; /* unsafe\nstill comment */ let k = 1;\n";
        let lanes = split_lanes(src);
        assert_eq!(lanes.len(), 2);
        assert!(!has_word(&lanes[0].code, "unsafe"));
        assert!(lanes[0].comment.contains("unsafe"));
        assert!(lanes[1].comment.contains("still comment"));
        assert!(lanes[1].code.contains("let k"));
    }

    #[test]
    fn word_matching_respects_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("deny(unsafe_op_in_unsafe_fn)", "unsafe"));
        assert!(has_word("x.mul_add(y, z)", "mul_add"));
        assert!(!has_word("smul_adder", "mul_add"));
    }

    #[test]
    fn pragma_parsing_requires_leading_position() {
        assert_eq!(
            parse_pragma("// lint: allow(fma) kernel-free scratch code"),
            Some(("fma".to_string(), "kernel-free scratch code".to_string()))
        );
        // Prose mentioning the syntax mid-comment is not a pragma.
        assert_eq!(parse_pragma("// write `// lint: allow(fma) x` here"), None);
    }

    #[test]
    fn fix_stub_suppresses_base_finding_but_fails_pragma_rule() {
        let rel = "crates/linalg/src/scratch.rs";
        let src = "fn f(x: f64, y: f64, z: f64) -> f64 {\n    x.mul_add(y, z)\n}\n";
        let before = lint_source(rel, src);
        assert_eq!(before.len(), 1);
        assert_eq!(before[0].rule, Rule::Fma);
        let (fixed, n) = apply_fix_stubs(src, &before);
        assert_eq!(n, 1);
        let after = lint_source(rel, &fixed);
        assert_eq!(after.len(), 1, "{after:?}");
        assert_eq!(after[0].rule, Rule::Pragma);
    }

    #[test]
    fn json_report_is_escaped() {
        let findings = vec![Finding {
            file: "a \"b\".rs".to_string(),
            line: 3,
            rule: Rule::Fma,
            message: "line1\nline2".to_string(),
        }];
        let json = findings_to_json(&findings);
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("line1\\nline2"));
        assert!(json.starts_with("{\"count\":1,"));
    }
}
