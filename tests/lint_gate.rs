//! The abs-lint gate over this workspace.
//!
//! The tree must lint clean, and the rules must still see the violations
//! they exist for: a determinism ban and an unchecked accounting counter,
//! each planted in memory into a real simulator source.

use abs_lint::rules::{scan_source, Rule, SourcePolicy};
use abs_lint::sem::{scan_file, ParsedFile};
use abs_lint::{default_root, lint_workspace};

/// Reads a workspace source and returns it with its line count.
fn real_source(rel: &str) -> (String, u32) {
    let path = default_root().join(rel);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let lines = u32::try_from(text.lines().count()).expect("source line count fits u32");
    (text, lines)
}

#[test]
fn this_workspace_is_clean() {
    // The acceptance gate: the tree the lint ships in passes its own
    // pass. Every historical finding was either fixed or explicitly
    // allowlisted with a justification.
    let report = lint_workspace(&default_root()).expect("lint runs");
    assert!(
        report.is_clean(),
        "the workspace must lint clean:\n{}",
        report.to_text()
    );
    assert!(report.files_scanned >= 80, "{}", report.files_scanned);
    assert!(
        report.manifests_scanned >= 11,
        "{}",
        report.manifests_scanned
    );
}

#[test]
fn seeded_violation_is_caught() {
    // Simulate reintroducing a HashMap into crates/coherence: scan the
    // real directory.rs source with one poisoned line appended under
    // the crate's real policy.
    let rel = "crates/coherence/src/directory.rs";
    let (mut text, line_count) = real_source(rel);
    text.push_str("use std::collections::HashMap;\n");
    let (findings, _) = scan_source(rel, &text, SourcePolicy::sim_crate());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::Determinism && f.line == line_count + 1),
        "{findings:?}"
    );
}

#[test]
fn planted_unchecked_presented_counter_is_caught() {
    // The barrier's `presented` counter is one the paper's access counts
    // are built from; an unchecked increment appended to the real source
    // must trip `arith` at exactly that line.
    let rel = "crates/core/src/barrier.rs";
    let (mut text, line_count) = real_source(rel);
    text.push_str("fn planted(s: &mut Stats) {\n    s.presented += 1;\n}\n");
    let pf = ParsedFile::parse(rel, &text, SourcePolicy::sim_crate());
    let findings = scan_file(&pf);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::Arith && f.line == line_count + 2),
        "{findings:?}"
    );
}
