//! The lint gate over this workspace.
//!
//! The source rules (DESIGN.md "Lints") are clippy lints, set to `deny` in
//! the root manifest's `[workspace.lints.clippy]` table, with the banned
//! types and methods in `clippy.toml`, plus the two text rules of
//! `support/rules.rs`. These tests run clippy the way CI does, show that
//! the configuration and the arith rule catch planted violations, and
//! hold every manifest to the shared table.

pub mod support;

use std::fs;

use support::clippy::{clippy, diagnostics, lint_table, planted_crate};
use support::root;
use support::rules::arith_findings;

#[test]
fn this_workspace_is_clean() {
    let out = clippy(&root(), "clippy-workspace", &["--workspace", "--all-targets", "--", "-D", "warnings"]);
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn seeded_violation_is_caught() {
    let planted = "pub fn map() -> std::collections::HashMap<u32, u32> { Default::default() }\n\
                   pub fn first(v: &[u32]) -> u32 { *v.first().unwrap() }\n\
                   pub fn narrow(x: u64) -> u32 { x as u32 }\n";
    let dir = planted_crate("lint-planted", &[("lib.rs", planted)]);
    let out = clippy(&dir, "clippy-planted", &["--message-format=json"]);
    assert!(!out.status.success(), "clippy passed the planted violations");
    let found = diagnostics(&String::from_utf8_lossy(&out.stdout));
    for (line, lint) in [(1, "disallowed_types"), (2, "unwrap_used"), (3, "cast_possible_truncation")] {
        assert!(
            found.iter().any(|d| d.line == line && d.code == format!("clippy::{lint}")),
            "clippy did not report clippy::{lint} at line {line}: {found:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn planted_unchecked_presented_counter_is_caught() {
    // The barrier's `presented` counter is one the paper's access counts
    // are built from; an unchecked increment appended to the real source
    // must be caught at exactly that line.
    let path = root().join("crates/core/src/barrier.rs");
    let mut text = fs::read_to_string(path).unwrap();
    let lines = text.lines().count();
    text.push_str("fn planted(s: &mut Stats) {\n    s.presented += 1;\n}\n");
    let findings = arith_findings(&text);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, lines + 2, "{findings:?}");
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    // Cargo inherits `[lints]` whole or not at all, so a crate without
    // `[lints] workspace = true` silently drops every rule.
    let root = root();
    assert!(lint_table().lines().count() > 1, "the root lint table is empty");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        manifests.push(entry.unwrap().path().join("Cargo.toml"));
    }
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} must opt into the workspace lints with `[lints] workspace = true`",
            manifest.display()
        );
    }
}
