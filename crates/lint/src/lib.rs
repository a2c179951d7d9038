//! **abs-lint** — a hermetic static-analysis pass for the workspace.
//!
//! Everything this reproduction claims — bit-identical cycle/event
//! kernels, seeded replay, byte-identical traces at any `--jobs` count —
//! rests on *source-level* rules that the dynamic suites
//! (`kernel_equivalence`, `trace_identity`) can only sample. This crate
//! enforces those rules statically, with zero external dependencies like
//! the rest of the workspace:
//!
//! * **determinism** — simulation crates must not use unordered
//!   collections, wall clocks, or unseeded randomness ([`rules`]).
//! * **hermeticity** — every `Cargo.toml` keeps the dependency closure
//!   inside the repository ([`manifest`]).
//! * **panic-path** — library non-test code must not `.unwrap()` /
//!   `.expect(…)` without a written-down invariant ([`rules`]).
//! * **unsafe-audit** — every `unsafe` carries a `SAFETY:` comment
//!   ([`rules`]).
//! * **arith** — no truncating casts or unchecked `+`/`*` on the
//!   accounting counters the exhibits are built from ([`sem`]).
//! * **contract-xref** — every simulator with a `run_with` is named by a
//!   kernel-equivalence test ([`sem`]).
//! * **allow-grammar** / **stale-allow** — every escape hatch is
//!   well-formed, justified, and still suppresses something.
//!
//! Every rule is an error: any finding fails the run.
//!
//! Scanning is built on a hand-rolled, lossless Rust [`tokenizer`] that is
//! comment-, string-, raw-string- and char-literal-aware, so a forbidden
//! name inside a doc comment or a string never produces a false positive.
//! Each rule is individually toggleable per finding site with an in-source
//! escape hatch (grammar and catalog in `DESIGN.md` §10). Reports render
//! as `file:line` text diagnostics and as a JSON document written to
//! `repro_out/lint_report.json` ([`report`]).
//!
//! Run it as `repro lint` from the bench harness (add `--json` for the
//! report file).
//!
//! # Examples
//!
//! ```
//! use abs_lint::rules::{scan_source, Rule, SourcePolicy};
//!
//! let src = "use std::collections::HashMap;\n";
//! let (findings, _) = scan_source("demo.rs", src, SourcePolicy::sim_crate());
//! assert_eq!(findings[0].rule, Rule::Determinism);
//! assert_eq!(findings[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sem;
pub mod tokenizer;
pub mod workspace;

use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{Allow, Finding, Rule, SourcePolicy};
pub use workspace::Workspace;

/// The workspace root this crate was built in (callers outside the repo
/// pass their own root to [`lint_workspace`]).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs every rule over the workspace rooted at `root`.
///
/// Two-phase: first every source is tokenized, parsed, and scanned raw
/// (token rules + semantic rules over the AST); then allow directives
/// are applied uniformly, and any directive that suppressed *nothing* in
/// the raw set becomes a [`Rule::StaleAllow`] finding — the escape
/// hatches can never outlive the findings they justify.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let ws = Workspace::discover(root)?;
    let mut findings = ws.findings.clone();
    let mut allows = Vec::new();
    let mut parsed: Vec<sem::ParsedFile> = Vec::new();

    for entry in &ws.sources {
        let text = std::fs::read_to_string(&entry.path)
            .map_err(|e| format!("cannot read {}: {e}", entry.path.display()))?;
        let pf = sem::ParsedFile::parse(&entry.rel, &text, entry.policy);
        let (f, a) = rules::scan_tokens(&pf);
        findings.extend(f);
        allows.extend(a);
        findings.extend(sem::scan_file(&pf));
        parsed.push(pf);
    }
    for (path, rel) in &ws.manifests {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (f, a) = manifest::scan_manifest_raw(rel, &text);
        findings.extend(f);
        allows.extend(a);
    }

    findings.extend(sem::contract_xref(&parsed));

    // Uniform suppression over the merged raw set, then staleness: a
    // directive must cover at least one raw finding to earn its keep.
    let raw = findings.clone();
    findings.retain(|f| {
        f.rule == Rule::AllowGrammar
            || !allows
                .iter()
                .any(|a| a.file == f.file && a.covers(f.rule, f.line))
    });
    for allow in &allows {
        let used = raw
            .iter()
            .any(|f| f.file == allow.file && allow.covers(f.rule, f.line));
        if !used {
            let names: Vec<&str> = allow.rules.iter().map(|r| r.name()).collect();
            findings.push(rules::Finding::new(
                Rule::StaleAllow,
                allow.file.clone(),
                allow.line,
                format!(
                    "allow({}) no longer suppresses any finding; delete the stale directive",
                    names.join(", ")
                ),
            ));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    allows.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        root: root.display().to_string(),
        findings,
        allows,
        files_scanned: ws.sources.len(),
        manifests_scanned: ws.manifests.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_allow_carries_a_justification() {
        let report = lint_workspace(&default_root()).expect("lint runs");
        for allow in &report.allows {
            assert!(
                !allow.justification.trim().is_empty(),
                "{}:{} allow has no justification",
                allow.file,
                allow.line
            );
        }
    }
}
