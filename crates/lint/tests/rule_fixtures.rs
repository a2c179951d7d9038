//! Per-rule positive/negative fixtures for the semantic rule families.
//!
//! Each fixture under `tests/fixtures/` is a real source file (excluded
//! from the workspace lint walk by the `fixtures` directory rule): the
//! positive one must trip its rule, the negative one must scan clean —
//! so a rule that goes blind *or* trigger-happy fails this suite before
//! it ever gates CI.

use abs_lint::rules::{Rule, SourcePolicy};
use abs_lint::sem::{self, ParsedFile};

fn scan(rel: &str, src: &str, policy: SourcePolicy) -> Vec<abs_lint::Finding> {
    let pf = ParsedFile::parse(rel, src, policy);
    sem::scan_file(&pf)
}

fn count(findings: &[abs_lint::Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn arith_positive_fixture_trips_every_site() {
    let src = include_str!("fixtures/arith_positive.rs");
    let findings = scan("fixtures/arith_positive.rs", src, SourcePolicy::sim_crate());
    // One truncating cast, two compound assignments, one binary `+`, one
    // binary `*`, plus ten sites inside control flow — fifteen sites.
    assert_eq!(count(&findings, Rule::Arith), 15, "{findings:?}");
}

#[test]
fn arith_negative_fixture_is_clean() {
    let src = include_str!("fixtures/arith_negative.rs");
    let findings = scan("fixtures/arith_negative.rs", src, SourcePolicy::sim_crate());
    assert_eq!(count(&findings, Rule::Arith), 0, "{findings:?}");
}

#[test]
fn contract_xref_flags_an_uncovered_run_with_type() {
    let sim = ParsedFile::parse(
        "crates/demo/src/sim.rs",
        include_str!("fixtures/contract_xref_sim.rs"),
        SourcePolicy::sim_crate(),
    );
    let uncovered = ParsedFile::parse(
        "crates/demo/tests/equivalence.rs",
        include_str!("fixtures/contract_xref_uncovered_test.rs"),
        SourcePolicy::test_code(),
    );
    let findings = sem::contract_xref(&[sim, uncovered]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::ContractXref);
    assert!(findings[0].message.contains("DemoSim"), "{}", findings[0].message);
}

#[test]
fn contract_xref_accepts_a_covered_run_with_type() {
    let sim = ParsedFile::parse(
        "crates/demo/src/sim.rs",
        include_str!("fixtures/contract_xref_sim.rs"),
        SourcePolicy::sim_crate(),
    );
    let covered = ParsedFile::parse(
        "crates/demo/tests/equivalence.rs",
        include_str!("fixtures/contract_xref_covered_test.rs"),
        SourcePolicy::test_code(),
    );
    let findings = sem::contract_xref(&[sim, covered]);
    assert!(findings.is_empty(), "{findings:?}");
}
