//! Positive and negative fixtures for the two text rules of
//! `support/rules.rs`.
//!
//! Each fixture under `tests/fixtures/` is a real source file, skipped by
//! the workspace walk: the positive one must trip its rule and the
//! negative one must scan clean, so a rule that goes blind *or*
//! trigger-happy fails this suite before it ever gates CI.

pub mod support;

use support::rules::{arith_findings, uncovered, Source};

fn source(rel: &str, text: &str) -> Source {
    Source { rel: rel.to_string(), text: text.to_string() }
}

#[test]
fn arith_positive_fixture_trips_every_site() {
    let findings = arith_findings(include_str!("fixtures/arith_positive.rs"));
    // Two compound assignments, one binary `+`, one binary `*`, plus ten
    // sites inside control flow: fourteen sites.
    assert_eq!(findings.len(), 14, "{findings:?}");
}

#[test]
fn arith_indexed_fixture_trips_every_site() {
    let findings = arith_findings(include_str!("fixtures/arith_indexed.rs"));
    // Four compound assignments to indexed counters.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn arith_negative_fixture_is_clean() {
    let findings = arith_findings(include_str!("fixtures/arith_negative.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn contract_xref_flags_an_uncovered_run_with_type() {
    let sim = source("crates/demo/src/sim.rs", include_str!("fixtures/contract_xref_sim.rs"));
    let suite = source(
        "crates/demo/tests/equivalence.rs",
        include_str!("fixtures/contract_xref_uncovered_test.rs"),
    );
    let missing = uncovered(&[sim], &[suite]);
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(missing[0].contains("`DemoSim`"), "{missing:?}");
}

#[test]
fn contract_xref_accepts_a_covered_run_with_type() {
    let sim = source("crates/demo/src/sim.rs", include_str!("fixtures/contract_xref_sim.rs"));
    let suite = source(
        "crates/demo/tests/equivalence.rs",
        include_str!("fixtures/contract_xref_covered_test.rs"),
    );
    let missing = uncovered(&[sim], &[suite]);
    assert!(missing.is_empty(), "{missing:?}");
}
