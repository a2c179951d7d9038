//! The two source rules clippy has no lint for, checked over the
//! workspace's sources (DESIGN.md "Lints"): every simulator with two
//! kernels is named by a bit-identity suite (contract-xref), and the
//! accounting counters use checked arithmetic (arith). The rules are in
//! `support/rules.rs`.

pub mod support;

use support::rules::{arith_findings, run_with_types, uncovered, workspace, Source};

#[test]
fn every_run_with_type_is_named_by_a_kernels_suite() {
    let (lib, tests) = workspace();
    let types = run_with_types(&lib);
    // Seven simulators have two kernels today; a parse that silently finds
    // none would pass vacuously.
    assert!(types.len() >= 7, "found only {types:?}");
    let missing = uncovered(&lib, &tests);
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn planted_run_with_type_without_a_suite_is_caught() {
    let (mut lib, tests) = workspace();
    lib.push(Source {
        rel: "crates/core/src/planted.rs".to_string(),
        text: "pub struct PlantedSim;\nimpl PlantedSim {\n    pub fn run_with(&self, seed: u64) {}\n}\n"
            .to_string(),
    });
    let missing = uncovered(&lib, &tests);
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(missing[0].contains("`PlantedSim`"), "{missing:?}");
}

#[test]
fn accounting_counters_use_checked_arithmetic() {
    let (lib, _) = workspace();
    let mut findings = Vec::new();
    for src in &lib {
        for (line, message) in arith_findings(&src.text) {
            findings.push(format!("{}:{line}: {message}", src.rel));
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn arith_reads_code_not_prose() {
    let caught = |src: &str| arith_findings(src).len();
    assert_eq!(caught("fn f() { let t = a.cycles + 1; }"), 1);
    assert_eq!(caught("fn f() { let t = 2 * s.busy_cycles; }"), 1);
    assert_eq!(caught("fn f() { served *= 2; }"), 1);
    // Checked forms, comments, strings, derefs and tests are inert.
    assert_eq!(caught("fn f() { s.served = s.served.saturating_add(1); }"), 0);
    assert_eq!(caught("// cycles + 1\nfn f() {}"), 0);
    assert_eq!(caught("fn f() { let m = \"cycles + 1\"; }"), 0);
    assert_eq!(caught("fn f(x: &u64) { let y = (*cycles).min(*x); }"), 0);
    assert_eq!(caught("#[cfg(test)]\nmod tests {\n    fn f() { cycles += 1; }\n}\n"), 0);
    // Code after a test module is checked again.
    assert_eq!(caught("#[cfg(test)]\nmod tests {}\nfn f() { cycles += 1; }\n"), 1);
}
