//! Fixture-driven rule coverage: for every clippy rule, one positive
//! fixture that must produce findings and one negative fixture, with its
//! `#[expect(…, reason = "…")]` escape hatches, that must come out clean;
//! and the same for the hermetic-build scanner.
//!
//! The Rust fixtures are modules of one throwaway crate that carries the
//! root's lint table and `clippy.toml`; clippy runs on it once, as lib and
//! as test, and each test reads the diagnostics of its own file. "Clean"
//! means no diagnostic at all, so an `#[expect]` that stops being needed
//! fails as `unfulfilled_lint_expectations`.

pub mod support;

use std::sync::OnceLock;

use support::clippy::{clippy, diagnostics, planted_crate, Diagnostic};
use support::manifest::violations;

/// The clippy fixtures, by module name.
const FIXTURES: [(&str, &str); 7] = [
    ("determinism_bad", include_str!("fixtures/determinism_bad.rs")),
    ("determinism_allowed", include_str!("fixtures/determinism_allowed.rs")),
    ("panic_bad", include_str!("fixtures/panic_bad.rs")),
    ("panic_allowed", include_str!("fixtures/panic_allowed.rs")),
    ("unsafe_bad", include_str!("fixtures/unsafe_bad.rs")),
    ("unsafe_ok", include_str!("fixtures/unsafe_ok.rs")),
    ("cfg_test_skip", include_str!("fixtures/cfg_test_skip.rs")),
];

/// Every diagnostic clippy reports on the fixture crate, run once for all
/// the tests here.
fn all_diagnostics() -> &'static [Diagnostic] {
    static FOUND: OnceLock<Vec<Diagnostic>> = OnceLock::new();
    FOUND.get_or_init(|| {
        let names: Vec<String> = FIXTURES.iter().map(|(name, _)| format!("{name}.rs")).collect();
        let lib: String = FIXTURES.iter().map(|(name, _)| format!("pub mod {name};\n")).collect();
        let mut files = vec![("lib.rs", lib.as_str())];
        files.extend(names.iter().zip(FIXTURES).map(|(file, (_, text))| (file.as_str(), text)));
        let dir = planted_crate("lint-fixtures", &files);
        let out = clippy(&dir, "clippy-fixtures", &["--all-targets", "--keep-going", "--message-format=json"]);
        let found = diagnostics(&String::from_utf8_lossy(&out.stdout));
        assert!(
            out.status.success() == found.is_empty(),
            "clippy's exit status disagrees with its diagnostics {found:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        found
    })
}

/// The diagnostics in one fixture, as `(line, lint code)`.
fn findings(fixture: &str) -> Vec<(usize, String)> {
    let file = format!("src/{fixture}.rs");
    all_diagnostics()
        .iter()
        .filter(|d| d.file == file)
        .map(|d| (d.line, d.code.clone()))
        .collect()
}

fn headline(fixture: &str, line: usize) -> String {
    let file = format!("src/{fixture}.rs");
    all_diagnostics()
        .iter()
        .filter(|d| d.file == file && d.line == line)
        .map(|d| d.headline.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn determinism_positive_fixture() {
    let findings = findings("determinism_bad");
    assert!(findings.len() >= 4, "expected HashMap x2 + Instant + HashSet, got {findings:?}");
    let determinism = ["clippy::disallowed_types", "clippy::disallowed_methods"];
    assert!(findings.iter().all(|(_, code)| determinism.contains(&code.as_str())), "{findings:?}");
    assert!(headline("determinism_bad", 2).contains("HashMap"), "{findings:?}");
    assert!(headline("determinism_bad", 3).contains("Instant"), "{findings:?}");
    assert!(headline("determinism_bad", 7).contains("Instant"), "{findings:?}");
    // Test code gets no exemption.
    assert!(headline("determinism_bad", 17).contains("HashSet"), "{findings:?}");
}

#[test]
fn determinism_allowlisted_fixture_is_clean() {
    let findings = findings("determinism_allowed");
    assert!(findings.is_empty(), "{findings:?}");
    let text = include_str!("fixtures/determinism_allowed.rs");
    assert_eq!(text.matches("#[expect(clippy::disallowed_types, reason = \"").count(), 2);
}

#[test]
fn panic_path_positive_fixture() {
    let findings = findings("panic_bad");
    let expected = [(3, "clippy::expect_used".to_string()), (3, "clippy::unwrap_used".to_string())];
    assert_eq!(findings, expected);
}

#[test]
fn panic_path_allowlisted_fixture_is_clean() {
    let findings = findings("panic_allowed");
    assert!(findings.is_empty(), "{findings:?}");
    let text = include_str!("fixtures/panic_allowed.rs");
    assert!(text.contains("reason = \"caller checked is_some() one frame up\""));
}

#[test]
fn unsafe_positive_and_negative_fixtures() {
    assert_eq!(findings("unsafe_bad"), [(3, "clippy::undocumented_unsafe_blocks".to_string())]);
    let findings = findings("unsafe_ok");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn cfg_test_items_are_exempt_fixture() {
    let findings = findings("cfg_test_skip");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hermeticity_positive_fixture() {
    let found = violations(include_str!("fixtures/hermetic_bad.toml"));
    let lines: Vec<usize> = found.iter().map(|(line, _)| *line).collect();
    // `build = `, the registry and git dependencies, `[build-dependencies]`.
    assert_eq!(lines, [5, 8, 9, 12], "{found:?}");
    assert!(found[0].1.contains("build = "), "{found:?}");
    assert!(found[2].1.contains("git"), "{found:?}");
    assert!(found[3].1.contains("[build-dependencies]"), "{found:?}");
}

#[test]
fn hermeticity_negative_fixture_is_clean() {
    let found = violations(include_str!("fixtures/hermetic_ok.toml"));
    assert!(found.is_empty(), "{found:?}");
}
