//! Hermetic-build guard: no external dependency or build script may
//! (re)appear.
//!
//! The build environment for this workspace has no network access, so the
//! whole dependency closure must live in this repository. This test parses
//! every `Cargo.toml`, `ledger/`'s included, with the minimal TOML scanner
//! in `support/manifest.rs` and asserts that every dependency is a
//! `path`-based workspace crate, that no package has a build script and
//! that no lockfile names a source.

pub mod support;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use support::manifest::{build_script_lines, dependencies, DepEntry};

/// Every dependency entry of one manifest.
fn scan_manifest(manifest: &Path) -> Vec<DepEntry> {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    dependencies(&text).unwrap_or_else(|(line, text)| {
        panic!("{}:{line}: unparsable dependency line {text:?}", manifest.display())
    })
}

/// Every manifest in the repository: the root, each crate and the
/// benchmark package `ledger/`.
#[expect(clippy::expect_used, reason = "a test helper fails the calling test by panicking")]
fn workspace_manifests() -> Vec<PathBuf> {
    let root = support::root();
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "every crates/ subdirectory must be a crate: {} missing",
            manifest.display()
        );
        manifests.push(manifest);
    }
    manifests.push(root.join("ledger/Cargo.toml"));
    manifests
}

#[test]
fn every_dependency_is_a_path_based_workspace_crate() {
    let manifests = workspace_manifests();
    assert!(
        manifests.len() >= 13,
        "expected the root, at least eleven crates and the ledger, found {}",
        manifests.len()
    );

    let mut violations = Vec::new();
    let mut checked = 0usize;
    for manifest in &manifests {
        for dep in scan_manifest(manifest) {
            checked += 1;
            if !dep.is_hermetic() {
                violations.push(format!(
                    "{}:{}: `{} = {}` is not a path-based workspace dependency",
                    manifest.display(),
                    dep.line_no,
                    dep.name,
                    dep.spec
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "external dependencies violate the hermetic-build policy \
         (declare the code in-tree instead):\n{}",
        violations.join("\n")
    );
    // The workspace facade alone pulls in nine crates; if parsing ever
    // silently breaks, this floor catches it.
    assert!(checked >= 18, "only {checked} dependency entries parsed");
}

#[test]
fn path_dependencies_resolve_to_workspace_crates() {
    let root = support::root();
    let mut seen = BTreeSet::new();
    for manifest in workspace_manifests() {
        let base = manifest.parent().unwrap().to_path_buf();
        for dep in scan_manifest(&manifest) {
            if let Some(target) = dep.path_target() {
                let dir = base.join(&target);
                let target_manifest = dir.join("Cargo.toml");
                assert!(
                    target_manifest.is_file(),
                    "{}:{}: path dependency {:?} does not point at a crate",
                    manifest.display(),
                    dep.line_no,
                    target
                );
                let canonical = dir.canonicalize().unwrap();
                assert!(
                    canonical.starts_with(root.canonicalize().unwrap()),
                    "{}:{}: path dependency {:?} escapes the workspace",
                    manifest.display(),
                    dep.line_no,
                    target
                );
                seen.insert(canonical);
            }
        }
    }
    // Every library crate is reachable by path from the root manifest, and
    // nothing else is: the path targets are exactly the `crates/`
    // directories minus `bench`, the one crate that nothing depends on.
    let crates: BTreeSet<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|dir| !dir.ends_with("bench"))
        .map(|dir| dir.canonicalize().unwrap())
        .collect();
    assert_eq!(seen, crates, "path targets differ from the library crates");
    assert!(
        seen.iter().any(|p| p.ends_with("crates/exec")),
        "abs-exec must be registered as a path dependency: {seen:?}"
    );
    assert!(
        seen.iter().any(|p| p.ends_with("crates/obs")),
        "abs-obs must be registered as a path dependency: {seen:?}"
    );
    assert!(
        seen.iter().any(|p| p.ends_with("crates/load")),
        "abs-load must be registered as a path dependency: {seen:?}"
    );
    assert!(
        seen.iter().any(|p| p.ends_with("crates/insight")),
        "abs-insight must be registered as a path dependency: {seen:?}"
    );
}

#[test]
fn no_package_runs_a_build_script() {
    // A build script runs arbitrary host code before the crate compiles,
    // outside anything the tests or lints see.
    let mut violations = Vec::new();
    for manifest in workspace_manifests() {
        let script = manifest.parent().unwrap().join("build.rs");
        if script.exists() {
            violations.push(format!("{}: build script", script.display()));
        }
        let text = fs::read_to_string(&manifest).unwrap();
        for (line_no, line) in build_script_lines(&text) {
            violations.push(format!("{}:{line_no}: {line}", manifest.display()));
        }
    }
    assert!(violations.is_empty(), "build scripts are not allowed:\n{}", violations.join("\n"));
}

#[test]
fn lockfiles_name_no_external_source() {
    // Path packages have no `source`; a registry or git package always
    // does, even after its manifest entry is gone.
    let root = support::root();
    for lock in [root.join("Cargo.lock"), root.join("ledger/Cargo.lock")] {
        let text = fs::read_to_string(&lock).unwrap();
        assert!(text.contains("[[package]]"), "{} lists no packages", lock.display());
        let sources: Vec<&str> =
            text.lines().filter(|l| l.trim_start().starts_with("source =")).collect();
        assert!(sources.is_empty(), "{} names external sources: {sources:?}", lock.display());
    }
}
