//! Hermetic-build guard: no external dependency may (re)appear.
//!
//! The build environment for this workspace has no network access, so the
//! whole dependency closure must live in this repository. This test parses
//! every `Cargo.toml` in the workspace with a purpose-built minimal TOML
//! scanner (using a TOML crate would itself break the policy) and asserts
//! that every entry in a dependency section is a `path`-based workspace
//! crate.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Dependency sections in which every entry must be path-based.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// One `name = ...` entry under a dependency section.
#[derive(Debug)]
struct DepEntry {
    manifest: PathBuf,
    line_no: usize,
    name: String,
    spec: String,
}

impl DepEntry {
    /// A dependency is hermetic if it points into the workspace by path or
    /// defers to `[workspace.dependencies]` (whose entries are themselves
    /// checked).
    fn is_hermetic(&self) -> bool {
        (self.spec.contains("path") && self.spec.contains("=")
            && spec_field(&self.spec, "path").is_some())
            || self.name.ends_with(".workspace")
            || spec_field(&self.spec, "workspace") == Some("true".to_string())
    }

    /// The `path = "..."` target, if any.
    fn path_target(&self) -> Option<String> {
        spec_field(&self.spec, "path")
    }
}

/// Extracts `key = value` from an inline table spec like
/// `{ path = "crates/sim", optional = true }`; string values are unquoted.
fn spec_field(spec: &str, key: &str) -> Option<String> {
    let body = spec.trim().strip_prefix('{')?.strip_suffix('}')?;
    for part in body.split(',') {
        let (k, v) = part.split_once('=')?;
        if k.trim() == key {
            let v = v.trim();
            return Some(v.trim_matches('"').to_string());
        }
    }
    None
}

/// Collects every dependency entry from one manifest.
fn scan_manifest(manifest: &Path) -> Vec<DepEntry> {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut entries = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        // Strip comments outside strings — good enough for our manifests,
        // which never put '#' inside a string.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if !DEP_SECTIONS.contains(&section.as_str()) {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            panic!(
                "{}:{}: unparsable dependency line {line:?}",
                manifest.display(),
                i + 1
            );
        };
        entries.push(DepEntry {
            manifest: manifest.to_path_buf(),
            line_no: i + 1,
            name: name.trim().to_string(),
            spec: spec.trim().to_string(),
        });
    }
    entries
}

/// The workspace root (the facade package's manifest dir).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every manifest in the workspace: the root plus each crate.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = workspace_root();
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
    manifests
}

#[test]
fn every_dependency_is_a_path_based_workspace_crate() {
    let manifests = workspace_manifests();
    assert!(
        manifests.len() >= 13,
        "expected the root and at least twelve crates, found {}",
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
                    dep.manifest.display(),
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
    let root = workspace_root();
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
                    dep.manifest.display(),
                    dep.line_no,
                    target
                );
                let canonical = dir.canonicalize().unwrap();
                assert!(
                    canonical.starts_with(root.canonicalize().unwrap()),
                    "{}:{}: path dependency {:?} escapes the workspace",
                    dep.manifest.display(),
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
        seen.iter().any(|p| p.ends_with("crates/lint")),
        "abs-lint must be registered as a path dependency: {seen:?}"
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
