//! Workspace discovery: which files exist and which rules govern each.
//!
//! Scope map (the rationale is in `DESIGN.md` §10):
//!
//! | location | determinism | panic-path | unsafe-audit |
//! |---|---|---|---|
//! | `crates/{core,net,model,coherence,trace,sim,load,insight}/src` | ✔ | ✔ | ✔ |
//! | other `crates/*/src`, root `src/` | ✘ | ✔ | ✔ |
//! | `tests/`, `benches/`, `examples/` anywhere | ✘ | ✘ | ✔ |
//!
//! Wall-clock reads are thereby allowed in `exec`/`bench` timing code (they
//! are harness crates), and benches/examples may unwrap freely. Every
//! `Cargo.toml` gets the hermeticity pass — the root, every crate, and the
//! out-of-workspace benchmark package's `ledger/Cargo.toml` (its manifest
//! only; its sources are not linted) — and a crate-level `build.rs` is
//! itself a hermeticity finding. Directories named `fixtures` are skipped:
//! they hold deliberately-violating lint inputs. Traversal is sorted so
//! reports are byte-stable across filesystems.

use std::path::{Path, PathBuf};

use crate::rules::{Finding, Rule, SourcePolicy};

/// Directory names of the simulation crates (determinism rule applies).
pub const SIM_CRATES: &[&str] = &[
    "core",
    "net",
    "model",
    "coherence",
    "trace",
    "sim",
    "load",
    "insight",
];

/// One Rust source file plus the policy governing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEntry {
    /// Absolute path.
    pub path: PathBuf,
    /// Workspace-relative path (forward slashes) used in diagnostics.
    pub rel: String,
    /// Which rules apply.
    pub policy: SourcePolicy,
}

/// The discovered workspace.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Every `.rs` file with its policy, sorted by relative path.
    pub sources: Vec<SourceEntry>,
    /// Every `Cargo.toml`: the root, then `crates/*` sorted, then the
    /// benchmark package's `ledger/Cargo.toml`.
    pub manifests: Vec<(PathBuf, String)>,
    /// Findings produced during discovery itself (e.g. a `build.rs`).
    pub findings: Vec<Finding>,
}

impl Workspace {
    /// Walks the workspace rooted at `root`.
    pub fn discover(root: &Path) -> Result<Workspace, String> {
        let mut sources = Vec::new();
        let mut manifests = Vec::new();
        let mut findings = Vec::new();

        let root_manifest = root.join("Cargo.toml");
        if !root_manifest.is_file() {
            return Err(format!(
                "{} is not a workspace root (no Cargo.toml)",
                root.display()
            ));
        }
        manifests.push((root_manifest, "Cargo.toml".to_string()));

        // Root-level library sources, tests, benches and examples.
        collect_rs(root, &root.join("src"), SourcePolicy::harness_crate(), &mut sources)?;
        for dir in ["tests", "benches", "examples"] {
            collect_rs(root, &root.join(dir), SourcePolicy::test_code(), &mut sources)?;
        }

        // Per-crate sources.
        let crates_dir = root.join("crates");
        for name in sorted_dir_names(&crates_dir)? {
            let crate_root = crates_dir.join(&name);
            let manifest = crate_root.join("Cargo.toml");
            if manifest.is_file() {
                manifests.push((manifest, format!("crates/{name}/Cargo.toml")));
            }
            if crate_root.join("build.rs").is_file() {
                findings.push(Finding::new(
                    Rule::Hermeticity,
                    format!("crates/{name}/build.rs"),
                    1,
                    "build scripts are forbidden: they run arbitrary code at \
                     build time and can reach outside the workspace",
                ));
            }
            let policy = if SIM_CRATES.contains(&name.as_str()) {
                SourcePolicy::sim_crate()
            } else {
                SourcePolicy::harness_crate()
            };
            collect_rs(root, &crate_root.join("src"), policy, &mut sources)?;
            for dir in ["tests", "benches", "examples"] {
                collect_rs(root, &crate_root.join(dir), SourcePolicy::test_code(), &mut sources)?;
            }
        }

        // The benchmark package has its own lockfile outside the workspace,
        // so a registry dependency there would escape every other check.
        let ledger = root.join("ledger/Cargo.toml");
        if ledger.is_file() {
            manifests.push((ledger, "ledger/Cargo.toml".to_string()));
        }

        sources.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            root: root.to_path_buf(),
            sources,
            manifests,
            findings,
        })
    }
}

/// The sorted subdirectory names of `dir` (empty if it does not exist).
fn sorted_dir_names(dir: &Path) -> Result<Vec<String>, String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        if entry.path().is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// Recursively collects `.rs` files under `dir`, skipping `fixtures`
/// directories (deliberately-violating lint inputs) and anything hidden.
fn collect_rs(
    root: &Path,
    dir: &Path,
    policy: SourcePolicy,
    out: &mut Vec<SourceEntry>,
) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // absent dirs (not every crate has benches/) are fine
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') || name == "fixtures" || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, policy, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceEntry { path, rel, policy });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn this_workspace() -> Workspace {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        Workspace::discover(&root).expect("workspace discovers")
    }

    #[test]
    fn discovers_all_crates_and_manifests() {
        let ws = this_workspace();
        assert!(ws.manifests.len() >= 12, "{}", ws.manifests.len());
        assert_eq!(ws.manifests[0].1, "Cargo.toml");
        assert!(ws
            .manifests
            .iter()
            .any(|(_, rel)| rel == "crates/lint/Cargo.toml"));
        assert!(ws
            .manifests
            .iter()
            .any(|(_, rel)| rel == "ledger/Cargo.toml"));
    }

    #[test]
    fn sim_crates_get_the_determinism_rule_and_harness_crates_do_not() {
        let ws = this_workspace();
        let policy_of = |rel: &str| {
            ws.sources
                .iter()
                .find(|s| s.rel == rel)
                .unwrap_or_else(|| panic!("{rel} not discovered"))
                .policy
        };
        assert!(policy_of("crates/coherence/src/directory.rs").determinism);
        assert!(policy_of("crates/net/src/packet.rs").determinism);
        assert!(policy_of("crates/load/src/engine.rs").determinism);
        assert!(!policy_of("crates/exec/src/engine.rs").determinism);
        assert!(policy_of("crates/exec/src/engine.rs").panic_path);
        assert!(!policy_of("crates/bench/tests/kernel_equivalence.rs").panic_path);
        assert!(policy_of("src/lib.rs").panic_path);
    }

    #[test]
    fn fixture_directories_are_skipped() {
        let ws = this_workspace();
        assert!(
            ws.sources.iter().all(|s| !s.rel.contains("/fixtures/")),
            "fixtures must not be linted as workspace sources"
        );
    }

    #[test]
    fn traversal_is_sorted() {
        let ws = this_workspace();
        let rels: Vec<&String> = ws.sources.iter().map(|s| &s.rel).collect();
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
    }

    #[test]
    fn non_workspace_dir_is_an_error() {
        assert!(Workspace::discover(Path::new("/definitely/not/here")).is_err());
    }
}
