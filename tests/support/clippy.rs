//! Running `cargo clippy` on this workspace and on throwaway crates that
//! carry the root's lint configuration. Each run builds into its own
//! directory under `CARGO_TARGET_TMPDIR`, so it never waits on the lock of
//! the build that runs the tests.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use super::root;

/// Runs `cargo clippy --offline <args>` in `dir` with its own target
/// directory. Fails the test with a clear message when clippy is not
/// installed: the gate must not pass by skipping.
#[expect(clippy::expect_used, reason = "a test helper fails the calling test by panicking")]
pub fn clippy(dir: &Path, target: &str, args: &[&str]) -> Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let version = Command::new(&cargo).args(["clippy", "--version"]).output();
    let hint = "`cargo clippy` is not available; install it with `rustup component add clippy`";
    assert!(version.is_ok_and(|v| v.status.success()), "{hint}");
    Command::new(&cargo)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", Path::new(env!("CARGO_TARGET_TMPDIR")).join(target))
        .args(["clippy", "--offline"])
        .args(args)
        .output()
        .expect("cargo clippy runs")
}

/// The root manifest's `[workspace.lints.clippy]` table, header included.
#[expect(clippy::unwrap_used, reason = "a test helper fails the calling test by panicking")]
pub fn lint_table() -> String {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let start = manifest.find("[workspace.lints.clippy]").unwrap();
    let body = &manifest[start..];
    let end = body[1..].find("\n[").map_or(body.len(), |i| i + 2);
    body[..end].to_string()
}

/// Writes a throwaway crate `name` under `CARGO_TARGET_TMPDIR` with the
/// root's lint table, a copy of `clippy.toml` and `files` (paths relative
/// to `src/`, with their text), and returns its directory. If either
/// configuration stops reaching clippy, violations planted there pass.
#[expect(clippy::unwrap_used, reason = "a test helper fails the calling test by panicking")]
pub fn planted_crate(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::create_dir_all(dir.join("src")).unwrap();
    let manifest = format!(
        "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [lints]\nworkspace = true\n\n[workspace]\n\n{}",
        lint_table()
    );
    fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    fs::copy(root().join("clippy.toml"), dir.join("clippy.toml")).unwrap();
    for (rel, text) in files {
        fs::write(dir.join("src").join(rel), text).unwrap();
    }
    dir
}

/// One diagnostic with a lint code, read from `--message-format=json`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// The primary span's file, relative to the crate root.
    pub file: String,
    pub line: usize,
    /// `clippy::unwrap_used`, `dead_code`, ...
    pub code: String,
    /// The first line of the rendered message.
    pub headline: String,
}

/// The diagnostics with a lint code in clippy's JSON `stdout`, sorted and
/// without the duplicates that building a crate as lib and as test makes.
pub fn diagnostics(stdout: &str) -> Vec<Diagnostic> {
    // The text of the JSON string that starts right after `key` in `line`,
    // escapes left in.
    let string_after = |line: &str, key: &str| {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let b = rest.as_bytes();
        let mut end = 0;
        while end < b.len() && b[end] != b'"' {
            end += if b[end] == b'\\' { 2 } else { 1 };
        }
        Some(rest[..end.min(b.len())].to_string())
    };
    let mut found = Vec::new();
    for line in stdout.lines() {
        let Some(code) = string_after(line, "\"code\":{\"code\":\"") else {
            continue;
        };
        let Some(rendered) = string_after(line, "\"rendered\":\"") else {
            continue;
        };
        // `error: ...\n  --> src/file.rs:3:5\n ...`, newlines escaped.
        let headline = rendered.split("\\n").next().unwrap_or("").to_string();
        let location = rendered.split("--> ").nth(1).and_then(|l| l.split("\\n").next());
        let mut parts = location.unwrap_or("").split(':');
        let file = parts.next().unwrap_or("").to_string();
        let line = parts.next().and_then(|n| n.parse().ok()).unwrap_or(0);
        found.push(Diagnostic { file, line, code, headline });
    }
    found.sort();
    found.dedup();
    found
}
