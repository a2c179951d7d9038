//! The two source rules clippy has no lint for, read from the text of
//! Rust sources (DESIGN.md "Lints"). `source_rules.rs` runs them over the
//! workspace, `rule_fixtures.rs` over planted fixtures.
//!
//! * **contract-xref** — every type whose impl defines `run_with` (a
//!   simulator with two kernels) is named by a `#[cfg(test)]` region or
//!   test file that defines a `kernels_*` fn, so the bit-identity suites
//!   keep up with the simulators.
//! * **arith** — no unchecked `+`, `*`, `+=` or `*=` on the accounting
//!   counters the paper's exhibits are built from ([`ACCOUNTING_VOCAB`])
//!   in non-test library code. At N = 2²⁰ one silent wrap corrupts an
//!   exhibit, so these use `saturating_`/`checked_` arithmetic.
//!
//! Both rules read code with comments, strings and character literals
//! blanked out ([`blank`]), so prose and messages never match.

#![expect(clippy::unwrap_used, reason = "a test helper fails the calling test by panicking")]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use super::root;

/// Counters whose silent overflow corrupts an exhibit: the access, cycle
/// and occupancy totals shared by the simulators.
pub const ACCOUNTING_VOCAB: [&str; 13] = [
    "accesses",
    "total_accesses",
    "var_accesses",
    "sync_accesses",
    "presented",
    "served",
    "denied",
    "busy_cycles",
    "idle_cycles",
    "cycles",
    "completion",
    "queued",
    "flag_set_at",
];

/// Keywords that can precede a unary `*` (a dereference).
const KEYWORDS: [&str; 8] = ["mut", "return", "in", "if", "match", "else", "break", "while"];

/// One source file: its path relative to the repository root and its text.
pub struct Source {
    pub rel: String,
    pub text: String,
}

/// Every `.rs` file under `dir`, sorted, as [`Source`]s. `fixtures`
/// directories hold planted violations and are skipped.
fn sources_under(dir: &Path) -> Vec<Source> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for path in paths {
        if path.ends_with("fixtures") {
            continue;
        } else if path.is_dir() {
            out.extend(sources_under(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).unwrap().to_string_lossy().replace('\\', "/");
            out.push(Source { text: fs::read_to_string(&path).unwrap(), rel });
        }
    }
    out
}

/// The library sources (`crates/*/src`, `src/`) and the test sources
/// (`crates/*/tests`, `tests/`).
pub fn workspace() -> (Vec<Source>, Vec<Source>) {
    let root = root();
    let mut crates: Vec<PathBuf> =
        fs::read_dir(root.join("crates")).unwrap().map(|e| e.unwrap().path()).collect();
    crates.sort();
    let mut lib = sources_under(&root.join("src"));
    let mut tests = sources_under(&root.join("tests"));
    for dir in crates {
        lib.extend(sources_under(&dir.join("src")));
        tests.extend(sources_under(&dir.join("tests")));
    }
    (lib, tests)
}

/// `text` with comments, string literals and character literals replaced
/// by spaces. Newlines are kept, so byte offsets and line numbers match
/// the original.
fn blank(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    // The end of the first `pat` at or after `from`.
    let find = |from: usize, pat: &[u8]| {
        b.get(from..)
            .and_then(|rest| rest.windows(pat.len()).position(|w| w == pat))
            .map_or(b.len(), |k| from + k + pat.len())
    };
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        let hashes = rest.iter().skip(1).take_while(|&&c| c == b'#').count();
        let end = if rest.starts_with(b"//") {
            find(i, b"\n")
        } else if rest.starts_with(b"/*") {
            find(i + 2, b"*/")
        } else if rest[0] == b'r' && !ident_byte(i, b) && rest.get(1 + hashes) == Some(&b'"') {
            let close: Vec<u8> = std::iter::once(b'"').chain(vec![b'#'; hashes]).collect();
            find(i + 2 + hashes, &close)
        } else if rest[0] == b'"' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            j + 1
        } else if rest.starts_with(b"'\\") {
            find(i + 3, b"'")
        } else if rest[0] == b'\'' && rest.get(2) == Some(&b'\'') {
            // A character literal, not a lifetime.
            i + 3
        } else {
            i += 1;
            continue;
        };
        clear(&mut out[i..end.min(b.len())]);
        i = end;
    }
    String::from_utf8(out).unwrap()
}

/// Overwrites every byte but newlines with a space.
fn clear(bytes: &mut [u8]) {
    bytes.iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
}

/// Whether the byte before `i` continues an identifier (so a `r`/`b` at
/// `i` is part of a name, not a literal prefix).
fn ident_byte(i: usize, b: &[u8]) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Byte ranges of the test-only items in blanked code: each item after a
/// `#[cfg(test)]` or `#[test]` attribute, up to its `;` or the `}` that
/// closes its body.
fn test_regions(code: &str) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut regions = Vec::new();
    for attr in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(at) = code[from..].find(attr) {
            let start = from + at;
            let mut j = start + attr.len();
            while j < b.len() && b[j] != b'{' && b[j] != b';' {
                j += 1;
            }
            if b.get(j) == Some(&b'{') {
                let mut depth = 0;
                while j < b.len() {
                    depth += i32::from(b[j] == b'{') - i32::from(b[j] == b'}');
                    if depth == 0 {
                        break;
                    }
                    j += 1;
                }
            }
            regions.push((start, (j + 1).min(b.len())));
            from = start + attr.len();
        }
    }
    regions
}

/// `code` with its test-only items blanked too.
fn non_test(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    for (lo, hi) in test_regions(code) {
        clear(&mut out[lo..hi]);
    }
    String::from_utf8(out).unwrap()
}

/// Whether `word` occurs in `haystack` with no identifier byte on either
/// side.
fn contains_word(haystack: &str, word: &str) -> bool {
    haystack.match_indices(word).any(|(at, _)| {
        let end = at + word.len();
        !ident_byte(at, haystack.as_bytes())
            && !haystack[end..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

/// The self type of every non-test impl that defines `run_with`, with the
/// file it is in.
pub fn run_with_types(lib: &[Source]) -> BTreeMap<String, String> {
    let mut found = BTreeMap::new();
    for src in lib {
        let code = non_test(&blank(&src.text));
        let mut impl_ty: Option<String> = None;
        for line in code.lines() {
            if line.starts_with('}') {
                impl_ty = None;
            } else if let Some(header) = line.strip_prefix("impl").filter(|h| h.starts_with([' ', '<'])) {
                // `impl<G> Trait<G> for Type<G> {` → `Type`.
                let header = header.split('{').next().unwrap_or("");
                let header = header.rsplit(" for ").next().unwrap_or(header);
                let header = if header.starts_with('<') {
                    header.split_once('>').map_or("", |(_, t)| t)
                } else {
                    header
                };
                let path = header.trim().split(['<', ' ']).next().unwrap_or("");
                impl_ty = path.rsplit("::").next().map(str::to_string);
            } else if line.contains("fn run_with(") {
                if let Some(ty) = impl_ty.clone().filter(|t| !t.is_empty()) {
                    found.entry(ty).or_insert_with(|| src.rel.clone());
                }
            }
        }
    }
    found
}

/// The text of every test region of a library source and every test file
/// that defines a `kernels_*` fn: the bit-identity suites.
fn suite_corpus(lib: &[Source], tests: &[Source]) -> String {
    let defines_kernels_fn = |code: &str| code.contains("fn kernels_");
    let mut corpus = String::new();
    for src in tests {
        let code = blank(&src.text);
        if defines_kernels_fn(&code) {
            corpus.push_str(&src.text);
            corpus.push('\n');
        }
    }
    for src in lib {
        let code = blank(&src.text);
        for (lo, hi) in test_regions(&code) {
            if defines_kernels_fn(&code[lo..hi]) {
                corpus.push_str(&src.text[lo..hi]);
                corpus.push('\n');
            }
        }
    }
    corpus
}

/// Types with a `run_with` that no bit-identity suite names.
pub fn uncovered(lib: &[Source], tests: &[Source]) -> Vec<String> {
    let corpus = suite_corpus(lib, tests);
    run_with_types(lib)
        .into_iter()
        .filter(|(ty, _)| !contains_word(&corpus, ty))
        .map(|(ty, rel)| format!("{rel}: `{ty}` defines `run_with` but no `kernels_*` suite names it"))
        .collect()
}

/// The identifier that ends at byte `end` of `code` (exclusive), if any.
fn ident_ending_at(code: &str, end: usize) -> &str {
    let start = code[..end]
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |i| i + 1);
    &code[start..end]
}

/// Unchecked `+`/`*` on accounting counters in the non-test code of one
/// source, as `(line, message)`. A compound `x += …`/`x *= …` counts when
/// its target's last identifier is a counter; a binary `a + b`/`a * b`
/// counts when the identifier on either side of the operator is one. A
/// `*` after an operator, `(` or `=` is a dereference, not a product.
pub fn arith_findings(text: &str) -> Vec<(usize, String)> {
    let code = non_test(&blank(text));
    let b = code.as_bytes();
    let mut findings = Vec::new();
    for (at, op) in code.match_indices(['+', '*']) {
        let compound = b.get(at + 1) == Some(&b'=');
        let left_end = code[..at].trim_end().len();
        let left = ident_ending_at(&code, left_end);
        let word = if compound {
            left
        } else {
            let value_before = (left_end > 0 && matches!(b[left_end - 1], b')' | b']'))
                || !(left.is_empty() || KEYWORDS.contains(&left));
            if !value_before || b.get(at + 1) == Some(&b'*') || (at > 0 && b[at - 1] == b'*') {
                continue;
            }
            // The right operand's last identifier in a `a.b.c` chain.
            let rest = code[at + 1..].trim_start();
            let chain_len = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
                .unwrap_or(rest.len());
            let right = rest[..chain_len].rsplit('.').next().unwrap_or("");
            if ACCOUNTING_VOCAB.contains(&left) {
                left
            } else {
                right
            }
        };
        if ACCOUNTING_VOCAB.contains(&word) {
            let line = code[..at].matches('\n').count() + 1;
            let form = if compound { format!("{op}=") } else { op.to_string() };
            findings.push((
                line,
                format!("unchecked `{form}` on accounting counter `{word}`; use saturating_/checked_"),
            ));
        }
    }
    findings
}
