//! The lint report: text diagnostics for humans, JSON for machines.
//!
//! The JSON document is built on `abs_exec::json` (the same hand-rolled
//! model the run manifests use) and written as
//! `repro_out/lint_report.json`; CI uploads it as an artifact. Key order
//! and file ordering are deterministic, so the report bytes are stable for
//! a given tree.

use std::path::{Path, PathBuf};

use abs_exec::json::Value;

use crate::rules::{Allow, Finding};

/// Schema version of the JSON report. Version 3 dropped the per-finding
/// `severity` field and the severity summary: every finding is an error.
pub const REPORT_VERSION: u32 = 3;

/// Everything one lint run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workspace root the run scanned.
    pub root: String,
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every well-formed allow directive, sorted by (file, line) — the
    /// audit trail of what the tree explicitly opted out of.
    pub allows: Vec<Allow>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Manifests scanned.
    pub manifests_scanned: usize,
}

impl Report {
    /// Whether the tree is clean (exit code 0): no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `file:line: rule: message` diagnostics plus a one-line summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "abs-lint: {} finding(s) across {} files and {} manifests ({} allows)\n",
            self.findings.len(),
            self.files_scanned,
            self.manifests_scanned,
            self.allows.len(),
        ));
        out
    }

    /// The machine-readable report document. Findings are (re)sorted by
    /// (file, line, rule) so the bytes are stable for a given tree.
    pub fn to_json(&self) -> Value {
        let mut sorted: Vec<&Finding> = self.findings.iter().collect();
        sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        let findings = sorted
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("rule".into(), Value::Str(f.rule.name().to_string())),
                    ("file".into(), Value::Str(f.file.clone())),
                    ("line".into(), Value::Num(f.line as f64)),
                    ("message".into(), Value::Str(f.message.clone())),
                ])
            })
            .collect();
        let allows = self
            .allows
            .iter()
            .map(|a| {
                Value::Obj(vec![
                    (
                        "rules".into(),
                        Value::Arr(
                            a.rules
                                .iter()
                                .map(|r| Value::Str(r.name().to_string()))
                                .collect(),
                        ),
                    ),
                    ("file".into(), Value::Str(a.file.clone())),
                    ("line".into(), Value::Num(a.line as f64)),
                    ("justification".into(), Value::Str(a.justification.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("tool".into(), Value::Str("abs-lint".to_string())),
            ("schema_version".into(), Value::Num(f64::from(REPORT_VERSION))),
            ("root".into(), Value::Str(self.root.clone())),
            ("clean".into(), Value::Bool(self.is_clean())),
            ("files_scanned".into(), Value::Num(self.files_scanned as f64)),
            (
                "manifests_scanned".into(),
                Value::Num(self.manifests_scanned as f64),
            ),
            ("findings".into(), Value::Arr(findings)),
            ("allows".into(), Value::Arr(allows)),
        ])
    }

    /// Writes `lint_report.json` into `dir`, creating it if needed.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("lint_report.json");
        std::fs::write(&path, self.to_json().render_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn sample() -> Report {
        Report {
            root: "/ws".into(),
            findings: vec![Finding::new(
                Rule::Determinism,
                "crates/coherence/src/directory.rs",
                10,
                "`HashMap` in simulation code",
            )],
            allows: vec![Allow {
                rules: vec![Rule::PanicPath],
                file: "crates/net/src/packet.rs".into(),
                line: 5,
                justification: "occupancy bit set implies non-empty queue".into(),
            }],
            files_scanned: 90,
            manifests_scanned: 11,
        }
    }

    #[test]
    fn text_has_file_line_diagnostics_and_summary() {
        let text = sample().to_text();
        assert!(
            text.contains("crates/coherence/src/directory.rs:10: determinism:"),
            "{text}"
        );
        assert!(text.contains("1 finding(s) across 90 files"), "{text}");
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let rendered = sample().to_json().render_pretty();
        let v = Value::parse(&rendered).expect("report JSON parses");
        assert_eq!(v.get("tool").and_then(Value::as_str), Some("abs-lint"));
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
        let findings = v.get("findings").and_then(Value::as_array).expect("array");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(Value::as_str),
            Some("determinism")
        );
        assert_eq!(
            v.get("schema_version").and_then(Value::as_f64),
            Some(f64::from(REPORT_VERSION))
        );
        assert_eq!(findings[0].get("line").and_then(Value::as_f64), Some(10.0));
        let allows = v.get("allows").and_then(Value::as_array).expect("array");
        assert_eq!(
            allows[0].get("justification").and_then(Value::as_str),
            Some("occupancy bit set implies non-empty queue")
        );
    }

    #[test]
    fn clean_report_is_clean() {
        let mut r = sample();
        r.findings.clear();
        assert!(r.is_clean());
        assert_eq!(r.to_json().get("clean").and_then(Value::as_bool), Some(true));
    }
}
