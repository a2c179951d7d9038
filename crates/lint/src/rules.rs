//! The rule engine: token-level checks over one Rust source file.
//!
//! Four rules protect the reproduction's determinism claims (the catalog
//! with full rationale lives in `DESIGN.md` §10):
//!
//! * **determinism** — simulation crates must not name unordered
//!   collections (`HashMap`/`HashSet`/`RandomState`), wall clocks
//!   (`Instant`/`SystemTime`), or ambient randomness (`thread_rng`). Any
//!   of these can silently change results between runs or hosts.
//! * **panic-path** — library non-test code must not call `.unwrap()` or
//!   `.expect(…)`; a panic mid-simulation aborts a whole `repro` job and
//!   the escape hatch forces the invariant to be written down.
//! * **unsafe-audit** — every `unsafe` occurrence needs a `// SAFETY:`
//!   comment within the three preceding lines.
//! * **allow-grammar** — the escape hatch itself must be well-formed and
//!   carry a justification.
//!
//! The escape hatch is an in-source comment that must *begin* the comment
//! (so prose mentioning the grammar is inert) and suppresses matching
//! findings on its own line and the line below:
//!
//! ```text
//! # abs-lint escape hatch, quoted so this doc comment stays inert:
//! #   abs-lint: allow(<rule>[, <rule>…]) -- <justification>
//! ```
//!
//! Test code (items under `#[cfg(test)]` or `#[test]`) is exempt from the
//! determinism and panic-path rules but not from the unsafe audit.

use std::fmt;

use crate::sem::ParsedFile;
use crate::tokenizer::{TokKind, Token};

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered collections, wall clocks, ambient RNG in sim crates.
    Determinism,
    /// Manifest policy: path-only deps, no build scripts, no externals.
    Hermeticity,
    /// `.unwrap()` / `.expect(…)` in library non-test code.
    PanicPath,
    /// `unsafe` without an adjacent `SAFETY:` comment.
    UnsafeAudit,
    /// Malformed `abs-lint: allow(…)` directives.
    AllowGrammar,
    /// Truncating casts / unchecked `+`·`*` on accounting state
    /// ([`crate::sem`]).
    Arith,
    /// `run_with` types not named by any kernel-equivalence test
    /// ([`crate::sem`]).
    ContractXref,
    /// An allow directive that no longer suppresses anything
    /// ([`crate::lint_workspace`]).
    StaleAllow,
}

impl Rule {
    /// The rules an `allow(…)` directive may name: everything except the
    /// grammar rule (which guards the directives themselves) and the
    /// staleness rule (allowing a stale allow would be self-defeating).
    pub const ALLOWABLE: [Rule; 6] = [
        Rule::Determinism,
        Rule::Hermeticity,
        Rule::PanicPath,
        Rule::UnsafeAudit,
        Rule::Arith,
        Rule::ContractXref,
    ];

    /// The kebab-case rule name used in directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Hermeticity => "hermeticity",
            Rule::PanicPath => "panic-path",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::AllowGrammar => "allow-grammar",
            Rule::Arith => "arith",
            Rule::ContractXref => "contract-xref",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// Parses a directive rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALLOWABLE.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violated at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` at `file:line`.
    pub fn new(rule: Rule, file: impl Into<String>, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One parsed escape-hatch directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rules the directive suppresses.
    pub rules: Vec<Rule>,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The mandatory justification after `--`.
    pub justification: String,
}

impl Allow {
    /// Whether this directive suppresses a finding of `rule` on `line`
    /// (the directive's own line, for trailing comments, or the line
    /// directly below, for directives placed above the offending line).
    pub fn covers(&self, rule: Rule, line: u32) -> bool {
        self.rules.contains(&rule) && (line == self.line || line == self.line + 1)
    }
}

/// Which rules apply to one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcePolicy {
    /// Apply the determinism rule (simulation crates only).
    pub determinism: bool,
    /// Apply the panic-path rule (library code; not tests/benches).
    pub panic_path: bool,
}

impl SourcePolicy {
    /// Policy for simulation-crate library sources.
    pub fn sim_crate() -> Self {
        Self {
            determinism: true,
            panic_path: true,
        }
    }

    /// Policy for harness/tooling library sources (`abs-exec`, `abs-obs`,
    /// `abs-bench`, `abs-lint`, the facade).
    pub fn harness_crate() -> Self {
        Self {
            determinism: false,
            panic_path: true,
        }
    }

    /// Policy for test/bench/example sources: unsafe audit only.
    pub fn test_code() -> Self {
        Self {
            determinism: false,
            panic_path: false,
        }
    }
}

/// Identifiers the determinism rule forbids in simulation crates, with the
/// reason each endangers reproducibility.
const DETERMINISM_BANS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is unspecified and varies across runs; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is unspecified and varies across runs; use BTreeSet",
    ),
    (
        "RandomState",
        "randomized hashing makes any derived order run-dependent",
    ),
    (
        "Instant",
        "wall-clock reads do not replay; use the simulated cycle clock",
    ),
    (
        "SystemTime",
        "wall-clock reads do not replay; use the simulated cycle clock",
    ),
    (
        "thread_rng",
        "ambient RNG is unseeded; use abs_sim::rng seeded from the run seed",
    ),
];

/// Scans one Rust source file. Returns surviving findings (allow
/// directives already applied) plus every well-formed directive, for the
/// report's audit trail.
pub fn scan_source(rel_path: &str, text: &str, policy: SourcePolicy) -> (Vec<Finding>, Vec<Allow>) {
    let (mut findings, allows) = scan_tokens(&ParsedFile::parse(rel_path, text, policy));
    findings.retain(|f| {
        f.rule == Rule::AllowGrammar || !allows.iter().any(|a| a.covers(f.rule, f.line))
    });
    (findings, allows)
}

/// Runs the token rules over a parsed file and returns every finding
/// *before* allow suppression. [`crate::lint_workspace`] needs the raw set
/// to decide which allows are stale, and applies suppression itself after
/// merging in the semantic rules.
pub fn scan_tokens(pf: &ParsedFile) -> (Vec<Finding>, Vec<Allow>) {
    let (rel_path, policy, tokens) = (pf.rel.as_str(), pf.policy, &pf.tokens);
    let mut findings = Vec::new();
    let mut allows = Vec::new();

    for token in tokens {
        if let TokKind::LineComment | TokKind::BlockComment = token.kind {
            match parse_directive(&token.text) {
                DirectiveParse::NotADirective => {}
                DirectiveParse::Ok { rules, justification } => allows.push(Allow {
                    rules,
                    file: rel_path.to_string(),
                    line: token.line,
                    justification,
                }),
                DirectiveParse::Malformed(why) => {
                    findings.push(Finding::new(Rule::AllowGrammar, rel_path, token.line, why))
                }
            }
        }
    }

    let in_test = pf.test_mask();
    let safety_lines = safety_comment_lines(tokens);

    // Code tokens with their position in the full stream.
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_code())
        .collect();

    for (ci, &(ti, token)) in code.iter().enumerate() {
        if token.kind != TokKind::Ident {
            continue;
        }
        if policy.determinism && !in_test[ti] {
            if let Some((_, reason)) = DETERMINISM_BANS.iter().find(|(n, _)| *n == token.text) {
                findings.push(Finding::new(
                    Rule::Determinism,
                    rel_path,
                    token.line,
                    format!("`{}` in simulation code: {reason}", token.text),
                ));
            }
        }
        if policy.panic_path
            && !in_test[ti]
            && (token.text == "unwrap" || token.text == "expect")
            && ci > 0
            && code[ci - 1].1.text == "."
            && matches!(code.get(ci + 1), Some((_, t)) if t.text == "(")
        {
            findings.push(Finding::new(
                Rule::PanicPath,
                rel_path,
                token.line,
                format!(
                    "`.{}(…)` in library code: panics abort the whole repro job; \
                     return an error or justify the invariant via the allow directive",
                    token.text
                ),
            ));
        }
        if token.text == "unsafe" {
            let documented = safety_lines
                .iter()
                .any(|&l| l <= token.line && token.line.saturating_sub(l) <= 3);
            if !documented {
                findings.push(Finding::new(
                    Rule::UnsafeAudit,
                    rel_path,
                    token.line,
                    "`unsafe` without a `SAFETY:` comment within the three \
                     preceding lines",
                ));
            }
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, allows)
}

/// Lines on which a `SAFETY:` comment *ends* (multi-line block comments
/// count at their last line, nearest the code they document).
fn safety_comment_lines(tokens: &[Token]) -> Vec<u32> {
    tokens
        .iter()
        .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .filter(|t| t.text.contains("SAFETY:"))
        .map(|t| t.line.saturating_add(u32::try_from(t.text.matches('\n').count()).unwrap_or(u32::MAX)))
        .collect()
}

/// Result of trying to read a directive out of one comment.
enum DirectiveParse {
    NotADirective,
    Ok {
        rules: Vec<Rule>,
        justification: String,
    },
    Malformed(String),
}

/// Parses `abs-lint: allow(rule[, rule]) -- justification` from a comment.
/// The directive must begin the comment body (after the `//`/`/*` sigils),
/// so prose that merely mentions the grammar never parses as one.
fn parse_directive(comment: &str) -> DirectiveParse {
    let body = comment
        .trim_start_matches(['/', '*', '!'])
        .trim_start();
    let Some(rest) = body.strip_prefix("abs-lint:") else {
        return DirectiveParse::NotADirective;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return DirectiveParse::Malformed(
            "directive must be `abs-lint: allow(<rule>[, <rule>…]) -- <justification>`"
                .to_string(),
        );
    };
    let Some(close) = rest.find(')') else {
        return DirectiveParse::Malformed("unclosed `allow(` in directive".to_string());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match Rule::from_name(name) {
            Some(rule) => rules.push(rule),
            None => {
                return DirectiveParse::Malformed(format!(
                    "unknown rule {name:?} in allow directive; known: {}",
                    Rule::ALLOWABLE.map(Rule::name).join(", ")
                ))
            }
        }
    }
    if rules.is_empty() {
        return DirectiveParse::Malformed("empty rule list in allow directive".to_string());
    }
    let after = rest[close + 1..].trim_start();
    let Some(justification) = after.strip_prefix("--") else {
        return DirectiveParse::Malformed(
            "allow directive is missing its `-- <justification>`".to_string(),
        );
    };
    let justification = justification.trim().trim_end_matches("*/").trim();
    if justification.is_empty() {
        return DirectiveParse::Malformed(
            "allow directive has an empty justification".to_string(),
        );
    }
    DirectiveParse::Ok {
        rules,
        justification: justification.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_findings(src: &str) -> Vec<Finding> {
        scan_source("test.rs", src, SourcePolicy::sim_crate()).0
    }

    #[test]
    fn determinism_flags_hashmap_with_line() {
        let f = sim_findings("use std::collections::HashMap;\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("BTreeMap"));
    }

    #[test]
    fn determinism_ignores_strings_comments_and_tests() {
        let src = r#"
            // a HashMap in a comment
            const NAME: &str = "HashMap";
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let _ = HashMap::<u8, u8>::new(); }
            }
        "#;
        assert!(sim_findings(src).is_empty(), "{:?}", sim_findings(src));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn f() { let x: HashMap<u8,u8> = HashMap::new(); }\n";
        assert_eq!(sim_findings(src).len(), 2);
    }

    #[test]
    fn panic_path_flags_unwrap_and_expect_only_as_calls() {
        let src = "fn f() { a.unwrap(); b.expect(\"why\"); c.unwrap_or(0); d.expect_err(); }";
        let f = sim_findings(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::PanicPath));
    }

    #[test]
    fn test_functions_may_unwrap() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        let f = sim_findings(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let src = "\
fn f() {
    // abs-lint: allow(panic-path) -- the queue is non-empty by the phase invariant
    q.front().unwrap();
    r.pop().unwrap(); // abs-lint: allow(panic-path) -- pushed two lines above

    s.take().unwrap();
}
";
        let (f, allows) = scan_source("t.rs", src, SourcePolicy::sim_crate());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert_eq!(allows.len(), 2);
        assert!(allows[0].justification.contains("phase invariant"));
    }

    #[test]
    fn allow_does_not_cross_rules() {
        let src = "// abs-lint: allow(determinism) -- not about panics\nx.unwrap();\n";
        let f = sim_findings(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PanicPath);
    }

    #[test]
    fn malformed_directives_are_findings() {
        for (src, needle) in [
            ("// abs-lint: allow(panic-path)\nx();\n", "justification"),
            ("// abs-lint: allow(panic-path) -- \nx();\n", "empty justification"),
            ("// abs-lint: allow(warp-core) -- because\n", "unknown rule"),
            ("// abs-lint: deny(panic-path) -- because\n", "must be"),
            ("// abs-lint: allow() -- because\n", "unknown rule"),
            ("// abs-lint: allow(panic-deep) -- because\n", "unknown rule"),
            ("// abs-lint: allow(determinism-flow) -- because\n", "unknown rule"),
        ] {
            let f = sim_findings(src);
            assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
            assert_eq!(f[0].rule, Rule::AllowGrammar);
            assert!(f[0].message.contains(needle), "{src:?} -> {}", f[0].message);
        }
    }

    #[test]
    fn prose_mentioning_the_grammar_is_inert() {
        let src = "/// Annotate with `abs-lint: allow(panic-path) -- reason` to opt out.\nfn f() {}\n";
        // Doc comments whose body starts with a backtick are not directives.
        let (f, allows) = scan_source("t.rs", src, SourcePolicy::sim_crate());
        assert!(f.is_empty(), "{f:?}");
        assert!(allows.is_empty());
    }

    #[test]
    fn multi_rule_allow() {
        let src = "// abs-lint: allow(determinism, panic-path) -- measured host timing\n\
                   let t = Instant::now().elapsed().as_secs_f64().to_string().parse::<f64>().unwrap();\n";
        assert!(sim_findings(src).is_empty());
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let f = scan_source("t.rs", bad, SourcePolicy::test_code()).0;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeAudit);

        let good = "fn f() {\n    // SAFETY: guarded by the bounds check above.\n    unsafe { x() }\n}";
        assert!(scan_source("t.rs", good, SourcePolicy::test_code()).0.is_empty());

        let far = "fn f() {\n    // SAFETY: too far away.\n\n\n\n\n    unsafe { x() }\n}";
        assert_eq!(scan_source("t.rs", far, SourcePolicy::test_code()).0.len(), 1);
    }

    #[test]
    fn unsafe_audit_applies_even_in_test_code() {
        let src = "#[test]\nfn t() { unsafe { x() } }";
        let f = scan_source("t.rs", src, SourcePolicy::sim_crate()).0;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeAudit);
    }

    #[test]
    fn harness_policy_skips_determinism() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        assert!(scan_source("t.rs", src, SourcePolicy::harness_crate()).0.is_empty());
        assert_eq!(sim_findings(src).len(), 2);
    }

    #[test]
    fn findings_render_as_file_line_rule() {
        let f = sim_findings("fn f() { x.unwrap(); }");
        let line = f[0].to_string();
        assert!(line.starts_with("test.rs:1: panic-path:"), "{line}");
    }
}
