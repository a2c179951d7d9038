//! Semantic rules over the parsed AST: the two rule families that token
//! scanning cannot express.
//!
//! * **arith** ([`Rule::Arith`]) — truncating `as` casts to a narrower
//!   integer with a non-literal operand, and unchecked `+`/`*`
//!   (including `+=`/`*=`) whose operand is an accounting counter
//!   ([`ACCOUNTING_VOCAB`]): the cycle/access/id totals the paper's
//!   exhibits are built from. At N = 2²⁰ a single silent truncation
//!   corrupts an exhibit, so these demand `checked_`/`saturating_`/
//!   widening arithmetic or a justified allow.
//! * **contract-xref** ([`Rule::ContractXref`]) — every type whose
//!   impl defines `run_with` must be named by a kernel-equivalence test
//!   (a test scope containing a `kernels_*` test fn), keeping the
//!   bit-identity contract suite in lockstep with the simulators.
//!
//! All checks walk sibling lists of the structural expression tree, so a
//! pattern inside a string, comment, or `#[cfg(test)]` region can never
//! fire.

use std::collections::BTreeSet;

use crate::parser::{parse, Ast, Delim, Item, ItemKind, Node, NodeKind, Span};
use crate::rules::{Finding, Rule, SourcePolicy};
use crate::tokenizer::{tokenize, TokKind, Token};

/// One source file, tokenized and parsed, ready for semantic scanning.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// The rule policy [`crate::workspace`] assigned to the file.
    pub policy: SourcePolicy,
    /// The lossless token stream.
    pub tokens: Vec<Token>,
    /// The parse over it.
    pub ast: Ast,
}

impl ParsedFile {
    /// Tokenizes and parses one source file.
    pub fn parse(rel: &str, text: &str, policy: SourcePolicy) -> Self {
        let tokens = tokenize(text);
        let ast = parse(&tokens);
        ParsedFile {
            rel: rel.to_string(),
            policy,
            tokens,
            ast,
        }
    }

    /// Source text of a span.
    pub fn text_of(&self, span: Span) -> String {
        self.tokens[span.lo..span.hi]
            .iter()
            .map(|t| t.text.as_str())
            .collect()
    }

    /// Marks every token of a `#[cfg(test)]`/`#[test]` item, attributes
    /// and leading trivia included, looking through `impl`, `trait` and
    /// `mod` bodies.
    pub fn test_mask(&self) -> Vec<bool> {
        fn mark(items: &[Item], mask: &mut [bool]) {
            for item in items {
                if is_test_item(item) {
                    mask[item.span.lo..item.span.hi].fill(true);
                    continue;
                }
                match &item.kind {
                    ItemKind::Impl(b) => mark(&b.items, mask),
                    ItemKind::Trait(b) => mark(&b.items, mask),
                    ItemKind::Mod(b) => mark(b.items.as_deref().unwrap_or_default(), mask),
                    ItemKind::Fn(_) | ItemKind::Other => {}
                }
            }
        }
        let mut mask = vec![false; self.tokens.len()];
        mark(&self.ast.items, &mut mask);
        mask
    }

    /// 1-based line of the first code token in `span` (falls back to the
    /// span's first token).
    pub fn first_code_line(&self, span: Span) -> u32 {
        self.tokens[span.lo..span.hi]
            .iter()
            .find(|t| t.is_code())
            .or_else(|| self.tokens.get(span.lo))
            .map_or(1, |t| t.line)
    }
}

/// Counters whose silent overflow or truncation corrupts an exhibit: the
/// access/cycle/occupancy accounting vocabulary shared by the sim crates.
pub const ACCOUNTING_VOCAB: &[&str] = &[
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

/// Integer types an `as` cast may truncate into.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Rust keywords (idents that are never call or operand names).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while",
];

/// Whether an item's attributes gate it to test builds.
fn is_test_item(item: &Item) -> bool {
    item.attrs.iter().any(|a| {
        a.body == "test"
            || a.body == "cfg(test)"
            || a.body.starts_with("cfg(test,")
            || a.body.starts_with("cfg(all(test")
    })
}

/// Runs the per-file semantic rules.
pub fn scan_file(pf: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    scan_items(pf, &pf.ast.items, false, &mut out);
    out
}

fn scan_items(pf: &ParsedFile, items: &[Item], in_test: bool, out: &mut Vec<Finding>) {
    for item in items {
        let test = in_test || is_test_item(item);
        match &item.kind {
            ItemKind::Fn(f) => {
                if let Some(body) = &f.body {
                    Scanner {
                        pf,
                        is_test: test,
                        out,
                    }
                    .descend(body);
                }
            }
            ItemKind::Impl(b) => scan_items(pf, &b.items, test, out),
            ItemKind::Trait(b) => scan_items(pf, &b.items, test, out),
            ItemKind::Mod(b) => {
                if let Some(items) = &b.items {
                    scan_items(pf, items, test, out);
                }
            }
            ItemKind::Other => {}
        }
    }
}

struct Scanner<'a> {
    pf: &'a ParsedFile,
    is_test: bool,
    out: &'a mut Vec<Finding>,
}

impl Scanner<'_> {
    /// Scans every sibling list under `node`.
    fn descend(&mut self, node: &Node) {
        let NodeKind::Group { children, .. } = &node.kind else {
            return;
        };
        for (i, child) in children.iter().enumerate() {
            match &child.kind {
                NodeKind::Leaf => {
                    let pf = self.pf;
                    let token = &pf.tokens[child.span.hi - 1];
                    match token.text.as_str() {
                        "as" => self.cast_check(children, i, token.line),
                        op @ ("+" | "*") => self.arith_checks(children, i, op, token.line),
                        _ => {}
                    }
                }
                NodeKind::Group { .. } => self.descend(child),
            }
        }
    }

    // ----- token/sibling helpers ----------------------------------------

    fn leaf_token(&self, node: &Node) -> &Token {
        &self.pf.tokens[node.span.hi - 1]
    }

    fn leaf_text(&self, node: &Node) -> Option<&str> {
        match node.kind {
            NodeKind::Leaf => Some(self.leaf_token(node).text.as_str()),
            _ => None,
        }
    }

    fn leaf_kind(&self, node: &Node) -> Option<TokKind> {
        match node.kind {
            NodeKind::Leaf => Some(self.leaf_token(node).kind),
            _ => None,
        }
    }

    fn is_ident(&self, node: &Node) -> bool {
        self.leaf_kind(node) == Some(TokKind::Ident)
            && !KEYWORDS.contains(&self.leaf_token(node).text.as_str())
    }

    /// The code token immediately after token index `at` in the stream.
    fn next_code_text(&self, at: usize) -> &str {
        self.pf.tokens[at + 1..]
            .iter()
            .find(|t| t.is_code())
            .map_or("", |t| t.text.as_str())
    }

    fn push(&mut self, line: u32, message: String) {
        self.out.push(Finding::new(
            Rule::Arith,
            self.pf.rel.clone(),
            line,
            message,
        ));
    }

    /// Terminal identifier of the operand ending at sibling `i`
    /// (exclusive): the callee of a trailing call, or the last field of a
    /// `a.b.c` chain.
    fn terminal_ident_before(&self, sibs: &[Node], i: usize) -> Option<String> {
        let mut j = i.checked_sub(1)?;
        if matches!(
            sibs[j].kind,
            NodeKind::Group {
                delim: Delim::Paren,
                ..
            }
        ) {
            j = j.checked_sub(1)?;
        }
        if self.is_ident(&sibs[j]) {
            return Some(self.leaf_token(&sibs[j]).text.clone());
        }
        None
    }

    /// Terminal identifier of the operand starting at sibling `i`
    /// (inclusive): the last identifier of a `a.b.c(...)` chain.
    fn terminal_ident_after(&self, sibs: &[Node], i: usize) -> Option<String> {
        let mut j = i;
        let mut last = None;
        while j < sibs.len() {
            let node = &sibs[j];
            if self.is_ident(node) {
                last = Some(self.leaf_token(node).text.clone());
                j += 1;
                continue;
            }
            match (self.leaf_text(node), &node.kind) {
                (Some("."), _) | (Some(":"), _) | (Some("self"), _) | (Some("Self"), _) => j += 1,
                (
                    _,
                    NodeKind::Group {
                        delim: Delim::Paren,
                        ..
                    },
                ) if last.is_some() => j += 1,
                _ => break,
            }
        }
        last
    }

    // ----- the checks ---------------------------------------------------

    /// Truncating `as` casts to a narrower integer on a non-literal value.
    fn cast_check(&mut self, sibs: &[Node], i: usize, line: u32) {
        if !self.pf.policy.panic_path || self.is_test || i == 0 {
            return;
        }
        let Some(target) = sibs.get(i + 1).and_then(|n| self.leaf_text(n)) else {
            return;
        };
        let operand_literal = matches!(
            self.leaf_kind(&sibs[i - 1]),
            Some(TokKind::Number) | Some(TokKind::Char)
        );
        if NARROW_TARGETS.contains(&target) && !operand_literal {
            let message = format!(
                "truncating `as {target}` on a non-literal value silently wraps at \
                 scale; use `{target}::try_from(…)`, widen the type, or add a \
                 justified allow"
            );
            self.push(line, message);
        }
    }

    /// Unchecked `+`/`*` (plain or compound) on accounting counters.
    fn arith_checks(&mut self, sibs: &[Node], i: usize, op: &str, line: u32) {
        if !self.pf.policy.panic_path || self.is_test {
            return;
        }
        let op_token = sibs[i].span.hi - 1;
        let compound = self.next_code_text(op_token) == "=";
        if compound {
            // `counter += …` / `counter *= …`: the target is the chain
            // ending right before the operator.
            if let Some(target) = self.terminal_ident_before(sibs, i) {
                if ACCOUNTING_VOCAB.contains(&target.as_str()) {
                    self.push(
                        line,
                        format!(
                            "unchecked `{op}=` on accounting counter `{target}`: overflow \
                             wraps silently; use `saturating_`/`checked_` arithmetic or \
                             add a justified allow"
                        ),
                    );
                }
            }
            return;
        }
        // Binary form. A `*` with no value-like left neighbor is a deref;
        // that includes one right after a block (`while c { … } *slot = v`).
        let prev_valueish = i > 0
            && (self.is_ident(&sibs[i - 1])
                || matches!(self.leaf_kind(&sibs[i - 1]), Some(TokKind::Number))
                || matches!(
                    sibs[i - 1].kind,
                    NodeKind::Group {
                        delim: Delim::Paren | Delim::Bracket,
                        ..
                    }
                ));
        if !prev_valueish {
            return;
        }
        // Skip `+` that is really part of `+=` handled above, or operators
        // glued from two tokens (`->`, `=>` never reach here for + / *).
        let left = self.terminal_ident_before(sibs, i);
        let right = self.terminal_ident_after(sibs, i + 1);
        for ident in [left, right].into_iter().flatten() {
            if ACCOUNTING_VOCAB.contains(&ident.as_str()) {
                self.push(
                    line,
                    format!(
                        "unchecked `{op}` involving accounting counter `{ident}`: \
                         overflow wraps silently; use `saturating_`/`checked_` \
                         arithmetic or add a justified allow"
                    ),
                );
                return;
            }
        }
    }
}

/// The workspace-level contract cross-reference: every type whose impl
/// defines `run_with` must be named by a test scope that also defines a
/// `kernels_*` test (the bit-identity/equivalence suites).
pub fn contract_xref(files: &[ParsedFile]) -> Vec<Finding> {
    // Corpus: the text of every test scope that mentions a kernels_* fn.
    let mut corpus = String::new();
    for pf in files {
        if !pf.policy.panic_path {
            // Whole file is test/bench/example code.
            let text = pf.text_of(Span {
                lo: 0,
                hi: pf.ast.len,
            });
            if text.contains("kernels_") {
                corpus.push_str(&text);
                corpus.push('\n');
            }
            continue;
        }
        collect_test_regions(pf, &pf.ast.items, false, &mut corpus);
    }

    // Candidates: (type, file, line) of each non-test `run_with` impl.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut findings = Vec::new();
    for pf in files {
        if !pf.policy.panic_path {
            continue;
        }
        collect_run_with(pf, &pf.ast.items, false, &mut |ty: &str, line: u32| {
            if !seen.insert(ty.to_string()) {
                return;
            }
            if !contains_word(&corpus, ty) {
                findings.push(Finding::new(
                    Rule::ContractXref,
                    pf.rel.clone(),
                    line,
                    format!(
                        "type `{ty}` defines `run_with` but no kernel-equivalence test \
                         (`kernels_*`) names it; add it to the bit-identity suite or \
                         justify with an allow"
                    ),
                ));
            }
        });
    }
    findings
}

fn collect_test_regions(pf: &ParsedFile, items: &[Item], in_test: bool, corpus: &mut String) {
    for item in items {
        let test = in_test || is_test_item(item);
        if test {
            let text = pf.text_of(item.span);
            if text.contains("kernels_") {
                corpus.push_str(&text);
                corpus.push('\n');
            }
            continue;
        }
        match &item.kind {
            ItemKind::Impl(b) => collect_test_regions(pf, &b.items, test, corpus),
            ItemKind::Trait(b) => collect_test_regions(pf, &b.items, test, corpus),
            ItemKind::Mod(b) => {
                if let Some(items) = &b.items {
                    collect_test_regions(pf, items, test, corpus);
                }
            }
            _ => {}
        }
    }
}

fn collect_run_with(
    pf: &ParsedFile,
    items: &[Item],
    in_test: bool,
    found: &mut impl FnMut(&str, u32),
) {
    for item in items {
        let test = in_test || is_test_item(item);
        if test {
            continue;
        }
        match &item.kind {
            ItemKind::Impl(b) => {
                let defines = b.items.iter().any(|i| {
                    matches!(&i.kind, ItemKind::Fn(f) if f.name == "run_with" && f.body.is_some())
                });
                if defines && !b.self_ty.is_empty() {
                    found(&b.self_ty, pf.first_code_line(item.span));
                }
            }
            ItemKind::Mod(m) => {
                if let Some(items) = &m.items {
                    collect_run_with(pf, items, test, found);
                }
            }
            _ => {}
        }
    }
}

/// Whole-word containment (neighbors must not be identifier characters).
fn contains_word(haystack: &str, word: &str) -> bool {
    if word.is_empty() {
        return false;
    }
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(at) = haystack[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(src: &str) -> Vec<Finding> {
        let pf = ParsedFile::parse("crates/core/src/t.rs", src, SourcePolicy::sim_crate());
        scan_file(&pf)
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn narrowing_cast_is_flagged_with_line() {
        let f = sim("fn f(id: usize) -> u32 {\n    id as u32\n}\n");
        assert_eq!(rules_of(&f), [Rule::Arith]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("try_from"));
    }

    #[test]
    fn widening_and_literal_casts_are_fine() {
        assert!(sim("fn f(x: u32) -> u64 { x as u64 }").is_empty());
        assert!(sim("fn f() -> u32 { 7 as u32 }").is_empty());
        assert!(sim("fn f() -> u32 { 'x' as u32 }").is_empty());
        assert!(sim("fn f(x: u32) -> usize { x as usize }").is_empty());
    }

    #[test]
    fn narrowing_cast_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(id: usize) -> u32 { id as u32 }\n}\n";
        assert!(sim(src).is_empty());
    }

    #[test]
    fn compound_add_on_accounting_counter() {
        let f = sim("fn f(&mut self) {\n    self.cycles += 1;\n}\n");
        assert_eq!(rules_of(&f), [Rule::Arith]);
        assert!(f[0].message.contains("`+=`"), "{}", f[0].message);
        assert!(f[0].message.contains("cycles"));
    }

    #[test]
    fn binary_add_on_accounting_counter() {
        let f = sim("fn f(&self) -> u64 { self.local + self.root.completion() }");
        assert_eq!(rules_of(&f), [Rule::Arith]);
        assert!(f[0].message.contains("completion"));
    }

    #[test]
    fn saturating_add_is_fine() {
        assert!(sim("fn f(&mut self) { self.cycles = self.cycles.saturating_add(1); }").is_empty());
    }

    #[test]
    fn plain_counters_do_not_fire() {
        assert!(sim("fn f(i: usize) -> usize { i + 1 }").is_empty());
        assert!(sim("fn f(&mut self) { self.idx += 1; }").is_empty());
    }

    #[test]
    fn deref_star_is_not_multiplication() {
        assert!(sim("fn f(p: &u64) -> u64 { let x = *p; x }").is_empty());
        assert!(sim("fn f(cycles: &mut u64) { while busy() { step(); } *cycles = 0; }").is_empty());
    }

    #[test]
    fn contract_xref_requires_a_kernels_test() {
        let lib = "pub struct Sim;\nimpl Sim {\n    pub fn run_with(&self, seed: u64, kernel: u8) {}\n}\n";
        let pf = ParsedFile::parse("crates/core/src/sim.rs", lib, SourcePolicy::sim_crate());
        let f = contract_xref(&[pf]);
        assert_eq!(rules_of(&f), [Rule::ContractXref]);
        assert!(f[0].message.contains("`Sim`"));

        // Naming the type in a kernels_* test scope satisfies the rule.
        let test_file = "#[test]\nfn kernels_bit_identical() { let _ = Sim; }\n";
        let pf = ParsedFile::parse("crates/core/src/sim.rs", lib, SourcePolicy::sim_crate());
        let tf = ParsedFile::parse("crates/core/tests/eq.rs", test_file, SourcePolicy::test_code());
        assert!(contract_xref(&[pf, tf]).is_empty());
    }

    #[test]
    fn contract_xref_word_boundaries() {
        // `MySim` in the corpus must not satisfy the lookup for `Sim`.
        let lib = "pub struct Sim;\nimpl Sim { pub fn run_with(&self) {} }\n";
        let test_file = "#[test]\nfn kernels_eq() { let _ = MySim; }\n";
        let pf = ParsedFile::parse("crates/core/src/sim.rs", lib, SourcePolicy::sim_crate());
        let tf = ParsedFile::parse("crates/core/tests/eq.rs", test_file, SourcePolicy::test_code());
        assert_eq!(contract_xref(&[pf, tf]).len(), 1);
    }
}
