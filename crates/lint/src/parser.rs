//! A lenient recursive-descent parser over the lossless token stream.
//!
//! The semantic rules ([`crate::sem`]) need more than tokens: *which fn
//! body and which test scope a token is in* (arith) and *which impl
//! defines which method* (contract cross-reference). This parser recovers
//! exactly that much structure — items, fns, impls, and a tree of
//! delimiter groups — and deliberately no more: control flow, operator
//! precedence, patterns, and types stay flat token runs.
//!
//! Two invariants make the output trustworthy without a full grammar:
//!
//! * **Spans tile.** Every node's [`Span`] is a half-open token-index
//!   range; children tile their parent's interior and consecutive
//!   siblings touch. Concatenating any node's tokens reproduces the
//!   source bytes of that region exactly ([`Ast::print`] of the root is
//!   the whole file). `validate_tiling` checks this and the `forall!`
//!   property in `tests/parser_props.rs` fuzzes it; the parse → print →
//!   reparse round trip must also yield an identical tree.
//! * **Leniency.** Unknown constructs become [`ItemKind::Other`] /
//!   leaf runs instead of errors, so the lint can still scan a file that
//!   `rustc` would reject — the same contract the tokenizer keeps.
//!
//! Trivia (whitespace and comments) is attached to the *following*
//! construct: a node's span starts at the first trivia token after its
//! predecessor and ends after its last code token. Trailing trivia before
//! a closing brace or EOF is recorded in the enclosing container.

use crate::tokenizer::{tokenize, TokKind, Token};

/// A half-open token-index range `[lo, hi)` into the file's token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First token index covered.
    pub lo: usize,
    /// One past the last token index covered.
    pub hi: usize,
}

/// A parsed file: top-level items plus the trailing trivia run.
#[derive(Debug, Clone, PartialEq)]
pub struct Ast {
    /// Top-level items, in source order.
    pub items: Vec<Item>,
    /// Trivia between the last item and EOF.
    pub trailing: Span,
    /// Total token count (items + trailing tile `[0, len)`).
    pub len: usize,
}

/// One attribute, `#[...]` (outer) or `#![...]` (inner).
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Tokens of the attribute including leading trivia.
    pub span: Span,
    /// Joined code-token text between the brackets (`cfg(test)`).
    pub body: String,
}

/// One item: attributes plus a kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Full extent: leading trivia, attributes, and the item proper.
    pub span: Span,
    /// Outer attributes, in order.
    pub attrs: Vec<Attr>,
    /// What the item is.
    pub kind: ItemKind,
}

/// The item taxonomy — only as fine as the rules require.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    /// `fn name(...) {...}` (or a bodyless trait/extern decl).
    Fn(FnItem),
    /// `impl [Trait for] Type { items }`.
    Impl(ImplBlock),
    /// `mod name { items }` or `mod name;`.
    Mod(ModBlock),
    /// `trait Name { items }`.
    Trait(TraitBlock),
    /// Any other item (`struct`, `use`, `const`, macros, inner
    /// attributes, unrecognized input), consumed to its boundary.
    Other,
}

/// A function item.
#[derive(Debug, Clone, PartialEq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The body block, if present (`None` for `fn f();` declarations).
    pub body: Option<Node>,
}

/// An `impl` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplBlock {
    /// Last angle-depth-0 identifier of the self type (`Foo` in
    /// `impl<T> Foo<T>`).
    pub self_ty: String,
    /// Associated items.
    pub items: Vec<Item>,
    /// Trivia between the last associated item and the closing brace.
    pub trailing: Span,
}

/// A `mod` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ModBlock {
    /// Inline items (`None` for `mod name;`).
    pub items: Option<Vec<Item>>,
    /// Trivia before the closing brace (empty span for `mod name;`).
    pub trailing: Span,
}

/// A `trait` block.
#[derive(Debug, Clone, PartialEq)]
pub struct TraitBlock {
    /// Associated items (default methods keep their bodies).
    pub items: Vec<Item>,
    /// Trivia before the closing brace.
    pub trailing: Span,
}

/// Bracketing delimiter of a [`NodeKind::Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( ... )`
    Paren,
    /// `[ ... ]`
    Bracket,
    /// `{ ... }`
    Brace,
}

/// One node of the structural expression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Extent including leading trivia.
    pub span: Span,
    /// Node shape.
    pub kind: NodeKind,
}

/// Node taxonomy of the structural expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Exactly one code token (its index is `span.hi - 1`).
    Leaf,
    /// A delimited group; children tile the interior.
    Group {
        /// The bracketing delimiter.
        delim: Delim,
        /// Child nodes between the delimiters.
        children: Vec<Node>,
        /// Trivia between the last child and the closing delimiter.
        trailing: Span,
    },
}

/// Parses tokenized source. The token slice must be the full file (the
/// parser indexes it globally).
pub fn parse(tokens: &[Token]) -> Ast {
    Parser {
        tokens,
        pos: 0,
    }
    .file()
}

/// Convenience: tokenize then parse.
pub fn parse_source(src: &str) -> (Vec<Token>, Ast) {
    let tokens = tokenize(src);
    let ast = parse(&tokens);
    (tokens, ast)
}

/// Reconstructs the exact source text of `span` from the token stream.
pub fn print_span(tokens: &[Token], span: Span) -> String {
    tokens[span.lo..span.hi]
        .iter()
        .map(|t| t.text.as_str())
        .collect()
}

impl Ast {
    /// Reconstructs the whole file byte-for-byte.
    pub fn print(&self, tokens: &[Token]) -> String {
        print_span(
            tokens,
            Span {
                lo: 0,
                hi: self.len,
            },
        )
    }

    /// Checks the tiling invariant over the whole tree: items + trailing
    /// partition `[0, len)` and every container's children tile its
    /// interior. Returns a description of the first violation.
    pub fn validate_tiling(&self) -> Result<(), String> {
        let mut at = 0usize;
        for item in &self.items {
            if item.span.lo != at {
                return Err(format!("item gap: expected lo {at}, got {}", item.span.lo));
            }
            validate_item(item)?;
            at = item.span.hi;
        }
        if self.trailing.lo != at || self.trailing.hi != self.len {
            return Err(format!(
                "trailing [{}, {}) does not close [{}..{})",
                self.trailing.lo, self.trailing.hi, at, self.len
            ));
        }
        Ok(())
    }
}

fn validate_items(items: &[Item], interior_lo: usize, trailing: Span, hi: usize) -> Result<(), String> {
    let mut at = interior_lo;
    for item in items {
        if item.span.lo != at {
            return Err(format!("item gap: expected lo {at}, got {}", item.span.lo));
        }
        validate_item(item)?;
        at = item.span.hi;
    }
    if trailing.lo != at || trailing.hi != hi {
        return Err(format!(
            "container trailing [{}, {}) does not close [{}..{})",
            trailing.lo, trailing.hi, at, hi
        ));
    }
    Ok(())
}

fn validate_item(item: &Item) -> Result<(), String> {
    match &item.kind {
        ItemKind::Fn(f) => {
            if let Some(body) = &f.body {
                validate_node(body)?;
            }
            Ok(())
        }
        ItemKind::Impl(b) => validate_items(&b.items, b.items.first().map_or(b.trailing.lo, |i| i.span.lo), b.trailing, b.trailing.hi),
        ItemKind::Trait(b) => validate_items(&b.items, b.items.first().map_or(b.trailing.lo, |i| i.span.lo), b.trailing, b.trailing.hi),
        ItemKind::Mod(b) => match &b.items {
            Some(items) => validate_items(items, items.first().map_or(b.trailing.lo, |i| i.span.lo), b.trailing, b.trailing.hi),
            None => Ok(()),
        },
        _ => Ok(()),
    }
}

fn validate_node(node: &Node) -> Result<(), String> {
    match &node.kind {
        NodeKind::Leaf => {
            if node.span.hi <= node.span.lo {
                return Err("empty leaf".to_string());
            }
            Ok(())
        }
        NodeKind::Group {
            children, trailing, ..
        } => {
            // Interior starts right after the opening delimiter.
            let mut at = children.first().map_or(trailing.lo, |c| c.span.lo);
            for child in children {
                if child.span.lo != at {
                    return Err(format!("group gap: expected {at}, got {}", child.span.lo));
                }
                validate_node(child)?;
                at = child.span.hi;
            }
            if trailing.lo != at {
                return Err(format!("group trailing gap at {at}"));
            }
            Ok(())
        }
    }
}

/// Item-introducing modifier keywords consumed before the dispatch
/// keyword (`pub const unsafe fn ...`).
const MODIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "default", "extern"];

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn file(mut self) -> Ast {
        let mut items = Vec::new();
        loop {
            let mark = self.pos;
            self.skip_trivia();
            if self.pos >= self.tokens.len() {
                return Ast {
                    items,
                    trailing: Span {
                        lo: mark,
                        hi: self.tokens.len(),
                    },
                    len: self.tokens.len(),
                };
            }
            self.pos = mark;
            items.push(self.item());
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// The current token's text, or "" at EOF.
    fn cur_text(&self) -> &str {
        self.tokens.get(self.pos).map_or("", |t| t.text.as_str())
    }

    fn cur_kind(&self) -> Option<TokKind> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    /// Advances past whitespace and comments.
    fn skip_trivia(&mut self) {
        while let Some(tok) = self.tokens.get(self.pos) {
            if tok.is_code() {
                break;
            }
            self.pos += 1;
        }
    }

    /// The text of the next code token after the current one.
    fn peek_code_text(&self, skip: usize) -> &str {
        let mut seen = 0usize;
        for tok in &self.tokens[(self.pos + 1).min(self.tokens.len())..] {
            if tok.is_code() {
                if seen == skip {
                    return tok.text.as_str();
                }
                seen += 1;
            }
        }
        ""
    }

    /// Consumes one code token (the caller has already skipped trivia).
    fn bump(&mut self) {
        debug_assert!(self.pos < self.tokens.len());
        self.pos += 1;
    }

    /// Consumes an attribute at the cursor (`#[...]` or `#![...]`),
    /// returning its joined inner text. The cursor sits on `#`.
    fn attribute(&mut self) -> String {
        self.bump(); // #
        self.skip_trivia();
        if self.cur_text() == "!" {
            self.bump();
            self.skip_trivia();
        }
        if self.cur_text() != "[" {
            return String::new(); // malformed; leave the rest to leniency
        }
        self.bump(); // [
        let mut depth = 1usize;
        let mut body = String::new();
        while !self.at_end() {
            let tok = &self.tokens[self.pos];
            if tok.is_code() {
                match tok.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            return body;
                        }
                    }
                    _ => {}
                }
                body.push_str(&tok.text);
            }
            self.pos += 1;
        }
        body
    }

    /// Parses one item starting at `self.pos` (which may point at trivia).
    fn item(&mut self) -> Item {
        let lo = self.pos;
        self.skip_trivia();
        let mut attrs = Vec::new();

        // Inner attribute: an item of its own (it binds to the container,
        // not the next item).
        if self.cur_text() == "#" && self.peek_code_text(0) == "!" {
            let attr_lo = lo;
            self.attribute();
            return Item {
                span: Span {
                    lo: attr_lo,
                    hi: self.pos,
                },
                attrs,
                kind: ItemKind::Other,
            };
        }

        // Outer attributes.
        while self.cur_text() == "#" && self.peek_code_text(0) == "[" {
            let attr_lo = self.pos;
            let body = self.attribute();
            attrs.push(Attr {
                span: Span {
                    lo: attr_lo,
                    hi: self.pos,
                },
                body,
            });
            self.skip_trivia();
        }

        // Modifier keywords before the dispatching keyword.
        let mut saw_extern = false;
        loop {
            let text = self.cur_text();
            if self.cur_kind() == Some(TokKind::Ident) && MODIFIERS.contains(&text) {
                // `const NAME: …` / `default` as an ordinary name: these
                // words are modifiers only when another modifier or a
                // definable item follows (`const fn`, `default impl`).
                if matches!(text, "const" | "default")
                    && !matches!(
                        self.peek_code_text(0),
                        "fn" | "unsafe" | "async" | "extern" | "impl" | "type"
                    )
                {
                    break;
                }
                saw_extern = text == "extern";
                // `extern crate` is a use-like item, not a modifier.
                if saw_extern && self.peek_code_text(0) == "crate" {
                    self.consume_to_semi();
                    return self.finish(lo, attrs, ItemKind::Other);
                }
                self.bump();
                self.skip_trivia();
                // `pub(crate)` / `pub(in path)` / `extern "C"`.
                if self.cur_text() == "(" {
                    self.consume_balanced();
                    self.skip_trivia();
                }
                if self.cur_kind() == Some(TokKind::Str) {
                    self.bump();
                    self.skip_trivia();
                }
                continue;
            }
            break;
        }

        // `extern "C" { ... }` foreign module (extern already consumed).
        if saw_extern && self.cur_text() == "{" {
            self.consume_balanced();
            return self.finish(lo, attrs, ItemKind::Other);
        }

        let kind = match (self.cur_kind(), self.cur_text()) {
            (Some(TokKind::Ident), "fn") => {
                let f = self.fn_item();
                ItemKind::Fn(f)
            }
            (Some(TokKind::Ident), "impl") => ItemKind::Impl(self.impl_block()),
            (Some(TokKind::Ident), "mod") => ItemKind::Mod(self.mod_block()),
            (Some(TokKind::Ident), "trait") => ItemKind::Trait(self.trait_block()),
            (Some(TokKind::Ident), "use" | "const" | "static" | "type") => {
                // (Unreached for `const fn`: the modifier loop ate it.)
                self.consume_to_semi();
                ItemKind::Other
            }
            (Some(TokKind::Ident), "macro_rules") => {
                self.bump(); // macro_rules
                self.skip_trivia();
                if self.cur_text() == "!" {
                    self.bump();
                    self.skip_trivia();
                }
                if self.cur_kind() == Some(TokKind::Ident) {
                    self.bump(); // the macro's name
                    self.skip_trivia();
                }
                self.consume_balanced();
                ItemKind::Other
            }
            (Some(TokKind::Ident), _) if self.is_macro_call_at() => {
                self.consume_macro_call();
                ItemKind::Other
            }
            (None, _) => ItemKind::Other, // attrs/modifiers at EOF
            _ => {
                // `struct`, `enum`, `union` and anything unrecognized.
                self.consume_to_semi_or_brace();
                ItemKind::Other
            }
        };
        self.finish(lo, attrs, kind)
    }

    fn finish(&mut self, lo: usize, attrs: Vec<Attr>, kind: ItemKind) -> Item {
        Item {
            span: Span { lo, hi: self.pos },
            attrs,
            kind,
        }
    }

    /// Whether the cursor sits on `name !` (an item-position macro call,
    /// possibly `path::name!`).
    fn is_macro_call_at(&self) -> bool {
        let mut skip = 0usize;
        loop {
            match self.peek_code_text(skip) {
                "!" => return true,
                ":" => skip += 1, // path separator halves
                _ if skip > 0 && self.peek_code_text(skip - 1) == ":" => {
                    // ident after `::`
                    skip += 1;
                }
                _ => return false,
            }
            if skip > 8 {
                return false;
            }
        }
    }

    /// Consumes `path::name ! ( ... ) ;?` / `name ! { ... }`.
    fn consume_macro_call(&mut self) {
        while !self.at_end() {
            self.skip_trivia();
            match self.cur_text() {
                "!" => {
                    self.bump();
                    self.skip_trivia();
                    let delim = self.cur_text().to_string();
                    self.consume_balanced();
                    if delim != "{" {
                        self.skip_trivia();
                        if self.cur_text() == ";" {
                            self.bump();
                        }
                    }
                    return;
                }
                _ => {
                    if self.at_end() {
                        return;
                    }
                    self.bump();
                }
            }
        }
    }

    /// The first identifier after the current keyword (cursor on the
    /// keyword; consumed).
    fn name_after_kw(&mut self) -> String {
        self.bump(); // the keyword
        self.skip_trivia();
        if self.cur_kind() == Some(TokKind::Ident) {
            let name = self.cur_text().to_string();
            self.bump();
            name
        } else {
            String::new()
        }
    }

    /// Consumes to (and including) the first `;` at delimiter depth 0, or
    /// a top-level brace group if one starts first.
    fn consume_to_semi_or_brace(&mut self) {
        while !self.at_end() {
            self.skip_trivia();
            match self.cur_text() {
                ";" => {
                    self.bump();
                    return;
                }
                "{" => {
                    self.consume_balanced();
                    return;
                }
                "(" | "[" => self.consume_balanced(),
                _ => {
                    if self.at_end() {
                        return;
                    }
                    self.bump();
                }
            }
        }
    }

    /// Consumes to (and including) the first `;` at delimiter depth 0
    /// (brace groups along the way are balanced through).
    fn consume_to_semi(&mut self) {
        while !self.at_end() {
            self.skip_trivia();
            match self.cur_text() {
                ";" => {
                    self.bump();
                    return;
                }
                "(" | "[" | "{" => self.consume_balanced(),
                _ => {
                    if self.at_end() {
                        return;
                    }
                    self.bump();
                }
            }
        }
    }

    /// Consumes a balanced delimiter group starting at the cursor (which
    /// must sit on `(`, `[` or `{`); unterminated groups extend to EOF.
    fn consume_balanced(&mut self) {
        let open = self.cur_text().to_string();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                if !self.at_end() {
                    self.bump();
                }
                return;
            }
        };
        self.bump();
        let mut depth = 1usize;
        while !self.at_end() {
            let tok = &self.tokens[self.pos];
            if tok.is_code() {
                if tok.text == open {
                    depth += 1;
                } else if tok.text == close {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
            }
            self.pos += 1;
        }
    }

    /// `fn name ... { body }` (cursor on `fn`).
    fn fn_item(&mut self) -> FnItem {
        let name = self.name_after_kw();
        // Signature: scan to the body `{` or a `;` at delimiter depth 0.
        loop {
            self.skip_trivia();
            if self.at_end() {
                return FnItem { name, body: None };
            }
            match self.cur_text() {
                ";" => {
                    self.bump();
                    return FnItem { name, body: None };
                }
                "{" => break,
                "(" | "[" => self.consume_balanced(),
                _ => self.bump(),
            }
        }
        let body = self.group();
        FnItem {
            name,
            body: Some(body),
        }
    }

    /// `impl ... { items }` (cursor on `impl`).
    fn impl_block(&mut self) -> ImplBlock {
        self.bump(); // impl
        // Collect signature code tokens (with angle-depth) until `{`.
        let mut sig: Vec<(usize, String)> = Vec::new(); // (angle depth, text)
        let mut angle = 0usize;
        loop {
            self.skip_trivia();
            if self.at_end() || self.cur_text() == "{" {
                break;
            }
            let text = self.cur_text().to_string();
            match text.as_str() {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "(" | "[" => {
                    self.consume_balanced();
                    continue;
                }
                _ => {}
            }
            sig.push((angle, text));
            self.bump();
        }
        // The self type is the last depth-0 ident after a depth-0 `for`
        // (`impl Trait for Type`), or of the whole signature (`impl Type`).
        let for_at = sig
            .iter()
            .position(|(depth, text)| *depth == 0 && text == "for");
        let last_ident = |slice: &[(usize, String)]| -> String {
            slice
                .iter()
                .rev()
                .find(|(depth, text)| {
                    *depth == 0
                        && text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                        && text != "where"
                })
                .map(|(_, text)| text.clone())
                .unwrap_or_default()
        };
        let self_ty = last_ident(&sig[for_at.map_or(0, |at| at + 1)..]);
        let (items, trailing) = self.item_body();
        ImplBlock {
            self_ty,
            items,
            trailing,
        }
    }

    /// `mod name { items }` or `mod name ;` (cursor on `mod`).
    fn mod_block(&mut self) -> ModBlock {
        self.name_after_kw();
        self.skip_trivia();
        if self.cur_text() == ";" {
            self.bump();
            return ModBlock {
                items: None,
                trailing: Span {
                    lo: self.pos,
                    hi: self.pos,
                },
            };
        }
        let (items, trailing) = self.item_body();
        ModBlock {
            items: Some(items),
            trailing,
        }
    }

    /// `trait Name ... { items }` (cursor on `trait`).
    fn trait_block(&mut self) -> TraitBlock {
        self.name_after_kw();
        // Bounds / where clause up to the body.
        loop {
            self.skip_trivia();
            if self.at_end() || self.cur_text() == "{" {
                break;
            }
            if self.cur_text() == ";" {
                // `trait Alias = ...;` — no body.
                self.bump();
                return TraitBlock {
                    items: Vec::new(),
                    trailing: Span {
                        lo: self.pos,
                        hi: self.pos,
                    },
                };
            }
            if matches!(self.cur_text(), "(" | "[") {
                self.consume_balanced();
            } else {
                self.bump();
            }
        }
        let (items, trailing) = self.item_body();
        TraitBlock { items, trailing }
    }

    /// A `{ items }` container body (cursor at `{` or EOF). Returns the
    /// items and the trailing trivia span ending at (and including) `}`.
    fn item_body(&mut self) -> (Vec<Item>, Span) {
        let mut items = Vec::new();
        if self.cur_text() != "{" {
            return (
                items,
                Span {
                    lo: self.pos,
                    hi: self.pos,
                },
            );
        }
        self.bump(); // {
        loop {
            let mark = self.pos;
            self.skip_trivia();
            if self.at_end() {
                return (
                    items,
                    Span {
                        lo: mark,
                        hi: self.pos,
                    },
                );
            }
            if self.cur_text() == "}" {
                self.bump();
                return (
                    items,
                    Span {
                        lo: mark,
                        hi: self.pos,
                    },
                );
            }
            self.pos = mark;
            items.push(self.item());
        }
    }

    // ----- expression-level parsing -------------------------------------

    /// Parses a delimited group at the cursor (trivia already part of the
    /// caller's span bookkeeping; cursor sits on the opening delimiter).
    fn group(&mut self) -> Node {
        let lo = self.pos;
        let delim = match self.cur_text() {
            "(" => Delim::Paren,
            "[" => Delim::Bracket,
            _ => Delim::Brace,
        };
        self.bump(); // opening delimiter
        let close = match delim {
            Delim::Paren => ")",
            Delim::Bracket => "]",
            Delim::Brace => "}",
        };
        let mut children = Vec::new();
        loop {
            let mark = self.pos;
            self.skip_trivia();
            if self.at_end() {
                return Node {
                    span: Span { lo, hi: self.pos },
                    kind: NodeKind::Group {
                        delim,
                        children,
                        trailing: Span {
                            lo: mark,
                            hi: self.pos,
                        },
                    },
                };
            }
            if self.cur_text() == close {
                self.bump();
                return Node {
                    span: Span { lo, hi: self.pos },
                    kind: NodeKind::Group {
                        delim,
                        children,
                        trailing: Span {
                            lo: mark,
                            hi: self.pos - 1,
                        },
                    },
                };
            }
            self.pos = mark;
            children.push(self.node());
        }
    }

    /// Parses one expression-level node starting at `self.pos` (which may
    /// point at trivia).
    fn node(&mut self) -> Node {
        let lo = self.pos;
        self.skip_trivia();
        if self.at_end() {
            // Degenerate: trivia-only leaf at EOF (callers guard this).
            return Node {
                span: Span { lo, hi: self.pos },
                kind: NodeKind::Leaf,
            };
        }
        match self.cur_text() {
            "(" | "[" | "{" => {
                let mut group = self.group();
                group.span.lo = lo;
                group
            }
            _ => {
                self.bump();
                Node {
                    span: Span { lo, hi: self.pos },
                    kind: NodeKind::Leaf,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Ast {
        let (tokens, ast) = parse_source(src);
        assert_eq!(ast.print(&tokens), src, "print must reproduce source");
        ast.validate_tiling().expect("spans tile");
        let (tokens2, ast2) = parse_source(&ast.print(&tokens));
        assert_eq!(tokens, tokens2);
        assert_eq!(ast, ast2, "reparse must be identical");
        ast
    }

    fn fn_names(items: &[Item]) -> Vec<&str> {
        items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn parses_item_boundaries() {
        let src = r#"
            //! doc
            use std::fmt;
            pub struct Foo { x: u32 }
            enum Bar { A, B }
            pub(crate) const LIMIT: usize = 4;
            static NAME: &str = "x";
            type Alias = Vec<u8>;
            pub fn top(a: u32) -> u32 { a + 1 }
            mod inner {
                pub fn nested() {}
            }
        "#;
        let ast = roundtrip(src);
        let kinds: Vec<&ItemKind> = ast.items.iter().map(|i| &i.kind).collect();
        assert_eq!(kinds.len(), 8);
        assert!(kinds[..6].iter().all(|k| matches!(k, ItemKind::Other)));
        assert!(matches!(kinds[6], ItemKind::Fn(f) if f.name == "top"));
        match &kinds[7] {
            ItemKind::Mod(m) => assert_eq!(fn_names(m.items.as_ref().unwrap()), ["nested"]),
            other => panic!("expected mod, got {other:?}"),
        }
    }

    #[test]
    fn impl_blocks_resolve_self_type() {
        let src = "
            impl<T: Clone> Foo<T> { fn a(&self) {} fn b() {} }
            impl fmt::Display for Foo<u32> { fn fmt(&self) {} }
            impl abs_sim::Kernel { fn c() {} }
        ";
        let ast = roundtrip(src);
        let impls: Vec<&ImplBlock> = ast
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Impl(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(impls.len(), 3);
        assert_eq!(impls[0].self_ty, "Foo");
        assert_eq!(fn_names(&impls[0].items), ["a", "b"]);
        assert_eq!(impls[1].self_ty, "Foo");
        assert_eq!(impls[2].self_ty, "Kernel");
    }

    #[test]
    fn control_flow_stays_flat() {
        let src = "fn f(n: usize) { if n > 0 { g(n); } else { h(); } for i in 0..n { q(i); } }";
        let ast = roundtrip(src);
        let ItemKind::Fn(f) = &ast.items[0].kind else {
            panic!()
        };
        let body = f.body.as_ref().unwrap();
        let NodeKind::Group { children, .. } = &body.kind else {
            panic!()
        };
        // `if` head, body, `else`, body, `for` head, body: keywords and
        // heads are leaves, every block is a sibling brace group.
        let braces = children
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NodeKind::Group {
                        delim: Delim::Brace,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(braces, 3);
        let text = |n: &Node| print_span(&tokenize(src), n.span).trim().to_string();
        assert_eq!(text(&children[0]), "if");
        assert!(children.iter().any(|n| text(n) == "else"));
    }

    #[test]
    fn traits_keep_default_method_bodies() {
        let src = "pub trait T: Clone { fn decl(&self); fn dflt(&self) -> u8 { 0 } }";
        let ast = roundtrip(src);
        let ItemKind::Trait(t) = &ast.items[0].kind else {
            panic!()
        };
        let fns: Vec<(&str, bool)> = t
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some((f.name.as_str(), f.body.is_some())),
                _ => None,
            })
            .collect();
        assert_eq!(fns, [("decl", false), ("dflt", true)]);
    }

    #[test]
    fn attributes_attach_to_items() {
        let src = "#[cfg(test)]\n#[derive(Debug)]\nmod tests { fn t() {} }\n";
        let ast = roundtrip(src);
        assert_eq!(ast.items[0].attrs.len(), 2);
        assert_eq!(ast.items[0].attrs[0].body, "cfg(test)");
        assert_eq!(ast.items[0].attrs[1].body, "derive(Debug)");
    }

    #[test]
    fn inner_attributes_are_their_own_items() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}\n";
        let ast = roundtrip(src);
        assert!(matches!(ast.items[0].kind, ItemKind::Other));
        assert!(matches!(&ast.items[1].kind, ItemKind::Fn(f) if f.name == "f"));
    }

    #[test]
    fn macro_items_and_foreign_mods() {
        let src = "macro_rules! m { () => {}; }\nthread_local! { static X: u8 = 0; }\nextern \"C\" { fn c(); }\n";
        let ast = roundtrip(src);
        assert_eq!(ast.items.len(), 3);
        assert!(ast.items.iter().all(|i| matches!(i.kind, ItemKind::Other)));
    }

    #[test]
    fn lenient_on_garbage() {
        for src in [
            "@@@ ;;; fn",
            "fn unfinished(",
            "impl {",
            "struct",
            "match",
            "if x {",
            "const X: [u8; 3] = [1, 2, 3];",
        ] {
            let (tokens, ast) = parse_source(src);
            assert_eq!(ast.print(&tokens), src, "{src:?}");
            ast.validate_tiling().unwrap_or_else(|e| panic!("{src:?}: {e}"));
        }
    }

    #[test]
    fn const_with_semicolons_in_brackets() {
        let src = "const X: [u8; 3] = [0; 3]; fn after() {}";
        let ast = roundtrip(src);
        assert!(matches!(ast.items[0].kind, ItemKind::Other));
        assert!(matches!(&ast.items[1].kind, ItemKind::Fn(f) if f.name == "after"));
    }
}
