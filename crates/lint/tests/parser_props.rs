//! Property tests for the recursive-descent parser, driven by the
//! workspace's own `forall!` framework.
//!
//! The parser's contract is *losslessness with structure*: for any input,
//! printing the AST reproduces the source byte-for-byte, the item spans
//! tile the token stream with no gaps or overlaps, and reparsing the
//! printed text yields an identical AST (a full round-trip fixed point).

use abs_lint::parser::{parse_source, print_span};
use abs_sim::check::{self, Config};
use abs_sim::forall;

/// Item-level source fragments chosen to stress every parser production:
/// modifier stacking, generic angle-bracket tracking, control flow
/// (including `if let` with struct patterns), macro items, and the
/// lenient `Other` fallback on deliberately broken input.
const FRAGMENTS: &[&str] = &[
    "fn f() {}\n",
    "pub fn g(a: u32, b: &str) -> u32 { a + b.len() as u32 }\n",
    "pub(crate) unsafe fn h<T: Clone>(x: T) -> T { x.clone() }\n",
    "const LIMIT: usize = 4;\n",
    "pub const fn square(x: u64) -> u64 { x * x }\n",
    "static NAME: &str = \"abs\";\n",
    "struct S { a: u32, b: Vec<u8> }\n",
    "pub struct T<'a>(&'a str);\n",
    "enum E { A, B(u32), C { x: f64 } }\n",
    "union U { i: u32, f: f32 }\n",
    "type Pair = (u64, u64);\n",
    "use std::collections::BTreeMap;\n",
    "mod inner { pub fn leaf() {} }\n",
    "trait Tr { fn req(&self); fn def(&self) {} }\n",
    "impl S { fn m(&self) -> u32 { self.a } }\n",
    "impl<T> Tr for Vec<T> { fn req(&self) {} }\n",
    "impl Iterator for T<'_> { type Item = u8; fn next(&mut self) -> Option<u8> { None } }\n",
    "macro_rules! m { ($x:expr) => { $x + 1 }; }\n",
    "compile_error!(\"never built\");\n",
    "#[derive(Debug, Clone)]\nstruct D;\n",
    "#[cfg(test)]\nmod tests { #[test] fn t() { assert!(true); } }\n",
    "//! inner doc\n",
    "#![allow(dead_code)]\n",
    "/// doc comment\nfn documented() {}\n",
    "fn ctrl() { if let Some(S { a, .. }) = opt { use_it(a); } else { fallback(); } }\n",
    "fn m2(x: u32) -> u32 { match x { 0 => 1, n if n > 9 => n, _ => 0 } }\n",
    "fn loops() { for i in 0..10 { if i % 2 == 0 { continue; } } while cond() { step(); } loop { break; } }\n",
    "fn idx(v: &[u64], i: usize) -> u64 { v[i] / v.len() as u64 }\n",
    "extern \"C\" { fn c_side(x: i32) -> i32; }\n",
    "fn generics() { let _: BTreeMap<u64, Vec<(u8, u8)>> = BTreeMap::new(); }\n",
    "fn strings() { let r = r#\"raw \" body\"#; let b = b\"bytes\"; }\n",
    "fn chars() { let c = 'x'; let nl = '\\n'; let lt: &'static str = \"s\"; }\n",
    "gibberish tokens ;;; that parse as Verbatim\n",
    "fn unterminated() { let s = \"\n",
    "}} stray closers {{\n",
];

fn assemble(indices: &[usize]) -> String {
    indices.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]).collect()
}

#[test]
fn arbitrary_item_sequences_round_trip() {
    forall!(Config::with_cases(256), (indices in check::vec_of(check::usize_in(0..FRAGMENTS.len()), 0..12)) {
        let src = assemble(&indices);
        let (tokens, ast) = parse_source(&src);
        // 1. Printing is the identity.
        assert_eq!(ast.print(&tokens), src, "print lost bytes on {src:?}");
        // 2. Spans tile the token stream: no gaps, no overlaps.
        ast.validate_tiling().unwrap_or_else(|e| panic!("tiling broken on {src:?}: {e}"));
        // 3. Reparsing the printed text is a fixed point.
        let (tokens2, ast2) = parse_source(&ast.print(&tokens));
        assert_eq!(tokens, tokens2, "tokens changed on reparse of {src:?}");
        assert_eq!(ast, ast2, "AST changed on reparse of {src:?}");
    });
}

#[test]
fn item_spans_print_back_to_their_source_slices() {
    // Each top-level item's span must print to a contiguous slice of the
    // input, and the concatenation of all item prints plus the trailing
    // span must rebuild the file.
    forall!(Config::with_cases(128), (indices in check::vec_of(check::usize_in(0..FRAGMENTS.len()), 1..8)) {
        let src = assemble(&indices);
        let (tokens, ast) = parse_source(&src);
        let mut rebuilt = String::new();
        for item in &ast.items {
            rebuilt.push_str(&print_span(&tokens, item.span));
        }
        rebuilt.push_str(&print_span(&tokens, ast.trailing));
        assert_eq!(rebuilt, src, "item spans do not cover {src:?}");
    });
}

#[test]
fn the_parser_round_trips_every_workspace_source() {
    // The strongest fixture set available: the real tree. Every source
    // file the lint scans must round-trip exactly.
    let root = abs_lint::default_root();
    let ws = abs_lint::Workspace::discover(&root).expect("workspace discovers");
    assert!(ws.sources.len() >= 80, "{}", ws.sources.len());
    for entry in &ws.sources {
        let text = std::fs::read_to_string(&entry.path).expect("source reads");
        let (tokens, ast) = parse_source(&text);
        assert_eq!(ast.print(&tokens), text, "print differs for {}", entry.rel);
        ast.validate_tiling()
            .unwrap_or_else(|e| panic!("tiling broken in {}: {e}", entry.rel));
        let (_, ast2) = parse_source(&text);
        assert_eq!(ast, ast2, "parse is not deterministic for {}", entry.rel);
    }
}
