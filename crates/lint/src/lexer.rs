//! Token stream over raw source: the shared substrate for every
//! rule. One pass skips comments and string/char literals — so
//! `"thread::spawn"` in a string or `panic!` in a doc comment never
//! tokenizes — and produces idents and punctuation with raw-source
//! byte offsets and brace nesting depth, plus the span of every `//`
//! comment. On top of that the module locates `#[cfg(test)]` /
//! `#[test]` regions, reads `// teleios-lint: allow(<rule>)` markers
//! out of the comment spans, and resolves `use` aliases
//! (`use std::thread as t;`) so the rules see through renamed
//! imports — the false-negative class the original line-pattern core
//! could not.

use crate::rules::Rule;
use std::collections::HashMap;

/// Byte-offset → 1-based line:col mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    pub fn new(src: &str) -> LineIndex {
        let mut starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// Byte offset of the start of 1-based `line`.
    pub fn line_start(&self, line: usize) -> usize {
        self.starts.get(line.saturating_sub(1)).copied().unwrap_or(0)
    }

    pub fn line_col(&self, off: usize) -> (usize, usize) {
        let idx = match self.starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (idx + 1, off - self.starts[idx] + 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind<'a> {
    Ident(&'a str),
    Punct(u8),
}

/// One token: kind, byte offset into the source, and the number of
/// unclosed `{` at that point. An opening `{` carries the depth
/// *outside* it and its matching `}` carries that same depth, so
/// "the close of the block containing token `i`" is the first `}`
/// after `i` whose depth is `toks[i].depth - 1`.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    pub kind: TokKind<'a>,
    pub off: usize,
    pub depth: usize,
}

/// What [`lex`] makes of one file: the code tokens, and the byte span
/// of every `//` comment (doc comments included) for the allow-marker
/// reader.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    pub toks: Vec<Tok<'a>>,
    pub comments: Vec<(usize, usize)>,
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Index just past the literal opened by the quote `q` at `open`
/// (backslash escapes honoured), or the end of input.
fn skip_quoted(b: &[u8], open: usize, q: u8) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            c if c == q => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// Index just past the raw string whose opening `"` is at `quote` and
/// which closes with `"` plus `hashes` `#`s.
fn skip_raw_string(b: &[u8], quote: usize, hashes: usize) -> usize {
    let mut k = quote + 1;
    while k < b.len() {
        let end = k + 1 + hashes;
        if b[k] == b'"' && end <= b.len() && b[k + 1..end].iter().all(|h| *h == b'#') {
            return end;
        }
        k += 1;
    }
    b.len()
}

/// Index just past a (possibly nested) block comment opening at `i`.
fn skip_block_comment(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < b.len() {
        if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
            if depth == 0 {
                break;
            }
        } else {
            i += 1;
        }
    }
    i
}

/// If the word `b[start..end]` is a literal prefix (`r""`, `r#""#`,
/// `b""`, `br#""#`, `b''`), the index just past the whole literal.
fn prefixed_literal_end(b: &[u8], start: usize, end: usize) -> Option<usize> {
    let word = &b[start..end];
    if !matches!(word, b"r" | b"b" | b"br" | b"rb") {
        return None;
    }
    let hashes = b[end..].iter().take_while(|c| **c == b'#').count();
    match b.get(end + hashes)? {
        b'\'' if word == b"b" && hashes == 0 => Some(skip_quoted(b, end, b'\'')),
        b'"' if word == b"b" && hashes == 0 => Some(skip_quoted(b, end, b'"')),
        b'"' if word != b"b" => Some(skip_raw_string(b, end + hashes, hashes)),
        _ => None,
    }
}

/// Tokenize source, skipping comments, string / raw-string literals,
/// and char / byte literals (lifetimes and loop labels stay: a `'` and
/// an ident). Numbers, identifiers, and keywords all come out as
/// `Ident` — the rules only ever compare against known names, so the
/// conflation is harmless and keeps the lexer tiny. A raw identifier
/// `r#type` yields just `type`.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut depth = 0usize;
    while i < n {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            out.comments.push((start, i));
            continue;
        }
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            i = skip_block_comment(b, i);
            continue;
        }
        if is_ident_char(c) {
            let start = i;
            while i < n && is_ident_char(b[i]) {
                i += 1;
            }
            if let Some(end) = prefixed_literal_end(b, start, i) {
                i = end;
                continue;
            }
            let raw_ident = &b[start..i] == b"r"
                && b.get(i) == Some(&b'#')
                && b.get(i + 1).is_some_and(|c| is_ident_char(*c));
            if raw_ident {
                i += 1;
                continue;
            }
            out.toks.push(Tok { kind: TokKind::Ident(&src[start..i]), off: start, depth });
            continue;
        }
        if c == b'"' {
            i = skip_quoted(b, i, b'"');
            continue;
        }
        if c == b'\'' {
            // Char literal vs. lifetime/label: a literal is `'\...'`,
            // `'x'`, or a single non-ASCII scalar quoted; anything
            // else (`'a`, `'static`, `'_`) is a lifetime.
            if b.get(i + 1) == Some(&b'\\') || b.get(i + 1).is_some_and(|c| *c >= 0x80) {
                i = skip_quoted(b, i, b'\'');
                continue;
            }
            if b.get(i + 2) == Some(&b'\'') {
                i += 3;
                continue;
            }
        }
        if c.is_ascii() && !c.is_ascii_whitespace() {
            if c == b'}' {
                depth = depth.saturating_sub(1);
            }
            out.toks.push(Tok { kind: TokKind::Punct(c), off: i, depth });
            if c == b'{' {
                depth += 1;
            }
        }
        i += 1;
    }
    out
}

pub fn ident_at<'a>(toks: &[Tok<'a>], i: usize) -> Option<&'a str> {
    match toks.get(i)?.kind {
        TokKind::Ident(s) => Some(s),
        TokKind::Punct(_) => None,
    }
}

pub fn is_ident(toks: &[Tok<'_>], i: usize, s: &str) -> bool {
    ident_at(toks, i) == Some(s)
}

pub fn is_punct(toks: &[Tok<'_>], i: usize, c: u8) -> bool {
    matches!(toks.get(i), Some(Tok { kind: TokKind::Punct(p), .. }) if *p == c)
}

/// Skip an attribute starting at index `i` (which must be `#`);
/// returns the index just past the closing `]`.
pub fn skip_attr(toks: &[Tok<'_>], i: usize) -> usize {
    let mut k = i + 1;
    let mut depth = 0usize;
    while k < toks.len() {
        if is_punct(toks, k, b'[') {
            depth += 1;
        } else if is_punct(toks, k, b']') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    toks.len()
}

/// Byte ranges covered by `#[cfg(test)]` / `#[test]` items. Only the
/// exact forms are recognized — the workspace uses no other spelling,
/// and `#[cfg_attr(not(test), ...)]` must *not* create a region.
pub fn test_regions(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(is_punct(toks, i, b'#') && is_punct(toks, i + 1, b'[')) {
            i += 1;
            continue;
        }
        let is_test_attr = (is_ident(toks, i + 2, "cfg")
            && is_punct(toks, i + 3, b'(')
            && is_ident(toks, i + 4, "test")
            && is_punct(toks, i + 5, b')')
            && is_punct(toks, i + 6, b']'))
            || (is_ident(toks, i + 2, "test") && is_punct(toks, i + 3, b']'));
        if !is_test_attr {
            i = skip_attr(toks, i);
            continue;
        }
        let start_off = toks[i].off;
        // Skip this attribute plus any stacked ones (`#[cfg(test)]
        // #[derive(..)] struct S;`).
        let mut j = skip_attr(toks, i);
        while is_punct(toks, j, b'#') && is_punct(toks, j + 1, b'[') {
            j = skip_attr(toks, j);
        }
        // The item extends to its matched `{...}` block, or to a `;`
        // for block-less items.
        let mut end_off = toks.last().map(|t| t.off).unwrap_or(start_off);
        let mut k = j;
        while k < toks.len() {
            if is_punct(toks, k, b';') {
                end_off = toks[k].off;
                break;
            }
            if is_punct(toks, k, b'{') {
                let mut depth = 0usize;
                while k < toks.len() {
                    if is_punct(toks, k, b'{') {
                        depth += 1;
                    } else if is_punct(toks, k, b'}') {
                        depth -= 1;
                        if depth == 0 {
                            end_off = toks[k].off;
                            break;
                        }
                    }
                    k += 1;
                }
                break;
            }
            k += 1;
        }
        regions.push((start_off, end_off));
        i = j;
    }
    regions
}

pub fn in_test(regions: &[(usize, usize)], off: usize) -> bool {
    regions.iter().any(|(s, e)| *s <= off && off <= *e)
}

/// One `// teleios-lint: allow(<name>)` marker. A marker suppresses
/// findings of its rule on its own line and the next one (so it can
/// sit on a comment line above a long statement). `rule` is `None`
/// when the name matches no known rule — those are reported as
/// `unused-allow` so a typo can't silently waive nothing.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    pub line: usize,
    pub col: usize,
    pub rule: Option<Rule>,
    pub name: String,
}

/// Read allow markers out of the `//` comment spans [`lex`] recorded.
/// Only the literal form `// teleios-lint: allow(<name>)` inside an
/// ordinary line comment counts: doc comments (`///`, `//!`) are
/// prose, and text inside a string literal is not a comment at all.
pub fn allow_markers(raw: &str, comments: &[(usize, usize)], idx: &LineIndex) -> Vec<AllowMarker> {
    const PAT: &str = "// teleios-lint: allow(";
    let marker = |&(start, end): &(usize, usize)| {
        let text = &raw[start..end];
        if text.starts_with("///") || text.starts_with("//!") {
            return None;
        }
        let p = text.find(PAT)?;
        let after = &text[p + PAT.len()..];
        let name = &after[..after.find(')')?];
        let (line, col) = idx.line_col(start + p);
        Some(AllowMarker { line, col, rule: Rule::from_name(name), name: name.to_string() })
    };
    comments.iter().filter_map(marker).collect()
}

/// `use` declarations of a file, resolved to flat paths: maps each
/// locally visible name (the final segment, or the `as` alias) to the
/// full path segments it stands for. Handles grouped imports
/// (`use a::{b, c as d}`) and `self` in groups. Glob imports bind no
/// name but their path prefixes are recorded (`globs`) so the
/// interprocedural linker can consider glob-imported crates, and
/// `pub use` bindings are additionally recorded as re-exports so a
/// call through a facade crate resolves to the defining crate.
#[derive(Debug, Default)]
pub struct UseAliases {
    map: HashMap<String, Vec<String>>,
    /// `pub use` bindings in declaration order: exported name → the
    /// full path it re-exports (chains are resolved at link time).
    reexports: Vec<(String, Vec<String>)>,
    /// Path prefixes of glob imports (`use teleios_store::*` records
    /// `["teleios_store"]`).
    globs: Vec<Vec<String>>,
    /// Token-index ranges (inclusive) of the `use` statements
    /// themselves, so usage rules don't fire on the import line.
    ranges: Vec<(usize, usize)>,
}

impl UseAliases {
    /// The full path the local name `name` stands for, if imported.
    pub fn resolve(&self, name: &str) -> Option<&[String]> {
        self.map.get(name).map(|v| v.as_slice())
    }

    /// Does `name` resolve to exactly `path` (e.g. `["std", "thread",
    /// "spawn"]`)?
    pub fn resolves_to(&self, name: &str, path: &[&str]) -> bool {
        self.resolve(name).is_some_and(|p| p == path)
    }

    /// Is token index `i` inside a `use` statement?
    pub fn in_use_stmt(&self, i: usize) -> bool {
        self.ranges.iter().any(|(s, e)| *s <= i && i <= *e)
    }

    /// All local bindings, for summary construction.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &Vec<String>)> {
        self.map.iter()
    }

    /// `pub use` re-export bindings in declaration order.
    pub fn reexports(&self) -> &[(String, Vec<String>)] {
        &self.reexports
    }

    /// Glob-import path prefixes in declaration order.
    pub fn globs(&self) -> &[Vec<String>] {
        &self.globs
    }
}

pub fn use_aliases(toks: &[Tok<'_>]) -> UseAliases {
    let mut out = UseAliases::default();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks, i, "use") {
            i += 1;
            continue;
        }
        // `use` is only a declaration at item position: preceded by
        // nothing, `;`, `{`, `}`, `]` (attribute), or `pub`/`(crate)`.
        let decl_pos = i == 0
            || is_punct(toks, i - 1, b';')
            || is_punct(toks, i - 1, b'{')
            || is_punct(toks, i - 1, b'}')
            || is_punct(toks, i - 1, b']')
            || is_ident(toks, i - 1, "pub")
            || is_punct(toks, i - 1, b')');
        if !decl_pos {
            i += 1;
            continue;
        }
        // `pub use` / `pub(crate) use`: the bindings are re-exports.
        let is_pub = (i > 0 && is_ident(toks, i - 1, "pub"))
            || (i > 0 && is_punct(toks, i - 1, b')') && {
                let mut k = i - 1;
                while k > 0 && !is_punct(toks, k, b'(') {
                    k -= 1;
                }
                k > 0 && is_ident(toks, k - 1, "pub")
            });
        let start = i;
        let mut j = i + 1;
        let mut prefix: Vec<String> = Vec::new();
        let mut bindings: Vec<(String, Vec<String>)> = Vec::new();
        parse_use_tree(toks, &mut j, &mut prefix, &mut bindings, &mut out.globs);
        for (name, path) in bindings {
            if is_pub {
                out.reexports.push((name.clone(), path.clone()));
            }
            out.map.insert(name, path);
        }
        // Consume through the terminating `;` (parse errors included,
        // so a malformed use can't cascade).
        while j < toks.len() && !is_punct(toks, j, b';') {
            j += 1;
        }
        out.ranges.push((start, j.min(toks.len().saturating_sub(1))));
        i = j + 1;
    }
    out
}

fn parse_use_tree(
    toks: &[Tok<'_>],
    j: &mut usize,
    prefix: &mut Vec<String>,
    bindings: &mut Vec<(String, Vec<String>)>,
    globs: &mut Vec<Vec<String>>,
) {
    loop {
        if is_punct(toks, *j, b'{') {
            *j += 1;
            loop {
                let depth_before = prefix.len();
                parse_use_tree(toks, j, prefix, bindings, globs);
                prefix.truncate(depth_before);
                if is_punct(toks, *j, b',') {
                    *j += 1;
                    continue;
                }
                break;
            }
            if is_punct(toks, *j, b'}') {
                *j += 1;
            }
            return;
        }
        if is_punct(toks, *j, b'*') {
            *j += 1;
            if !prefix.is_empty() {
                globs.push(prefix.clone());
            }
            return;
        }
        let Some(seg) = ident_at(toks, *j) else { return };
        *j += 1;
        if seg == "self" && !prefix.is_empty() {
            // `use a::b::{self, ...}` binds `b` itself; `self as x`
            // binds only the alias.
            if is_ident(toks, *j, "as") {
                if let Some(alias) = ident_at(toks, *j + 1) {
                    bindings.push((alias.to_string(), prefix.clone()));
                }
                *j += 2;
                return;
            }
            if let Some(last) = prefix.last().cloned() {
                bindings.push((last, prefix.clone()));
            }
            return;
        }
        prefix.push(seg.to_string());
        if is_punct(toks, *j, b':') && is_punct(toks, *j + 1, b':') {
            *j += 2;
            continue;
        }
        if is_ident(toks, *j, "as") {
            if let Some(alias) = ident_at(toks, *j + 1) {
                bindings.push((alias.to_string(), prefix.clone()));
            }
            *j += 2;
            return;
        }
        // Plain terminal segment: binds its own name.
        bindings.push((seg.to_string(), prefix.clone()));
        return;
    }
}

/// Token index of the first token of the statement containing `i`:
/// the token after the nearest preceding `;`, `{`, or `}`.
pub fn stmt_start(toks: &[Tok<'_>], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let prev = j - 1;
        if is_punct(toks, prev, b';') || is_punct(toks, prev, b'{') || is_punct(toks, prev, b'}') {
            return j;
        }
        j -= 1;
    }
    0
}

/// Token index of the `}` closing the innermost block containing `i`
/// (or `toks.len() - 1` if unbalanced).
pub fn enclosing_block_end(toks: &[Tok<'_>], i: usize) -> usize {
    let d = toks[i].depth;
    if d == 0 {
        return toks.len().saturating_sub(1);
    }
    let mut j = i + 1;
    while j < toks.len() {
        if is_punct(toks, j, b'}') && toks[j].depth == d - 1 {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Token index of the `;` ending the statement containing `i` at the
/// same brace depth (falls back to the enclosing block end).
pub fn stmt_end(toks: &[Tok<'_>], i: usize) -> usize {
    let d = toks[i].depth;
    let mut j = i + 1;
    while j < toks.len() {
        if is_punct(toks, j, b';') && toks[j].depth == d {
            return j;
        }
        if is_punct(toks, j, b'}') && toks[j].depth < d {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexed(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| match t.kind {
                TokKind::Ident(s) => s.to_string(),
                TokKind::Punct(p) => (p as char).to_string(),
            })
            .collect()
    }

    #[test]
    fn idents_and_puncts_with_offsets() {
        let toks = lex("a.b()").toks;
        assert_eq!(toks.len(), 5);
        assert_eq!(toks[0].off, 0);
        assert_eq!(toks[2].off, 2);
        assert!(matches!(toks[1].kind, TokKind::Punct(b'.')));
    }

    #[test]
    fn depth_tracks_braces() {
        let toks = lex("fn f() { let x = { 1 }; }").toks;
        // `fn` at depth 0, `x` at depth 1, `1` at depth 2.
        assert_eq!(toks[0].depth, 0);
        let x = toks.iter().find(|t| t.kind == TokKind::Ident("x")).unwrap();
        assert_eq!(x.depth, 1);
        let one = toks.iter().find(|t| t.kind == TokKind::Ident("1")).unwrap();
        assert_eq!(one.depth, 2);
        // Opening and closing braces of a block carry the same depth.
        let opens: Vec<usize> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct(b'{'))
            .map(|t| t.depth)
            .collect();
        let closes: Vec<usize> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct(b'}'))
            .map(|t| t.depth)
            .collect();
        assert_eq!(opens, vec![0, 1]);
        assert_eq!(closes, vec![1, 0]);
    }

    /// Which of `words` survive lexing `src` as ident tokens.
    fn surviving<'a>(src: &str, words: &[&'a str]) -> Vec<&'a str> {
        let toks = lexed(src);
        words.iter().copied().filter(|w| toks.iter().any(|t| t == w)).collect()
    }

    #[test]
    fn comments_and_literals_do_not_tokenize() {
        assert!(!lexed("let s = \"panic!\";").contains(&"panic".to_string()));
        // Line and (nested) block comments; code around them survives.
        assert_eq!(
            surviving(
                "a // x.unwrap()\nb /* panic! /* nested */ still */ c",
                &["a", "b", "c", "unwrap", "panic", "nested", "still"]
            ),
            vec!["a", "b", "c"]
        );
        // Strings and raw strings.
        assert_eq!(
            surviving(
                r##"let s = "thread::spawn"; let r = r#"println!("x")"#; code();"##,
                &["spawn", "println", "code"]
            ),
            vec!["code"]
        );
        // An escaped quote does not close the string.
        assert_eq!(
            surviving(r#"let s = "a\"b.unwrap()"; after();"#, &["unwrap", "after"]),
            vec!["after"]
        );
        // Byte strings and byte chars, prefix included.
        assert_eq!(
            surviving(r#"let x = b"unwrap"; let y = b'u'; keep();"#, &["unwrap", "u", "b", "keep"]),
            vec!["keep"]
        );
    }

    #[test]
    fn char_literals_skipped_lifetimes_kept() {
        let src = r#"let q = '"'; fn f<'a>(x: &'a str) -> &'a str { x } let e = '\''; "no string opened".len();"#;
        let toks = lexed(src);
        assert_eq!(toks.iter().filter(|t| *t == "a").count(), 3, "lifetimes preserved: {toks:?}");
        assert!(
            !toks.contains(&"opened".to_string()),
            "the quote char literal must not open a string: {toks:?}"
        );
        assert!(toks.contains(&"len".to_string()), "code after the string survives: {toks:?}");
    }

    #[test]
    fn offsets_are_raw_source_offsets() {
        let src = "let a = \"x\"; // c\nb.unwrap();";
        let lexed = lex(src);
        let unwrap = lexed.toks.iter().find(|t| t.kind == TokKind::Ident("unwrap")).unwrap();
        assert_eq!(Some(unwrap.off), src.find("unwrap"));
        assert_eq!(lexed.comments, vec![(src.find("//").unwrap(), src.find('\n').unwrap())]);
    }

    #[test]
    fn raw_identifiers_yield_the_name() {
        assert_eq!(lexed("let r#type = 1; r#type + 1"), ["let", "type", "=", "1", ";", "type", "+", "1"]);
    }

    #[test]
    fn use_alias_simple_and_renamed() {
        let src = "use std::thread as t;\nuse std::thread::spawn;\n";
        let toks = lex(src).toks;
        let aliases = use_aliases(&toks);
        assert!(aliases.resolves_to("t", &["std", "thread"]));
        assert!(aliases.resolves_to("spawn", &["std", "thread", "spawn"]));
        assert_eq!(aliases.resolve("nope"), None);
    }

    #[test]
    fn use_alias_groups_and_self() {
        let src = "use std::sync::{Arc, Mutex as M, atomic::{AtomicBool, Ordering}};\nuse std::sync::mpsc::{self, Receiver};\n";
        let aliases = use_aliases(&lex(src).toks);
        assert!(aliases.resolves_to("Arc", &["std", "sync", "Arc"]));
        assert!(aliases.resolves_to("M", &["std", "sync", "Mutex"]));
        assert!(aliases.resolves_to("Ordering", &["std", "sync", "atomic", "Ordering"]));
        assert!(aliases.resolves_to("mpsc", &["std", "sync", "mpsc"]));
        assert!(aliases.resolves_to("Receiver", &["std", "sync", "mpsc", "Receiver"]));
    }

    #[test]
    fn use_alias_renamed_single_segment_tail() {
        let src = "use alpha::beta as gamma;\n";
        let aliases = use_aliases(&lex(src).toks);
        assert!(aliases.resolves_to("gamma", &["alpha", "beta"]));
        assert_eq!(aliases.resolve("beta"), None, "the original name is not bound");
    }

    #[test]
    fn use_alias_nested_groups_with_rename() {
        let src = "use a::{b::{c, d as e}, f};\n";
        let aliases = use_aliases(&lex(src).toks);
        assert!(aliases.resolves_to("c", &["a", "b", "c"]));
        assert!(aliases.resolves_to("e", &["a", "b", "d"]));
        assert!(aliases.resolves_to("f", &["a", "f"]));
        assert_eq!(aliases.resolve("d"), None);
    }

    #[test]
    fn glob_imports_recorded_not_bound() {
        let src = "use teleios_store::*;\nuse a::b::{c, d::*};\n";
        let aliases = use_aliases(&lex(src).toks);
        assert_eq!(
            aliases.globs(),
            &[
                vec!["teleios_store".to_string()],
                vec!["a".to_string(), "b".to_string(), "d".to_string()]
            ]
        );
        assert!(aliases.resolves_to("c", &["a", "b", "c"]));
        assert_eq!(aliases.resolve("*"), None);
    }

    #[test]
    fn pub_use_recorded_as_reexport() {
        let src = "pub use crate::inner::thing;\npub(crate) use a::helper as h;\nuse b::private_thing;\n";
        let aliases = use_aliases(&lex(src).toks);
        let re = aliases.reexports();
        assert_eq!(re.len(), 2, "plain use is not a re-export: {re:?}");
        assert_eq!(re[0].0, "thing");
        assert_eq!(re[0].1, vec!["crate", "inner", "thing"]);
        assert_eq!(re[1].0, "h");
        assert_eq!(re[1].1, vec!["a", "helper"]);
        // All three still bind locally.
        assert!(aliases.resolves_to("thing", &["crate", "inner", "thing"]));
        assert!(aliases.resolves_to("h", &["a", "helper"]));
        assert!(aliases.resolves_to("private_thing", &["b", "private_thing"]));
    }

    #[test]
    fn pub_use_group_self_as() {
        let src = "pub use a::b::{self as bb, c};\n";
        let aliases = use_aliases(&lex(src).toks);
        assert!(aliases.resolves_to("bb", &["a", "b"]));
        assert!(aliases.resolves_to("c", &["a", "b", "c"]));
        assert_eq!(aliases.resolve("b"), None, "`self as` binds only the alias");
        assert_eq!(aliases.reexports().len(), 2);
    }

    #[test]
    fn line_index_maps_offsets_to_lines() {
        let idx = LineIndex::new("ab\ncd\nef");
        assert_eq!(idx.line_col(4), (2, 2));
        assert_eq!(idx.line_start(3), 6);
    }

    #[test]
    fn use_ranges_cover_the_declaration() {
        let src = "use std::thread as t;\nfn f() { t::spawn(|| {}); }";
        let toks = lex(src).toks;
        let aliases = use_aliases(&toks);
        // The `thread` token inside the use statement is in-range; the
        // `t` usage in the body is not.
        let use_thread = toks
            .iter()
            .position(|t| t.kind == TokKind::Ident("thread"))
            .unwrap();
        assert!(aliases.in_use_stmt(use_thread));
        let body_t = toks
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| t.kind == TokKind::Ident("t"))
            .map(|(i, _)| i)
            .unwrap();
        assert!(!aliases.in_use_stmt(body_t));
    }

    #[test]
    fn expression_use_is_not_a_declaration() {
        // A variable named `use` can't exist, but `use` appearing in a
        // non-item position (masked doc text aside) must not parse.
        let src = "fn f(x: u8) -> u8 { x }";
        let aliases = use_aliases(&lex(src).toks);
        assert_eq!(aliases.resolve("x"), None);
    }

    #[test]
    fn stmt_and_block_helpers() {
        let src = "fn f() { let a = g(); h(); }";
        let toks = lex(src).toks;
        let g = toks.iter().position(|t| t.kind == TokKind::Ident("g")).unwrap();
        let start = stmt_start(&toks, g);
        assert_eq!(ident_at(&toks, start), Some("let"));
        let end = stmt_end(&toks, g);
        assert!(is_punct(&toks, end, b';'));
        let close = enclosing_block_end(&toks, g);
        assert!(is_punct(&toks, close, b'}'));
        assert_eq!(close, toks.len() - 1);
    }

    fn markers_of(src: &str) -> Vec<AllowMarker> {
        allow_markers(src, &lex(src).comments, &LineIndex::new(src))
    }

    #[test]
    fn allow_markers_parse_known_and_unknown() {
        let src = "fn f() {\n    panic!(\"x\"); // teleios-lint: allow(no-panic) — deliberate\n    // teleios-lint: allow(bogus-rule)\n}\n";
        let markers = markers_of(src);
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[0].line, 2);
        assert_eq!(markers[0].rule, Some(Rule::NoPanic));
        assert_eq!(markers[1].line, 3);
        assert_eq!(markers[1].rule, None);
        assert_eq!(markers[1].name, "bogus-rule");
    }

    #[test]
    fn allow_markers_skip_doc_comments_and_strings() {
        let doc = "//! usable as `// teleios-lint: allow(no-panic)` markers\nfn f() {}\n";
        assert!(markers_of(doc).is_empty());
        let in_string = "fn f() -> &'static str {\n    \"x // teleios-lint: allow(no-panic) y\"\n}\n";
        assert!(markers_of(in_string).is_empty());
        // Only the comment counts, whatever quotes precede it on the
        // line: a `'"'` char literal or an unbalanced quote inside a
        // raw string must not hide the marker.
        for src in [
            "let q = '\"'; let v = x.unwrap(); // teleios-lint: allow(no-panic)\n",
            "let r = r#\"one \" quote\"#; x.unwrap(); // teleios-lint: allow(no-panic)\n",
        ] {
            let m = markers_of(src);
            assert_eq!(m.len(), 1, "{src}");
            assert_eq!((m[0].line, m[0].col, m[0].rule), (1, src.find("//").unwrap() + 1, Some(Rule::NoPanic)));
        }
    }

    #[test]
    fn line_index_maps_offsets() {
        let idx = LineIndex::new("ab\ncd\n");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(4), (2, 2));
    }
}
