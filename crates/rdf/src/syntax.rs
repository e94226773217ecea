//! The RDF family's one reader: the tokenizer, token cursor, term
//! reader and predicate-object loop under both Turtle ([`crate::turtle`])
//! and stSPARQL (`teleios-strabon`'s parser), so a term written in a
//! data file and the same term written in a query are read by the same
//! code and name the same RDF term.

use crate::term::Term;
use crate::vocab::{rdf, xsd};
use crate::{RdfError, Result};
use std::collections::HashMap;

/// How deep groups, brackets and prefix operators may nest: past it the
/// reader returns an error rather than exhausting the thread's stack.
const MAX_DEPTH: usize = 64;

/// A token with its byte position.
#[derive(Debug, Clone, PartialEq)]
struct Token {
    kind: Tok,
    pos: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// `?name` or `$name`.
    Var(String),
    /// `<iri>`.
    Iri(String),
    /// `prefix:local` (possibly empty prefix).
    PName(String, String),
    /// `_:label`.
    Blank(String),
    /// Bare word (keywords, `a`, `true`, `false`).
    Word(String),
    /// String literal body (unescaped).
    Str(String),
    /// Unsigned integer literal, as written.
    Int(String),
    /// Unsigned decimal or double literal, as written.
    Num(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `^^`
    DtSep,
    /// `@lang`
    LangTag(String),
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

/// Punctuation, two-byte spellings first so `<=` is not read as `<`.
const SYMBOLS: [(&str, Tok); 20] = [
    ("^^", Tok::DtSep),
    ("<=", Tok::Le),
    (">=", Tok::Ge),
    ("!=", Tok::Ne),
    ("&&", Tok::AndAnd),
    ("||", Tok::OrOr),
    ("{", Tok::LBrace),
    ("}", Tok::RBrace),
    ("(", Tok::LParen),
    (")", Tok::RParen),
    (";", Tok::Semicolon),
    (",", Tok::Comma),
    ("=", Tok::Eq),
    ("<", Tok::Lt),
    (">", Tok::Gt),
    ("!", Tok::Bang),
    ("+", Tok::Plus),
    ("-", Tok::Minus),
    ("*", Tok::Star),
    ("/", Tok::Slash),
];

/// Tokenize Turtle or stSPARQL text.
fn tokenize(input: &str) -> Result<Vec<Token>> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while let Some(&c) = b.get(pos) {
        let start = pos;
        let kind = match c {
            _ if c.is_ascii_whitespace() => {
                pos += 1;
                continue;
            }
            b'#' => {
                while b.get(pos).is_some_and(|&c| c != b'\n') {
                    pos += 1;
                }
                continue;
            }
            b'?' | b'$' => {
                pos += 1;
                while b.get(pos).is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
                    pos += 1;
                }
                if pos == start + 1 {
                    return Err(parse_error(input, start, "empty variable name"));
                }
                Tok::Var(input[start + 1..pos].to_string())
            }
            // An IRI when a '>' closes it before any whitespace; else `<`/`<=`.
            b'<' => match b[pos + 1..].iter().position(|&c| c == b'>' || c == b'<' || c.is_ascii_whitespace()) {
                Some(len) if len > 0 && b[pos + 1 + len] == b'>' => {
                    pos += len + 2;
                    Tok::Iri(input[start + 1..pos - 1].to_string())
                }
                _ => symbol(input, &mut pos)?,
            },
            b'"' => {
                pos += 1;
                let mut s = String::new();
                loop {
                    // Copy the run up to the next quote or backslash: both are
                    // ASCII, so the run's ends are character boundaries.
                    let run = pos;
                    while b.get(pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                        pos += 1;
                    }
                    s.push_str(&input[run..pos]);
                    match b.get(pos) {
                        None => return Err(parse_error(input, start, "unterminated string")),
                        Some(b'"') => break,
                        Some(_) => {
                            s.push(match b.get(pos + 1) {
                                Some(b'n') => '\n',
                                Some(b't') => '\t',
                                Some(b'r') => '\r',
                                Some(b'"') => '"',
                                Some(b'\\') => '\\',
                                _ => return Err(parse_error(input, pos, "unknown escape")),
                            });
                            pos += 2;
                        }
                    }
                }
                pos += 1;
                Tok::Str(s)
            }
            b'@' => {
                pos += 1;
                while b.get(pos).is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'-') {
                    pos += 1;
                }
                if pos == start + 1 {
                    return Err(parse_error(input, start, "empty language tag"));
                }
                Tok::LangTag(input[start + 1..pos].to_string())
            }
            b'0'..=b'9' => number(input, &mut pos)?,
            b'.' if b.get(pos + 1).is_some_and(u8::is_ascii_digit) => number(input, &mut pos)?,
            b'.' => {
                pos += 1;
                Tok::Dot
            }
            _ if matches!(c, b':' | b'_') || input[pos..].chars().next().is_some_and(char::is_alphabetic) => {
                let word = name(input, &mut pos, false);
                if b.get(pos) != Some(&b':') {
                    Tok::Word(word.to_string())
                } else {
                    pos += 1;
                    let local = name(input, &mut pos, true).to_string();
                    match word {
                        "_" if local.is_empty() => return Err(parse_error(input, start, "empty blank node label")),
                        "_" => Tok::Blank(local),
                        _ => Tok::PName(word.to_string(), local),
                    }
                }
            }
            _ => symbol(input, &mut pos)?,
        };
        out.push(Token { kind, pos: start });
    }
    out.push(Token { kind: Tok::Eof, pos: input.len() });
    Ok(out)
}

/// The punctuation token at `*pos`.
fn symbol(input: &str, pos: &mut usize) -> Result<Tok> {
    let rest = input.get(*pos..).unwrap_or_default();
    let Some((s, tok)) = SYMBOLS.iter().find(|(s, _)| rest.starts_with(s)) else {
        let found = rest.chars().next().unwrap_or_default();
        return Err(parse_error(input, *pos, format!("unexpected character '{found}'")));
    };
    *pos += s.len();
    Ok(tok.clone())
}

/// A name from `*pos`: letters (any script), digits, `_`, `-`, `.` and,
/// in a local name, `%`. A trailing `.` ends the statement, not the name.
fn name<'a>(input: &'a str, pos: &mut usize, local: bool) -> &'a str {
    let start = *pos;
    for c in input[start..].chars() {
        if !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.') || (local && c == '%')) {
            break;
        }
        *pos += c.len_utf8();
    }
    let word = input[start..*pos].trim_end_matches('.');
    *pos = start + word.len();
    word
}

/// An unsigned numeral from `*pos`, kept as written: digits, an optional
/// fraction (a `.` followed by a digit), an optional exponent.
fn number(input: &str, pos: &mut usize) -> Result<Tok> {
    let b = input.as_bytes();
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    digits(pos);
    let mut integer = true;
    if b.get(*pos) == Some(&b'.') && b.get(*pos + 1).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits(pos);
        integer = false;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(parse_error(input, start, "exponent without digits"));
        }
        integer = false;
    }
    let text = input[start..*pos].to_string();
    Ok(if integer { Tok::Int(text) } else { Tok::Num(text) })
}

/// A parse error at byte `offset` of `text`, located by line and column
/// (both 1-based, the column in characters).
fn parse_error(text: &str, offset: usize, message: impl Into<String>) -> RdfError {
    let before = text.get(..offset).unwrap_or(text);
    let line_start = before.rfind('\n').map_or(0, |nl| nl + 1);
    RdfError::Parse {
        line: before.matches('\n').count() + 1,
        column: before[line_start..].chars().count() + 1,
        message: message.into(),
    }
}

/// A cursor over one text's tokens, with the prefix map its caller's
/// declarations fill and the nesting depth its caller has entered.
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    prefixes: HashMap<String, String>,
}

impl<'a> Cursor<'a> {
    /// Tokenize `text`; no prefix is declared yet.
    pub fn new(text: &'a str) -> Result<Cursor<'a>> {
        Ok(Cursor { text, tokens: tokenize(text)?, pos: 0, depth: 0, prefixes: HashMap::new() })
    }

    /// The next token.
    pub fn peek(&self) -> &Tok {
        self.lookahead(0)
    }

    /// The token `n` places after the next one (`Eof` past the end).
    pub fn lookahead(&self, n: usize) -> &Tok {
        self.tokens.get(self.pos + n).map_or(&Tok::Eof, |t| &t.kind)
    }

    /// Consume and return the next token (`Eof` stays put).
    pub fn advance(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// An error at the next token.
    pub fn err(&self, msg: impl Into<String>) -> RdfError {
        parse_error(self.text, self.tokens.get(self.pos).map_or(self.text.len(), |t| t.pos), msg)
    }

    /// Consume the next token if it is `t`.
    pub fn accept_tok(&mut self, t: &Tok) -> bool {
        let hit = self.peek() == t;
        if hit {
            self.advance();
        }
        hit
    }

    /// Consume `t` or fail.
    pub fn expect_tok(&mut self, t: &Tok) -> Result<()> {
        if self.accept_tok(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    /// True when the next token is the keyword `w` (any case).
    pub fn peek_word(&self, w: &str) -> bool {
        matches!(self.peek(), Tok::Word(s) if s.eq_ignore_ascii_case(w))
    }

    /// Consume the keyword `w` (any case) if it is next.
    pub fn accept_word(&mut self, w: &str) -> bool {
        let hit = self.peek_word(w);
        if hit {
            self.advance();
        }
        hit
    }

    /// Consume the keyword `w` or fail.
    pub fn expect_word(&mut self, w: &str) -> Result<()> {
        if self.accept_word(w) {
            Ok(())
        } else {
            Err(self.err(format!("expected {w}")))
        }
    }

    /// Fail unless the input is used up.
    pub fn expect_eof(&self) -> Result<()> {
        match self.peek() {
            Tok::Eof => Ok(()),
            _ => Err(self.err("unexpected trailing input")),
        }
    }

    /// Run `f` one nesting level deeper, failing past 64 levels.
    pub fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Bind `prefix:` to the namespace `iri`.
    pub fn set_prefix(&mut self, prefix: impl Into<String>, iri: impl Into<String>) {
        self.prefixes.insert(prefix.into(), iri.into());
    }

    /// The body of a prefix declaration, `name: <iri>`.
    pub fn declare_prefix(&mut self) -> Result<()> {
        let (Tok::PName(prefix, local), Tok::Iri(iri)) = (self.peek().clone(), self.lookahead(1).clone())
        else {
            return Err(self.err("expected `name: <iri>` in a prefix declaration"));
        };
        if !local.is_empty() {
            return Err(self.err("malformed prefix declaration"));
        }
        self.pos += 2;
        self.set_prefix(prefix, iri);
        Ok(())
    }

    fn resolve(&self, prefix: &str, local: &str) -> Result<String> {
        let ns = self.prefixes.get(prefix).ok_or_else(|| RdfError::UnknownPrefix(prefix.to_string()))?;
        Ok(format!("{ns}{local}"))
    }

    /// One RDF term: an IRI or prefixed name, a blank node, a string
    /// literal with its `^^datatype` or `@lang`, a signed numeral kept as
    /// written (`1e3` is `"1e3"^^xsd:double`, `007` is
    /// `"007"^^xsd:integer`), or `true` / `false` in any case.
    pub fn term(&mut self) -> Result<Term> {
        let here = self.tokens.get(self.pos).map_or(0, |t| t.pos);
        // A sign is part of the numeral only when nothing separates them.
        let signed = matches!(self.peek(), Tok::Plus | Tok::Minus)
            && self.tokens.get(self.pos + 1).is_some_and(|t| {
                t.pos == here + 1 && matches!(t.kind, Tok::Int(_) | Tok::Num(_))
            });
        let sign = if !signed {
            ""
        } else if self.advance() == Tok::Minus {
            "-"
        } else {
            "+"
        };
        let at = self.pos;
        Ok(match self.advance() {
            Tok::Iri(iri) => Term::Iri(iri),
            Tok::PName(prefix, local) => Term::Iri(self.resolve(&prefix, &local)?),
            Tok::Blank(label) => Term::Blank(label),
            Tok::Int(n) => Term::typed_literal(format!("{sign}{n}"), xsd::INTEGER),
            Tok::Num(n) => Term::typed_literal(format!("{sign}{n}"), xsd::DOUBLE),
            Tok::Word(w) if w.eq_ignore_ascii_case("true") || w.eq_ignore_ascii_case("false") => {
                Term::boolean(w.eq_ignore_ascii_case("true"))
            }
            Tok::Str(lexical) => match self.peek() {
                Tok::DtSep => {
                    self.advance();
                    match self.advance() {
                        Tok::Iri(dt) => Term::typed_literal(lexical, dt),
                        Tok::PName(prefix, local) => Term::typed_literal(lexical, self.resolve(&prefix, &local)?),
                        other => return Err(self.err(format!("expected a datatype IRI, found {other:?}"))),
                    }
                }
                Tok::LangTag(lang) => {
                    let term = Term::lang_literal(lexical, lang.as_str());
                    self.advance();
                    term
                }
                _ => Term::literal(lexical),
            },
            other => {
                self.pos = at;
                return Err(self.err(format!("expected an RDF term, found {other:?}")));
            }
        })
    }

    /// The predicate-object list after `subject`: verbs (`a` reads as
    /// `rdf:type`) separated by `;`, each with objects separated by `,`,
    /// and a last `;` may dangle before `.`, `}` or the end. `node` reads
    /// a verb or an object; `sink` receives each triple in order.
    pub fn predicate_objects<N: Clone + From<Term>>(
        &mut self,
        subject: &N,
        mut node: impl FnMut(&mut Self) -> Result<N>,
        mut sink: impl FnMut(N, N, N),
    ) -> Result<()> {
        loop {
            let verb = match self.peek() {
                Tok::Word(w) if w == "a" => {
                    self.advance();
                    N::from(Term::iri(rdf::TYPE))
                }
                _ => node(self)?,
            };
            loop {
                let object = node(self)?;
                sink(subject.clone(), verb.clone(), object);
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
            if !self.accept_tok(&Tok::Semicolon) || matches!(self.peek(), Tok::Dot | Tok::RBrace | Tok::Eof) {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<Tok> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn term(s: &str) -> Term {
        let mut c = Cursor::new(s).unwrap();
        c.set_prefix("ex", "http://x/");
        let t = c.term().unwrap();
        c.expect_eof().unwrap();
        t
    }

    #[test]
    fn variables_and_words() {
        assert_eq!(
            kinds("SELECT ?x $y WHERE"),
            vec![
                Tok::Word("SELECT".into()),
                Tok::Var("x".into()),
                Tok::Var("y".into()),
                Tok::Word("WHERE".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn iri_vs_less_than() {
        assert_eq!(
            kinds("<http://x/a> < 5 <= ?v"),
            vec![
                Tok::Iri("http://x/a".into()),
                Tok::Lt,
                Tok::Int("5".into()),
                Tok::Le,
                Tok::Var("v".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn prefixed_names() {
        assert_eq!(
            kinds("noa:Hotspot strdf:hasGeometry :local ex:Πελοπόννησος"),
            vec![
                Tok::PName("noa".into(), "Hotspot".into()),
                Tok::PName("strdf".into(), "hasGeometry".into()),
                Tok::PName("".into(), "local".into()),
                Tok::PName("ex".into(), "Πελοπόννησος".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn pname_trailing_dot_is_statement_dot() {
        assert_eq!(
            kinds("?s a noa:Hotspot ."),
            vec![
                Tok::Var("s".into()),
                Tok::Word("a".into()),
                Tok::PName("noa".into(), "Hotspot".into()),
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn typed_literal_tokens() {
        assert_eq!(
            kinds("\"POINT (1 2)\"^^strdf:WKT"),
            vec![
                Tok::Str("POINT (1 2)".into()),
                Tok::DtSep,
                Tok::PName("strdf".into(), "WKT".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lang_tag() {
        assert_eq!(kinds("\"fire\"@en"), vec![Tok::Str("fire".into()), Tok::LangTag("en".into()), Tok::Eof]);
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 2.5 .5 1e3 007 1. 0..1"),
            vec![
                Tok::Int("42".into()),
                Tok::Num("2.5".into()),
                Tok::Num(".5".into()),
                Tok::Num("1e3".into()),
                Tok::Int("007".into()),
                Tok::Int("1".into()),
                Tok::Dot,
                Tok::Int("0".into()),
                Tok::Dot,
                Tok::Num(".1".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("&& || ! != = >= >"),
            vec![Tok::AndAnd, Tok::OrOr, Tok::Bang, Tok::Ne, Tok::Eq, Tok::Ge, Tok::Gt, Tok::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(kinds("?x # comment\n?y"), vec![Tok::Var("x".into()), Tok::Var("y".into()), Tok::Eof]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\"b\n""#), vec![Tok::Str("a\"b\n".into()), Tok::Eof]);
        assert_eq!(kinds("\"Πελοπόννησος\""), vec![Tok::Str("Πελοπόννησος".into()), Tok::Eof]);
    }

    #[test]
    fn blank_nodes() {
        assert_eq!(kinds("_:b1 _:x-y."), vec![Tok::Blank("b1".into()), Tok::Blank("x-y".into()), Tok::Dot, Tok::Eof]);
    }

    #[test]
    fn errors() {
        assert!(tokenize("?").is_err());
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("&x").is_err());
        assert!(tokenize("_:").is_err());
        assert!(tokenize("1e+").is_err());
        assert!(tokenize("€").is_err());
    }

    #[test]
    fn terms_keep_their_lexical_form() {
        assert_eq!(term("-3"), Term::typed_literal("-3", xsd::INTEGER));
        assert_eq!(term("+5"), Term::typed_literal("+5", xsd::INTEGER));
        assert_eq!(term("1e3"), Term::typed_literal("1e3", xsd::DOUBLE));
        assert_eq!(term("2.50"), Term::typed_literal("2.50", xsd::DOUBLE));
        assert_eq!(term(".5"), Term::typed_literal(".5", xsd::DOUBLE));
        assert_eq!(term("007"), Term::typed_literal("007", xsd::INTEGER));
        assert_eq!(term("TRUE"), Term::boolean(true));
        assert_eq!(term("_:b1"), Term::blank("b1"));
        assert_eq!(term("ex:Πελοπόννησος"), Term::iri("http://x/Πελοπόννησος"));
        assert_eq!(term("\"v\"^^ex:t"), Term::typed_literal("v", "http://x/t"));
        assert_eq!(term("\"v\"@el"), Term::lang_literal("v", "el"));
        // A sign apart from its digits is an operator, not part of a term.
        assert!(Cursor::new("- 3").unwrap().term().is_err());
        assert!(matches!(Cursor::new("no:x").unwrap().term(), Err(RdfError::UnknownPrefix(p)) if p == "no"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let mut c = Cursor::new("ex:a\n  ex:b\n  ex:c ,").unwrap();
        c.advance();
        c.advance();
        c.advance();
        match c.expect_tok(&Tok::Dot) {
            Err(RdfError::Parse { line, column, .. }) => assert_eq!((line, column), (3, 8)),
            other => panic!("wrong: {other:?}"),
        }
        match tokenize("\"Πέλοψ\"\n  &x") {
            Err(RdfError::Parse { line, column, .. }) => assert_eq!((line, column), (2, 3)),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn nesting_is_bounded() {
        fn parens(c: &mut Cursor) -> Result<()> {
            if c.accept_tok(&Tok::LParen) {
                c.nested(parens)?;
                c.expect_tok(&Tok::RParen)?;
            }
            Ok(())
        }
        let ok = "(".repeat(MAX_DEPTH - 1) + &")".repeat(MAX_DEPTH - 1);
        assert!(parens(&mut Cursor::new(&ok).unwrap()).is_ok());
        let deep = "(".repeat(MAX_DEPTH + 1) + &")".repeat(MAX_DEPTH + 1);
        assert!(parens(&mut Cursor::new(&deep).unwrap()).is_err());
    }
}
