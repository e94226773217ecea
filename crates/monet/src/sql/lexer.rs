//! SQL lexer, and the token cursor the SQL and SciQL parsers share.

use crate::error::DbError;
use crate::Result;

/// How deep parentheses, brackets and prefix operators may nest: past it
/// a parser returns an error rather than exhausting the thread's stack.
const MAX_DEPTH: usize = 64;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the input.
    pub pos: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword or identifier (upper-cased for keywords; identifiers keep
    /// their original case in `Ident`).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, '' unescaped).
    Str(String),
    /// Punctuation / operator.
    Symbol(Symbol),
    /// End of input.
    Eof,
}

/// Operator / punctuation symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Punctuation, two-byte spellings first so `<=` is not read as `<`.
const SYMBOLS: [(&str, Symbol); 20] = [
    ("..", Symbol::DotDot),
    ("<=", Symbol::Le),
    ("<>", Symbol::Ne),
    ("!=", Symbol::Ne),
    (">=", Symbol::Ge),
    ("(", Symbol::LParen),
    (")", Symbol::RParen),
    ("[", Symbol::LBracket),
    ("]", Symbol::RBracket),
    (",", Symbol::Comma),
    (".", Symbol::Dot),
    (";", Symbol::Semicolon),
    ("*", Symbol::Star),
    ("+", Symbol::Plus),
    ("-", Symbol::Minus),
    ("/", Symbol::Slash),
    ("%", Symbol::Percent),
    ("=", Symbol::Eq),
    ("<", Symbol::Lt),
    (">", Symbol::Gt),
];

/// Tokenize SQL (or SciQL) text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(pos) {
        if b.is_ascii_whitespace() {
            pos += 1;
            continue;
        }
        // Line comments.
        if bytes[pos..].starts_with(b"--") {
            while bytes.get(pos).is_some_and(|&c| c != b'\n') {
                pos += 1;
            }
            continue;
        }
        let start = pos;
        let kind = if b.is_ascii_alphabetic() || b == b'_' {
            while bytes.get(pos).is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_') {
                pos += 1;
            }
            TokenKind::Ident(input[start..pos].to_string())
        } else if b.is_ascii_digit() || (b == b'.' && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit)) {
            let mut is_float = false;
            while let Some(&c) = bytes.get(pos) {
                match c {
                    b'0'..=b'9' => pos += 1,
                    // A `.` continues the number unless it starts a `..` range.
                    b'.' if !is_float && bytes.get(pos + 1) != Some(&b'.') => {
                        is_float = true;
                        pos += 1;
                    }
                    b'e' | b'E' => {
                        is_float = true;
                        pos += 1;
                        if matches!(bytes.get(pos), Some(b'+') | Some(b'-')) {
                            pos += 1;
                        }
                    }
                    _ => break,
                }
            }
            let text = &input[start..pos];
            if is_float {
                TokenKind::Float(
                    text.parse().map_err(|e| DbError::parse(input, start, format!("bad float literal: {e}")))?,
                )
            } else {
                TokenKind::Int(
                    text.parse().map_err(|e| DbError::parse(input, start, format!("bad integer literal: {e}")))?,
                )
            }
        } else if b == b'\'' {
            pos += 1;
            let mut s = String::new();
            loop {
                // Copy the run up to the next quote: it is ASCII, so the
                // run's ends are character boundaries.
                let run = pos;
                while bytes.get(pos).is_some_and(|&c| c != b'\'') {
                    pos += 1;
                }
                s.push_str(&input[run..pos]);
                match (bytes.get(pos), bytes.get(pos + 1)) {
                    (None, _) => return Err(DbError::parse(input, start, "unterminated string literal")),
                    (_, Some(b'\'')) => {
                        s.push('\'');
                        pos += 2;
                    }
                    _ => break,
                }
            }
            pos += 1;
            TokenKind::Str(s)
        } else {
            let rest = input.get(pos..).unwrap_or_default();
            let Some((text, sym)) = SYMBOLS.iter().find(|(text, _)| rest.starts_with(text)) else {
                let found = rest.chars().next().unwrap_or_default();
                return Err(DbError::parse(input, pos, format!("unexpected character '{found}'")));
            };
            pos += text.len();
            TokenKind::Symbol(*sym)
        };
        out.push(Token { kind, pos: start });
    }
    out.push(Token { kind: TokenKind::Eof, pos: input.len() });
    Ok(out)
}

/// A cursor over one statement's tokens: the helpers both the SQL
/// grammar (`sql::parser`) and the SciQL grammar (`teleios-sciql`) are
/// written against, plus the one nesting bound both charge.
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// Tokenize `text`.
    pub fn new(text: &'a str) -> Result<Cursor<'a>> {
        Ok(Cursor { text, tokens: tokenize(text)?, pos: 0, depth: 0 })
    }

    /// The next token.
    pub fn peek(&self) -> &TokenKind {
        self.lookahead(0)
    }

    /// The token `n` places after the next one (`Eof` past the end).
    pub fn lookahead(&self, n: usize) -> &TokenKind {
        self.tokens.get(self.pos + n).map_or(&TokenKind::Eof, |t| &t.kind)
    }

    /// Consume and return the next token (`Eof` stays put).
    pub fn advance(&mut self) -> TokenKind {
        let t = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// An error at the next token.
    pub fn err(&self, msg: impl Into<String>) -> DbError {
        DbError::parse(self.text, self.tokens.get(self.pos).map_or(self.text.len(), |t| t.pos), msg)
    }

    /// True (and consumes) when the next token is the given keyword.
    pub fn accept_kw(&mut self, kw: &str) -> bool {
        let hit = self.peek_kw(kw);
        if hit {
            self.advance();
        }
        hit
    }

    /// Consume the keyword or fail.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    /// True when the next token is the given keyword (any case).
    pub fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// True (and consumes) when the next token is `sym`.
    pub fn accept_symbol(&mut self, sym: Symbol) -> bool {
        let hit = self.peek() == &TokenKind::Symbol(sym);
        if hit {
            self.advance();
        }
        hit
    }

    /// Consume `sym` or fail.
    pub fn expect_symbol(&mut self, sym: Symbol) -> Result<()> {
        if self.accept_symbol(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected {sym:?}")))
        }
    }

    /// Fail unless the statement is used up.
    pub fn expect_eof(&self) -> Result<()> {
        match self.peek() {
            TokenKind::Eof => Ok(()),
            _ => Err(self.err("unexpected trailing input")),
        }
    }

    /// An identifier (or keyword).
    pub fn ident(&mut self) -> Result<String> {
        let TokenKind::Ident(s) = self.peek() else {
            return Err(self.err(format!("expected identifier, found {:?}", self.peek())));
        };
        let s = s.clone();
        self.advance();
        Ok(s)
    }

    /// A non-negative integer literal.
    pub fn usize_lit(&mut self) -> Result<usize> {
        match self.peek() {
            &TokenKind::Int(n) if n >= 0 => {
                self.advance();
                Ok(n as usize)
            }
            other => Err(self.err(format!("expected non-negative integer, found {other:?}"))),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let k = kinds("SELECT a FROM t");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 1e3 .5 1."),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.5),
                TokenKind::Float(1.0),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn ranges_and_brackets() {
        use Symbol::*;
        assert_eq!(
            kinds("img[0..10, 1.5..2]"),
            vec![
                TokenKind::Ident("img".into()),
                TokenKind::Symbol(LBracket),
                TokenKind::Int(0),
                TokenKind::Symbol(DotDot),
                TokenKind::Int(10),
                TokenKind::Symbol(Comma),
                TokenKind::Float(1.5),
                TokenKind::Symbol(DotDot),
                TokenKind::Int(2),
                TokenKind::Symbol(RBracket),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds("'it''s' 'plain'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Str("plain".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("<= >= <> != < > ="),
            vec![
                TokenKind::Symbol(Symbol::Le),
                TokenKind::Symbol(Symbol::Ge),
                TokenKind::Symbol(Symbol::Ne),
                TokenKind::Symbol(Symbol::Ne),
                TokenKind::Symbol(Symbol::Lt),
                TokenKind::Symbol(Symbol::Gt),
                TokenKind::Symbol(Symbol::Eq),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("SELECT -- comment here\n 1"),
            vec![TokenKind::Ident("SELECT".into()), TokenKind::Int(1), TokenKind::Eof]
        );
    }

    #[test]
    fn unexpected_character() {
        assert!(tokenize("SELECT #").is_err());
    }

    #[test]
    fn negative_handled_as_minus_token() {
        assert_eq!(
            kinds("-5"),
            vec![TokenKind::Symbol(Symbol::Minus), TokenKind::Int(5), TokenKind::Eof]
        );
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(kinds("'Πελοπόννησος'"), vec![TokenKind::Str("Πελοπόννησος".into()), TokenKind::Eof]);
    }
}
