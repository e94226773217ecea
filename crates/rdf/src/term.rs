//! RDF terms.

use std::fmt;

/// An RDF term: IRI, blank node, or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(String),
    /// A blank node with a local label.
    Blank(String),
    /// A literal: lexical form plus optional datatype IRI or language tag
    /// (mutually exclusive per RDF 1.1; plain literals have neither).
    Literal {
        /// The lexical form.
        lexical: String,
        /// Datatype IRI, if typed.
        datatype: Option<String>,
        /// Language tag, if tagged.
        lang: Option<String>,
    },
}

impl Term {
    /// IRI term.
    pub fn iri(value: impl Into<String>) -> Term {
        Term::Iri(value.into())
    }

    /// Blank node.
    pub fn blank(label: impl Into<String>) -> Term {
        Term::Blank(label.into())
    }

    /// Plain (untyped) string literal.
    pub fn literal(lexical: impl Into<String>) -> Term {
        Term::Literal { lexical: lexical.into(), datatype: None, lang: None }
    }

    /// Typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Term {
        Term::Literal { lexical: lexical.into(), datatype: Some(datatype.into()), lang: None }
    }

    /// Language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Term {
        Term::Literal { lexical: lexical.into(), datatype: None, lang: Some(lang.into()) }
    }

    /// Integer literal (`xsd:integer`).
    pub fn int(value: i64) -> Term {
        Term::typed_literal(value.to_string(), crate::vocab::xsd::INTEGER)
    }

    /// Double literal (`xsd:double`).
    pub fn double(value: f64) -> Term {
        Term::typed_literal(value.to_string(), crate::vocab::xsd::DOUBLE)
    }

    /// Boolean literal (`xsd:boolean`).
    pub fn boolean(value: bool) -> Term {
        Term::typed_literal(value.to_string(), crate::vocab::xsd::BOOLEAN)
    }

    /// `xsd:dateTime` literal from an ISO-8601 string.
    pub fn date_time(value: impl Into<String>) -> Term {
        Term::typed_literal(value, crate::vocab::xsd::DATE_TIME)
    }

    /// True for IRIs.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for literals.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// True for blank nodes.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The IRI value, if this is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The lexical form, if this is a literal.
    pub fn lexical(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// The datatype IRI, if this is a typed literal.
    pub fn datatype(&self) -> Option<&str> {
        match self {
            Term::Literal { datatype, .. } => datatype.as_deref(),
            _ => None,
        }
    }

    /// Numeric view of a literal (integers, doubles, plain numerics).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Literal { lexical, .. } => lexical.parse().ok(),
            _ => None,
        }
    }

    /// Integer view of a literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Term::Literal { lexical, .. } => lexical.parse().ok(),
            _ => None,
        }
    }

    /// Boolean view of a literal.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Term::Literal { lexical, .. } => match lexical.as_str() {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Write a literal's lexical form escaped for Turtle/N-Triples: the
/// stretches between the five special characters go out whole.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        f.write_str(&s[plain..i])?;
        f.write_str(escaped)?;
        plain = i + 1;
    }
    f.write_str(&s[plain..])
}

impl fmt::Display for Term {
    /// N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::Blank(label) => write!(f, "_:{label}"),
            Term::Literal { lexical, datatype, lang } => {
                f.write_str("\"")?;
                write_escaped(f, lexical)?;
                f.write_str("\"")?;
                if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                } else if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_views() {
        let t = Term::int(42);
        assert_eq!(t.as_i64(), Some(42));
        assert_eq!(t.as_f64(), Some(42.0));
        assert!(t.is_literal());
        assert_eq!(t.datatype(), Some(crate::vocab::xsd::INTEGER));
        assert_eq!(Term::boolean(true).as_bool(), Some(true));
        assert_eq!(Term::iri("http://x/").as_iri(), Some("http://x/"));
        assert!(Term::blank("b0").is_blank());
    }

    #[test]
    fn display_ntriples() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#integer").to_string(),
            "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::lang_literal("fire", "en").to_string(), "\"fire\"@en");
    }

    #[test]
    fn display_escapes() {
        let t = Term::literal("line1\nline2 \"quoted\" back\\slash");
        assert_eq!(t.to_string(), "\"line1\\nline2 \\\"quoted\\\" back\\\\slash\"");
    }

    #[test]
    fn display_escapes_at_every_position() {
        let specials = [('"', "\\\""), ('\\', "\\\\"), ('\n', "\\n"), ('\r', "\\r"), ('\t', "\\t")];
        for (c, esc) in specials {
            for (lexical, want) in [
                (format!("{c}é火x"), format!("{esc}é火x")),
                (format!("é{c}{c}火"), format!("é{esc}{esc}火")),
                (format!("x火é{c}"), format!("x火é{esc}")),
                (c.to_string(), esc.to_string()),
            ] {
                assert_eq!(Term::literal(lexical).to_string(), format!("\"{want}\""));
            }
        }
        let all: String = specials.iter().map(|(c, _)| *c).collect();
        assert_eq!(Term::literal(all).to_string(), "\"\\\"\\\\\\n\\r\\t\"");
        assert_eq!(Term::literal("").to_string(), "\"\"");
        assert_eq!(Term::lang_literal("Ψ\"π", "el").to_string(), "\"Ψ\\\"π\"@el");
    }

    #[test]
    fn ordering_is_stable() {
        let mut terms = [Term::literal("b"), Term::iri("a"), Term::blank("c")];
        terms.sort();
        // Enum order: Iri < Blank < Literal.
        assert!(terms[0].is_iri());
        assert!(terms[1].is_blank());
        assert!(terms[2].is_literal());
    }
}
