//! Turtle subset reader and writer.
//!
//! Supported syntax: `@prefix` declarations, IRIs, prefixed names, the
//! `a` keyword, blank nodes (`_:label`), string literals with `\`
//! escapes, `^^` datatypes, `@lang` tags, bare signed integers /
//! decimals / doubles (kept as written) and booleans, predicate lists
//! (`;`), object lists (`,`) and `#` comments — the tokens, terms and
//! lists are [`crate::syntax`]'s, shared with stSPARQL. Collections
//! `(...)` and anonymous nodes `[...]` are not supported — the TELEIOS
//! datasets do not use them.

use crate::store::TripleStore;
use crate::syntax::{Cursor, Tok};
use crate::term::Term;
use crate::vocab::rdf;
use crate::Result;

/// Parse Turtle text into triples, appending them to `store`.
/// Returns the number of (new) triples inserted.
pub fn parse_into(input: &str, store: &mut TripleStore) -> Result<usize> {
    let mut n = 0;
    parse_triples(input, |s, p, o| {
        if store.insert_terms(&s, &p, &o) {
            n += 1;
        }
    })?;
    Ok(n)
}

/// Parse Turtle text, invoking `sink` for every triple.
pub fn parse_triples<F: FnMut(Term, Term, Term)>(input: &str, mut sink: F) -> Result<()> {
    let mut c = Cursor::new(input)?;
    while c.peek() != &Tok::Eof {
        if matches!(c.peek(), Tok::LangTag(t) if t == "prefix") {
            c.advance();
            c.declare_prefix()?;
        } else {
            let subject = c.term()?;
            c.predicate_objects(&subject, Cursor::term, &mut sink)?;
        }
        c.expect_tok(&Tok::Dot)?;
    }
    Ok(())
}

/// Serialize triples as Turtle (grouped by subject with `;`).
pub(crate) fn write(triples: &[(Term, Term, Term)]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < triples.len() {
        let (s, _, _) = &triples[i];
        out.push_str(&s.to_string());
        let mut first = true;
        while i < triples.len() && &triples[i].0 == s {
            let (_, p, o) = &triples[i];
            if first {
                first = false;
                out.push(' ');
            } else {
                out.push_str(" ;\n    ");
            }
            if p.as_iri() == Some(rdf::TYPE) {
                out.push_str("a ");
            } else {
                out.push_str(&p.to_string());
                out.push(' ');
            }
            out.push_str(&o.to_string());
            i += 1;
        }
        out.push_str(" .\n");
    }
    out
}

/// Serialize an entire store as Turtle.
pub fn write_store(store: &TripleStore) -> String {
    let triples: Vec<(Term, Term, Term)> = store
        .iter()
        .map(|t| {
            (
                store.term(t.s).clone(),
                store.term(t.p).clone(),
                store.term(t.o).clone(),
            )
        })
        .collect();
    write(&triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;
    use crate::RdfError;

    fn collect(input: &str) -> Vec<(Term, Term, Term)> {
        let mut out = Vec::new();
        parse_triples(input, |s, p, o| out.push((s, p, o))).unwrap();
        out
    }

    #[test]
    fn simple_triple() {
        let ts = collect("<http://x/s> <http://x/p> <http://x/o> .");
        assert_eq!(ts, vec![(Term::iri("http://x/s"), Term::iri("http://x/p"), Term::iri("http://x/o"))]);
    }

    #[test]
    fn prefixes_and_a() {
        let ts = collect(
            "@prefix ex: <http://x/> .\n@prefix noa: <http://noa.gr/> .\nex:img1 a noa:RawImage .",
        );
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].0, Term::iri("http://x/img1"));
        assert_eq!(ts[0].1, Term::iri(rdf::TYPE));
        assert_eq!(ts[0].2, Term::iri("http://noa.gr/RawImage"));
    }

    #[test]
    fn predicate_and_object_lists() {
        let ts = collect(
            "@prefix ex: <http://x/> .\n\
             ex:s ex:p1 ex:o1, ex:o2 ;\n   ex:p2 ex:o3 .",
        );
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].2, Term::iri("http://x/o1"));
        assert_eq!(ts[1].2, Term::iri("http://x/o2"));
        assert_eq!(ts[2].1, Term::iri("http://x/p2"));
    }

    #[test]
    fn literals_typed_tagged_plain() {
        let ts = collect(
            "@prefix ex: <http://x/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             ex:s ex:plain \"hello\" ;\n\
                  ex:typed \"3.5\"^^xsd:double ;\n\
                  ex:typed2 \"2007-08-25T00:00:00Z\"^^<http://www.w3.org/2001/XMLSchema#dateTime> ;\n\
                  ex:tagged \"fire\"@en .",
        );
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0].2, Term::literal("hello"));
        assert_eq!(ts[1].2, Term::typed_literal("3.5", xsd::DOUBLE));
        assert_eq!(ts[2].2, Term::date_time("2007-08-25T00:00:00Z"));
        assert_eq!(ts[3].2, Term::lang_literal("fire", "en"));
    }

    #[test]
    fn bare_numbers_and_booleans() {
        let ts = collect("@prefix ex: <http://x/> .\nex:s ex:i 42 ; ex:d 2.5 ; ex:n -3 ; ex:b true ; ex:h .5 ; ex:B FALSE .");
        assert_eq!(ts[0].2, Term::int(42));
        assert_eq!(ts[1].2, Term::typed_literal("2.5", xsd::DOUBLE));
        assert_eq!(ts[2].2, Term::typed_literal("-3", xsd::INTEGER));
        assert_eq!(ts[3].2, Term::boolean(true));
        assert_eq!(ts[4].2, Term::typed_literal(".5", xsd::DOUBLE));
        assert_eq!(ts[5].2, Term::boolean(false));
        // `a` needs no space before an IRI.
        assert_eq!(collect("<http://x/s> a<http://x/C> .")[0].1, Term::iri(rdf::TYPE));
    }

    #[test]
    fn integer_followed_by_statement_dot() {
        let ts = collect("@prefix ex: <http://x/> .\nex:s ex:i 42 .");
        assert_eq!(ts[0].2, Term::int(42));
    }

    #[test]
    fn blank_nodes() {
        let ts = collect("_:b1 <http://x/p> _:b2 .");
        assert_eq!(ts[0].0, Term::blank("b1"));
        assert_eq!(ts[0].2, Term::blank("b2"));
    }

    #[test]
    fn comments_and_blank_lines() {
        let ts = collect("# header\n\n<http://x/s> <http://x/p> 1 . # trailing\n# done\n");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn escapes_in_literals() {
        let ts = collect(r#"<http://x/s> <http://x/p> "a\"b\\c\nd" ."#);
        assert_eq!(ts[0].2, Term::literal("a\"b\\c\nd"));
    }

    #[test]
    fn wkt_literal_with_crs() {
        let ts = collect(
            "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n\
             <http://x/geo> <http://x/asWKT> \"<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (23.7 38)\"^^strdf:WKT .",
        );
        let (g, srid) = crate::strdf::parse_geometry(&ts[0].2).unwrap();
        assert_eq!(srid, 4326);
        assert_eq!(g.num_coords(), 1);
    }

    #[test]
    fn unknown_prefix_errors() {
        let e = parse_triples("ex:s ex:p ex:o .", |_, _, _| {}).unwrap_err();
        assert!(matches!(e, RdfError::UnknownPrefix(_)));
    }

    #[test]
    fn parse_errors_carry_line() {
        let e = parse_triples("<http://x/s> <http://x/p>\n<http://x/o>", |_, _, _| {}).unwrap_err();
        match e {
            RdfError::Parse { line, .. } => assert!(line >= 2),
            other => panic!("wrong error: {other:?}"),
        }
        // A three-line statement with its error on line 3.
        let e = parse_triples("<http://x/s>\n  <http://x/p>\n  <http://x/o> ;;", |_, _, _| {}).unwrap_err();
        assert_eq!(e.to_string(), "parse error at line 3, column 17: expected an RDF term, found Semicolon");
    }

    #[test]
    fn roundtrip_through_writer() {
        let input = "@prefix ex: <http://x/> .\n\
                     ex:s a ex:Class ; ex:p \"v\" ; ex:q 3 .\n\
                     ex:t ex:p ex:s .";
        let triples = collect(input);
        let written = write(&triples);
        let reparsed = collect(&written);
        assert_eq!(triples.len(), reparsed.len());
        for t in &triples {
            assert!(reparsed.contains(t), "missing {t:?} in {written}");
        }
    }

    #[test]
    fn parse_into_store_counts_new() {
        let mut store = TripleStore::new();
        let n = parse_into("<http://x/s> <http://x/p> 1 . <http://x/s> <http://x/p> 1 .", &mut store)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn dangling_semicolon_tolerated() {
        let ts = collect("@prefix ex: <http://x/> .\nex:s ex:p ex:o ; .");
        assert_eq!(ts.len(), 1);
    }
}
