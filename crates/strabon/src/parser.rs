//! stSPARQL parser: the query and update grammar over the RDF family's
//! shared reader ([`teleios_rdf::syntax`]), which owns the tokens, the
//! terms, the predicate-object lists and the nesting bound.

use crate::ast::*;
use crate::Result;
use teleios_rdf::syntax::{Cursor, Tok};
use teleios_rdf::term::Term;
use teleios_rdf::vocab;

/// What the grammar below returns; [`parse_query`] / [`parse_update`]
/// convert it to a [`crate::StrabonError`].
type Parsed<T> = teleios_rdf::Result<T>;

/// Parse a SELECT or ASK query.
pub fn parse_query(text: &str) -> Result<Query> {
    let mut c = prologue(text)?;
    let q = if c.accept_word("SELECT") {
        Query::Select(parse_select_body(&mut c)?)
    } else if c.accept_word("ASK") {
        Query::Ask(AskQuery { where_clause: parse_group(&mut c)? })
    } else if c.accept_word("CONSTRUCT") {
        let template = parse_template(&mut c)?;
        c.expect_word("WHERE")?;
        Query::Construct(ConstructQuery { template, where_clause: parse_group(&mut c)? })
    } else {
        return Err(c.err("expected SELECT, ASK or CONSTRUCT").into());
    };
    c.expect_eof()?;
    Ok(q)
}

/// Parse an update request.
pub fn parse_update(text: &str) -> Result<Update> {
    let mut c = prologue(text)?;
    let u = parse_update_body(&mut c)?;
    c.expect_eof()?;
    Ok(u)
}

/// A cursor over `text` past its `PREFIX` declarations. The well-known
/// prefixes are always declared.
fn prologue(text: &str) -> Parsed<Cursor<'_>> {
    let mut c = Cursor::new(text)?;
    c.set_prefix("rdf", vocab::rdf::NS);
    c.set_prefix("rdfs", vocab::rdfs::NS);
    c.set_prefix("xsd", vocab::xsd::NS);
    c.set_prefix("strdf", vocab::strdf::NS);
    while c.accept_word("PREFIX") {
        c.declare_prefix()?;
    }
    Ok(c)
}

fn accept_var(c: &mut Cursor) -> Option<String> {
    let Tok::Var(v) = c.peek() else { return None };
    let v = v.clone();
    c.advance();
    Some(v)
}

fn expect_var(c: &mut Cursor) -> Parsed<String> {
    accept_var(c).ok_or_else(|| c.err("expected a variable"))
}

fn parse_var_or_term(c: &mut Cursor) -> Parsed<VarOrTerm> {
    Ok(match accept_var(c) {
        Some(v) => VarOrTerm::Var(v),
        None => VarOrTerm::Term(c.term()?),
    })
}

/// `( expression )`.
fn parse_bracketed(c: &mut Cursor) -> Parsed<Expression> {
    c.expect_tok(&Tok::LParen)?;
    let e = parse_expression(c)?;
    c.expect_tok(&Tok::RParen)?;
    Ok(e)
}

/// `( expression AS ?var )`.
fn parse_bound_expression(c: &mut Cursor) -> Parsed<(Expression, String)> {
    c.expect_tok(&Tok::LParen)?;
    let expr = parse_expression(c)?;
    c.expect_word("AS")?;
    let var = expect_var(c)?;
    c.expect_tok(&Tok::RParen)?;
    Ok((expr, var))
}

/// A non-negative integer after LIMIT or OFFSET.
fn parse_count(c: &mut Cursor, clause: &str) -> Parsed<usize> {
    match c.peek() {
        Tok::Int(n) => {
            let n = n.parse().map_err(|_| c.err(format!("{clause} is out of range")))?;
            c.advance();
            Ok(n)
        }
        _ => Err(c.err(format!("{clause} expects a non-negative integer"))),
    }
}

fn parse_select_body(c: &mut Cursor) -> Parsed<SelectQuery> {
    let distinct = c.accept_word("DISTINCT");
    let projection = if c.accept_tok(&Tok::Star) {
        Projection::All
    } else {
        let mut items = Vec::new();
        loop {
            if let Some(v) = accept_var(c) {
                items.push(ProjectionItem::Var(v));
            } else if c.peek() == &Tok::LParen {
                let (expr, var) = parse_bound_expression(c)?;
                items.push(ProjectionItem::Expr { expr, var });
            } else {
                break;
            }
        }
        if items.is_empty() {
            return Err(c.err("empty SELECT projection"));
        }
        Projection::Vars(items)
    };
    c.expect_word("WHERE")?;
    let where_clause = parse_group(c)?;
    let mut group_by = Vec::new();
    if c.accept_word("GROUP") {
        c.expect_word("BY")?;
        while let Some(v) = accept_var(c) {
            group_by.push(v);
        }
        if group_by.is_empty() {
            return Err(c.err("GROUP BY expects at least one variable"));
        }
    }
    let mut order_by = Vec::new();
    if c.accept_word("ORDER") {
        c.expect_word("BY")?;
        // SPARQL 1.1's OrderCondition: `ASC(e)`, `DESC(e)`, a variable,
        // a bracketed expression, or a builtin or function call.
        loop {
            let desc = c.accept_word("DESC");
            let expr = if desc || c.accept_word("ASC") {
                parse_bracketed(c)?
            } else if matches!(c.peek(), Tok::Var(_) | Tok::LParen)
                || c.lookahead(1) == &Tok::LParen
            {
                parse_primary_expr(c)?
            } else {
                break;
            };
            order_by.push(OrderKey { expr, desc });
        }
        if order_by.is_empty() {
            return Err(c.err("empty ORDER BY"));
        }
    }
    let mut limit = None;
    let mut offset = 0usize;
    loop {
        if c.accept_word("LIMIT") {
            limit = Some(parse_count(c, "LIMIT")?);
        } else if c.accept_word("OFFSET") {
            offset = parse_count(c, "OFFSET")?;
        } else {
            break;
        }
    }
    Ok(SelectQuery { distinct, projection, where_clause, group_by, order_by, limit, offset })
}

fn parse_group(c: &mut Cursor) -> Parsed<GroupPattern> {
    c.nested(|c| {
        c.expect_tok(&Tok::LBrace)?;
        let mut elements = Vec::new();
        while !c.accept_tok(&Tok::RBrace) {
            if c.accept_word("FILTER") {
                // FILTER [NOT] EXISTS { ... } is pattern-level.
                let negated = c.peek_word("NOT")
                    && matches!(c.lookahead(1), Tok::Word(w) if w.eq_ignore_ascii_case("EXISTS"));
                if negated {
                    c.advance();
                }
                elements.push(if c.accept_word("EXISTS") {
                    PatternElement::FilterExists { group: parse_group(c)?, negated }
                } else {
                    PatternElement::Filter(parse_bracketed(c)?)
                });
            } else if c.accept_word("OPTIONAL") {
                elements.push(PatternElement::Optional(parse_group(c)?));
            } else if c.accept_word("MINUS") {
                elements.push(PatternElement::Minus(parse_group(c)?));
            } else if c.accept_word("BIND") {
                let (expr, var) = parse_bound_expression(c)?;
                elements.push(PatternElement::Bind { expr, var });
            } else if c.peek() == &Tok::LBrace {
                // Group, possibly a UNION chain.
                let first = parse_group(c)?;
                if c.peek_word("UNION") {
                    let mut branches = vec![first];
                    while c.accept_word("UNION") {
                        branches.push(parse_group(c)?);
                    }
                    elements.push(PatternElement::Union(branches));
                } else {
                    // Inline the nested group.
                    elements.extend(first.elements);
                }
            } else if !c.accept_tok(&Tok::Dot) {
                let s = parse_var_or_term(c)?;
                c.predicate_objects(&s, parse_var_or_term, |s, p, o| {
                    elements.push(PatternElement::Triple(PatternTriple { s, p, o }))
                })?;
                c.accept_tok(&Tok::Dot);
            }
        }
        Ok(GroupPattern { elements })
    })
}

// --- expressions -----------------------------------------------------

/// Binary operators by precedence level, loosest first.
const LEVELS: [&[(Tok, BinaryOp)]; 5] = [
    &[(Tok::OrOr, BinaryOp::Or)],
    &[(Tok::AndAnd, BinaryOp::And)],
    &[
        (Tok::Eq, BinaryOp::Eq),
        (Tok::Ne, BinaryOp::Ne),
        (Tok::Lt, BinaryOp::Lt),
        (Tok::Le, BinaryOp::Le),
        (Tok::Gt, BinaryOp::Gt),
        (Tok::Ge, BinaryOp::Ge),
    ],
    &[(Tok::Plus, BinaryOp::Add), (Tok::Minus, BinaryOp::Sub)],
    &[(Tok::Star, BinaryOp::Mul), (Tok::Slash, BinaryOp::Div)],
];

/// The comparison level: `a < b < c` does not parse.
const COMPARISON: usize = 2;

fn parse_expression(c: &mut Cursor) -> Parsed<Expression> {
    parse_binary(c, 0)
}

/// Left-associative operators of `LEVELS[level]` over the tighter levels.
fn parse_binary(c: &mut Cursor, level: usize) -> Parsed<Expression> {
    let Some(ops) = LEVELS.get(level) else { return parse_unary(c) };
    let mut left = parse_binary(c, level + 1)?;
    while let Some(&(_, op)) = ops.iter().find(|(t, _)| c.peek() == t) {
        c.advance();
        let right = parse_binary(c, level + 1)?;
        left = Expression::Binary { op, left: Box::new(left), right: Box::new(right) };
        if level == COMPARISON {
            break;
        }
    }
    Ok(left)
}

/// Every nested expression passes through here, so this is where the
/// nesting bound is charged.
fn parse_unary(c: &mut Cursor) -> Parsed<Expression> {
    c.nested(|c| {
        if c.accept_tok(&Tok::Bang) {
            Ok(Expression::Not(Box::new(parse_unary(c)?)))
        } else if c.accept_tok(&Tok::Minus) {
            Ok(Expression::Neg(Box::new(parse_unary(c)?)))
        } else if c.accept_tok(&Tok::Plus) {
            parse_unary(c)
        } else {
            parse_primary_expr(c)
        }
    })
}

fn parse_primary_expr(c: &mut Cursor) -> Parsed<Expression> {
    if let Some(v) = accept_var(c) {
        return Ok(Expression::Var(v));
    }
    match c.peek() {
        Tok::LParen => return parse_bracketed(c),
        // A builtin call: any word but a boolean.
        Tok::Word(w) if !w.eq_ignore_ascii_case("true") && !w.eq_ignore_ascii_case("false") => {
            let name = w.to_ascii_uppercase();
            c.advance();
            if c.peek() != &Tok::LParen {
                return Err(c.err(format!("unexpected word '{name}' in expression")));
            }
            return Ok(Expression::Call { name, args: parse_args(c)? });
        }
        _ => {}
    }
    // A constant, or an IRI naming a function when a `(` follows.
    Ok(match c.term()? {
        Term::Iri(name) if c.peek() == &Tok::LParen => {
            Expression::Call { name, args: parse_args(c)? }
        }
        t => Expression::Const(t),
    })
}

fn parse_args(c: &mut Cursor) -> Parsed<Vec<Expression>> {
    c.expect_tok(&Tok::LParen)?;
    let mut args = Vec::new();
    // `COUNT(*)`: the star stands for "count solutions".
    if c.accept_tok(&Tok::Star) {
        c.expect_tok(&Tok::RParen)?;
        return Ok(args);
    }
    if c.peek() != &Tok::RParen {
        args.push(parse_expression(c)?);
        while c.accept_tok(&Tok::Comma) {
            args.push(parse_expression(c)?);
        }
    }
    c.expect_tok(&Tok::RParen)?;
    Ok(args)
}

// --- updates ---------------------------------------------------------

fn parse_update_body(c: &mut Cursor) -> Parsed<Update> {
    if c.accept_word("INSERT") {
        if c.accept_word("DATA") {
            return Ok(Update::InsertData(parse_template(c)?));
        }
        // INSERT { t } WHERE { p }
        let insert = parse_template(c)?;
        c.expect_word("WHERE")?;
        let where_clause = parse_group(c)?;
        return Ok(Update::Modify { delete: Vec::new(), insert, where_clause });
    }
    if c.accept_word("DELETE") {
        if c.accept_word("DATA") {
            return Ok(Update::DeleteData(parse_template(c)?));
        }
        if c.accept_word("WHERE") {
            return Ok(Update::DeleteWhere(parse_template(c)?));
        }
        let delete = parse_template(c)?;
        let insert = if c.accept_word("INSERT") { parse_template(c)? } else { Vec::new() };
        c.expect_word("WHERE")?;
        let where_clause = parse_group(c)?;
        return Ok(Update::Modify { delete, insert, where_clause });
    }
    Err(c.err("expected INSERT or DELETE"))
}

fn parse_template(c: &mut Cursor) -> Parsed<Vec<PatternTriple>> {
    c.expect_tok(&Tok::LBrace)?;
    let mut out = Vec::new();
    while !c.accept_tok(&Tok::RBrace) {
        if !c.accept_tok(&Tok::Dot) {
            let s = parse_var_or_term(c)?;
            c.predicate_objects(&s, parse_var_or_term, |s, p, o| {
                out.push(PatternTriple { s, p, o })
            })?;
            c.accept_tok(&Tok::Dot);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(text: &str) -> SelectQuery {
        match parse_query(text).unwrap() {
            Query::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let q = sel("SELECT ?s WHERE { ?s ?p ?o }");
        assert_eq!(q.projection, Projection::Vars(vec![ProjectionItem::Var("s".into())]));
        assert_eq!(q.where_clause.elements.len(), 1);
    }

    #[test]
    fn prefixes_resolve() {
        let q = sel("PREFIX noa: <http://noa.gr/> SELECT ?h WHERE { ?h a noa:Hotspot }");
        let PatternElement::Triple(t) = &q.where_clause.elements[0] else { panic!() };
        assert_eq!(t.p, VarOrTerm::Term(Term::iri(vocab::rdf::TYPE)));
        assert_eq!(t.o, VarOrTerm::Term(Term::iri("http://noa.gr/Hotspot")));
    }

    #[test]
    fn builtin_prefixes_available() {
        let q = sel("SELECT ?s WHERE { ?s rdf:type strdf:Geometry }");
        assert_eq!(q.where_clause.elements.len(), 1);
    }

    #[test]
    fn semicolon_and_comma_groups() {
        let q = sel("SELECT * WHERE { ?s a <http://x/C> ; <http://x/p> ?a, ?b . }");
        assert_eq!(q.where_clause.elements.len(), 3);
    }

    #[test]
    fn filter_with_spatial_function() {
        let q = sel("SELECT ?g WHERE { ?h strdf:hasGeometry ?g . \
             FILTER(strdf:distance(?g, \"POINT (1 2)\"^^strdf:WKT) < 2000) }");
        let PatternElement::Filter(Expression::Binary { op: BinaryOp::Lt, left, .. }) =
            &q.where_clause.elements[1]
        else {
            panic!("wrong shape: {:?}", q.where_clause.elements[1]);
        };
        let Expression::Call { name, args } = &**left else { panic!() };
        assert!(name.ends_with("distance"));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn optional_union_minus_bind() {
        let q = sel("SELECT * WHERE { \
               ?s a <http://x/C> . \
               OPTIONAL { ?s <http://x/p> ?v } \
               { ?s <http://x/q> ?w } UNION { ?s <http://x/r> ?w } \
               MINUS { ?s <http://x/bad> ?z } \
               BIND(?v + 1 AS ?v2) }");
        assert_eq!(q.where_clause.elements.len(), 5);
        assert!(matches!(q.where_clause.elements[1], PatternElement::Optional(_)));
        assert!(matches!(&q.where_clause.elements[2], PatternElement::Union(b) if b.len() == 2));
        assert!(matches!(q.where_clause.elements[3], PatternElement::Minus(_)));
        assert!(matches!(q.where_clause.elements[4], PatternElement::Bind { .. }));
    }

    #[test]
    fn distinct_order_limit_offset() {
        let q = sel("SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 5 OFFSET 10");
        assert!(q.distinct);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, 10);
    }

    #[test]
    fn order_by_plain_vars() {
        let q = sel("SELECT ?a ?b WHERE { ?a <http://x/p> ?b } ORDER BY ?a ?b");
        assert_eq!(q.order_by.len(), 2);
    }

    #[test]
    fn order_by_bracketed_expressions_and_calls() {
        let q = sel("SELECT ?k ?r WHERE { ?k <http://x/p> ?r } ORDER BY (?k * 1) ?r LIMIT 3");
        let keys: Vec<_> = q.order_by.iter().map(|k| (&k.expr, k.desc)).collect();
        let k_times_one = Expression::Binary {
            op: BinaryOp::Mul,
            left: Box::new(Expression::Var("k".into())),
            right: Box::new(Expression::Const(Term::int(1))),
        };
        assert_eq!(keys, [(&k_times_one, false), (&Expression::Var("r".into()), false)]);
        assert_eq!(q.limit, Some(3));

        let q = sel("SELECT ?t WHERE { ?s <http://x/p> ?t } ORDER BY STR(?t) DESC(?s) strdf:area(?t) OFFSET 1");
        let names: Vec<_> = q
            .order_by
            .iter()
            .map(|k| match &k.expr {
                Expression::Call { name, .. } => (name.as_str(), k.desc),
                Expression::Var(v) => (v.as_str(), k.desc),
                e => panic!("unexpected key {e:?}"),
            })
            .collect();
        assert_eq!(
            names,
            [("STR", false), ("s", true), ("http://strdf.di.uoa.gr/ontology#area", false)]
        );
        assert_eq!(q.offset, 1);

        // Still an error: no key at all, and a word that calls nothing.
        assert!(parse_query("SELECT ?t WHERE { ?s <http://x/p> ?t } ORDER BY LIMIT 1").is_err());
        assert!(parse_query("SELECT ?t WHERE { ?s <http://x/p> ?t } ORDER BY ?t STR").is_err());
    }

    #[test]
    fn projection_expression() {
        let q = sel("SELECT (strdf:area(?g) AS ?area) WHERE { ?s strdf:hasGeometry ?g }");
        let Projection::Vars(items) = &q.projection else { panic!() };
        assert!(matches!(&items[0], ProjectionItem::Expr { var, .. } if var == "area"));
    }

    #[test]
    fn ask_query() {
        let q = parse_query("ASK { ?s a <http://x/C> }").unwrap();
        assert!(matches!(q, Query::Ask(_)));
    }

    #[test]
    fn select_star() {
        let q = sel("SELECT * WHERE { ?s ?p ?o }");
        assert_eq!(q.projection, Projection::All);
    }

    #[test]
    fn insert_data() {
        let u =
            parse_update("PREFIX ex: <http://x/> INSERT DATA { ex:a ex:p 1 . ex:a ex:q \"s\" }")
                .unwrap();
        match u {
            Update::InsertData(ts) => assert_eq!(ts.len(), 2),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn delete_insert_where() {
        let u = parse_update(
            "PREFIX ex: <http://x/> \
             DELETE { ?h a ex:Hotspot } \
             INSERT { ?h a ex:Refuted } \
             WHERE { ?h a ex:Hotspot . FILTER(strdf:within(?g, \"POINT (0 0)\"^^strdf:WKT)) }",
        )
        .unwrap();
        match u {
            Update::Modify { delete, insert, where_clause } => {
                assert_eq!(delete.len(), 1);
                assert_eq!(insert.len(), 1);
                assert_eq!(where_clause.elements.len(), 2);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn delete_where_shorthand() {
        let u = parse_update("DELETE WHERE { ?s <http://x/p> ?o }").unwrap();
        assert!(matches!(u, Update::DeleteWhere(ts) if ts.len() == 1));
    }

    #[test]
    fn insert_where_without_delete() {
        let u = parse_update("INSERT { ?s <http://x/derived> true } WHERE { ?s a <http://x/C> }")
            .unwrap();
        assert!(matches!(u, Update::Modify { ref delete, .. } if delete.is_empty()));
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT WHERE { }").is_err());
        assert!(parse_query("SELECT ?s { ?s ?p ?o }").is_err()); // missing WHERE
        assert!(parse_query("SELECT ?s WHERE { ?s foo:bar ?o }").is_err()); // unknown prefix
        assert!(parse_update("MODIFY { }").is_err());
    }

    #[test]
    fn nested_group_is_inlined() {
        let q = sel("SELECT * WHERE { { ?s ?p ?o } }");
        assert_eq!(q.where_clause.elements.len(), 1);
    }

    #[test]
    fn boolean_literals_in_patterns() {
        let q = sel("SELECT ?s WHERE { ?s <http://x/flag> true }");
        let PatternElement::Triple(t) = &q.where_clause.elements[0] else { panic!() };
        assert_eq!(t.o, VarOrTerm::Term(Term::boolean(true)));
    }
}
