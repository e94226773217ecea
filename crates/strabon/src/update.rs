//! SPARQL Update execution — the machinery behind the refinement step of
//! demo scenario 2 (improving the thematic accuracy of hotspot products
//! with `DELETE/INSERT ... WHERE` statements).

use crate::ast::{GroupPattern, PatternElement, PatternTriple, Update, VarOrTerm};
use crate::eval::{prepare, solve_rows};
use crate::expr::{Env, UNBOUND};
use crate::{Result, Strabon};
use teleios_rdf::dictionary::TermId;
use teleios_rdf::term::Term;
use teleios_rdf::triple::Triple;

/// Execute an update. Returns the number of triples added plus removed.
pub fn execute_update(engine: &mut Strabon, update: &Update) -> Result<usize> {
    let (to_delete, to_insert) = match update {
        // A DATA block is a template over the one solution of an empty
        // WHERE, so a variable in it is one the WHERE does not bind.
        Update::InsertData(triples) => matches(engine, &[], triples, &GroupPattern::default())?,
        Update::DeleteData(triples) => matches(engine, triples, &[], &GroupPattern::default())?,
        // DELETE WHERE { p }: the template doubles as the pattern.
        Update::DeleteWhere(patterns) => {
            let elements = patterns.iter().cloned().map(PatternElement::Triple).collect();
            matches(engine, patterns, &[], &GroupPattern { elements })?
        }
        Update::Modify { delete, insert, where_clause } => {
            matches(engine, delete, insert, where_clause)?
        }
    };
    let mut n = 0;
    for (s, p, o) in &to_delete {
        let (Some(s), Some(p), Some(o)) =
            (engine.store.id_of(s), engine.store.id_of(p), engine.store.id_of(o))
        else {
            continue;
        };
        if engine.store.remove(&Triple::new(s, p, o)) {
            n += 1;
        }
    }
    for (s, p, o) in &to_insert {
        if engine.store.insert_terms(s, p, o) {
            n += 1;
        }
    }
    Ok(n)
}

type Triples = Vec<(Term, Term, Term)>;

/// Evaluate WHERE, then instantiate the templates per solution: the
/// triples to delete and to insert.
fn matches(
    engine: &mut Strabon,
    delete: &[PatternTriple],
    insert: &[PatternTriple],
    where_clause: &GroupPattern,
) -> Result<(Triples, Triples)> {
    let env = prepare(engine, where_clause, None, delete.iter().chain(insert))?;
    let (mut to_delete, mut to_insert) = (Vec::new(), Vec::new());
    solve_rows(&env, |row| {
        instantiate(&env, row, delete, &mut to_delete);
        instantiate(&env, row, insert, &mut to_insert);
    });
    Ok((to_delete, to_insert))
}

/// Instantiate templates under a solution row; solutions leaving a
/// template variable unbound skip that triple (SPARQL Update semantics).
pub(crate) fn instantiate(
    env: &Env<'_>,
    row: &[TermId],
    templates: &[PatternTriple],
    out: &mut Triples,
) {
    let term = |v: &VarOrTerm| match v {
        VarOrTerm::Term(t) => Some(t.clone()),
        VarOrTerm::Var(name) => {
            let id = row[env.vars.get(name)?];
            (id != UNBOUND).then(|| env.value(id).into_term())
        }
    };
    for t in templates {
        if let (Some(s), Some(p), Some(o)) = (term(&t.s), term(&t.p), term(&t.o)) {
            out.push((s, p, o));
        }
    }
}
