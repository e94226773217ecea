//! SPARQL Update execution — the machinery behind the refinement step of
//! demo scenario 2 (improving the thematic accuracy of hotspot products
//! with `DELETE/INSERT ... WHERE` statements).

use crate::ast::{GroupPattern, PatternElement, PatternTriple, Update, VarOrTerm};
use crate::eval::{prepare, solve_rows};
use crate::expr::{Env, UNBOUND};
use crate::{Result, Strabon};
use teleios_rdf::dictionary::{Dictionary, TermId};
use teleios_rdf::triple::Triple;

/// Execute an update. Returns the number of triples added plus removed.
/// An id past the store's last is an overlay term the store lacks: a
/// delete holding one is skipped, and an insert interns it into the
/// store, in the order inserting each triple's terms (s, p, o) would.
pub fn execute_update(engine: &mut Strabon, update: &Update) -> Result<usize> {
    let (to_delete, to_insert, overlay) = match update {
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
    let base = engine.store.dictionary().len() as TermId;
    let mut n = 0;
    for [s, p, o] in to_delete {
        if s.max(p).max(o) < base && engine.store.remove(&Triple::new(s, p, o)) {
            n += 1;
        }
    }
    for t in to_insert {
        let [s, p, o] = t.map(|id| match id.checked_sub(base) {
            None => id,
            Some(i) => engine.store.intern(overlay.term(i)),
        });
        if engine.store.insert(Triple::new(s, p, o)) {
            n += 1;
        }
    }
    Ok(n)
}

type Triples = Vec<[TermId; 3]>;

/// Evaluate WHERE, then instantiate the templates per solution: the
/// triples to delete and to insert, and the overlay of their new terms.
fn matches(
    engine: &mut Strabon,
    delete: &[PatternTriple],
    insert: &[PatternTriple],
    where_clause: &GroupPattern,
) -> Result<(Triples, Triples, Dictionary)> {
    let env = prepare(engine, where_clause, None, delete.iter().chain(insert))?;
    let (delete, insert) = (templates(&env, delete), templates(&env, insert));
    let (mut to_delete, mut to_insert) = (Vec::new(), Vec::new());
    solve_rows(&env, |row| {
        instantiate(row, &delete, &mut to_delete);
        instantiate(row, &insert, &mut to_insert);
    });
    Ok((to_delete, to_insert, env.overlay.into_inner()))
}

/// A template triple resolved once per statement: `Ok`, a constant's id
/// (the store's or the overlay's); `Err`, a variable's slot.
pub(crate) type Template = [std::result::Result<TermId, usize>; 3];

pub(crate) fn templates(env: &Env<'_>, templates: &[PatternTriple]) -> Vec<Template> {
    let resolve = |v: &VarOrTerm| match v {
        VarOrTerm::Term(t) => Ok(env.intern(t)),
        // `prepare` rejects a template variable the WHERE cannot bind.
        VarOrTerm::Var(name) => env.vars.get(name).map_or(Ok(UNBOUND), Err),
    };
    templates.iter().map(|t| [resolve(&t.s), resolve(&t.p), resolve(&t.o)]).collect()
}

/// Instantiate templates under a solution row; solutions leaving a
/// template variable unbound skip that triple (SPARQL Update semantics).
pub(crate) fn instantiate(row: &[TermId], templates: &[Template], out: &mut Triples) {
    for t in templates {
        let ids = t.map(|p| p.unwrap_or_else(|slot| row[slot]));
        if !ids.contains(&UNBOUND) {
            out.push(ids);
        }
    }
}
