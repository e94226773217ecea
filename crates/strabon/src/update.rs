//! SPARQL Update execution — the machinery behind the refinement step of
//! demo scenario 2 (improving the thematic accuracy of hotspot products
//! with `DELETE/INSERT ... WHERE` statements).

use crate::ast::{TemplateTriple, Update, VarOrTerm};
use crate::eval::{prepare, solve};
use crate::expr::{Bound, Env};
use crate::{Result, Strabon, StrabonError};
use teleios_rdf::term::Term;
use teleios_rdf::triple::Triple;

/// Execute an update. Returns the number of triples added plus removed.
pub fn execute_update(engine: &mut Strabon, update: &Update) -> Result<usize> {
    match update {
        Update::InsertData(triples) => {
            let ground = ground_triples(triples)?;
            let mut n = 0;
            for (s, p, o) in &ground {
                if engine.store.insert_terms(s, p, o) {
                    n += 1;
                }
            }
            Ok(n)
        }
        Update::DeleteData(triples) => {
            let ground = ground_triples(triples)?;
            let mut n = 0;
            for (s, p, o) in &ground {
                let (Some(s), Some(p), Some(o)) =
                    (engine.store.id_of(s), engine.store.id_of(p), engine.store.id_of(o))
                else {
                    continue;
                };
                if engine.store.remove(&Triple::new(s, p, o)) {
                    n += 1;
                }
            }
            Ok(n)
        }
        Update::DeleteWhere(patterns) => {
            // DELETE WHERE { p }: the template doubles as the pattern.
            let group = crate::ast::GroupPattern {
                elements: patterns
                    .iter()
                    .map(|t| {
                        crate::ast::PatternElement::Triple(crate::ast::PatternTriple {
                            s: t.s.clone(),
                            p: t.p.clone(),
                            o: t.o.clone(),
                        })
                    })
                    .collect(),
            };
            execute_modify(engine, patterns, &[], &group)
        }
        Update::Modify { delete, insert, where_clause } => {
            execute_modify(engine, delete, insert, where_clause)
        }
    }
}

fn execute_modify(
    engine: &mut Strabon,
    delete: &[TemplateTriple],
    insert: &[TemplateTriple],
    where_clause: &crate::ast::GroupPattern,
) -> Result<usize> {
    // Evaluate WHERE, then instantiate the templates per solution.
    let (to_delete, to_insert) = {
        let env = prepare(engine, where_clause, None, delete.iter().chain(insert))?;
        let mut to_delete: Vec<(Term, Term, Term)> = Vec::new();
        let mut to_insert: Vec<(Term, Term, Term)> = Vec::new();
        for b in &solve(&env) {
            instantiate(&env, b, delete, &mut to_delete);
            instantiate(&env, b, insert, &mut to_insert);
        }
        (to_delete, to_insert)
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

/// Instantiate templates under a binding; solutions leaving a template
/// variable unbound skip that triple (SPARQL Update semantics).
pub(crate) fn instantiate(
    env: &Env<'_>,
    binding: &[Option<Bound>],
    templates: &[TemplateTriple],
    out: &mut Vec<(Term, Term, Term)>,
) {
    'next: for t in templates {
        let mut terms: Vec<Term> = Vec::with_capacity(3);
        for v in [&t.s, &t.p, &t.o] {
            match v {
                VarOrTerm::Term(term) => terms.push(term.clone()),
                VarOrTerm::Var(name) => {
                    let Some(slot) = env.vars.get(name) else { continue 'next };
                    let Some(bound) = &binding[slot] else { continue 'next };
                    terms.push(bound.term(env.store).clone());
                }
            }
        }
        let (Some(o), Some(p), Some(s)) = (terms.pop(), terms.pop(), terms.pop()) else {
            continue 'next; // unreachable: the loop above pushed all three
        };
        out.push((s, p, o));
    }
}

fn ground_triples(templates: &[TemplateTriple]) -> Result<Vec<(Term, Term, Term)>> {
    templates
        .iter()
        .map(|t| {
            let g = |v: &VarOrTerm| -> Result<Term> {
                match v {
                    VarOrTerm::Term(t) => Ok(t.clone()),
                    VarOrTerm::Var(name) => Err(StrabonError::Eval(format!(
                        "variable ?{name} not allowed in DATA block"
                    ))),
                }
            };
            Ok((g(&t.s)?, g(&t.p)?, g(&t.o)?))
        })
        .collect()
}
