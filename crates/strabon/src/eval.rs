//! stSPARQL algebra evaluation.
//!
//! Basic graph patterns evaluate as index nested-loop joins over the
//! store's SPO/POS/OSP orderings. Two optimizations are toggleable via
//! [`crate::StrabonConfig`]:
//!
//! * **BGP join ordering** — patterns are reordered greedily by
//!   estimated selectivity given the variables already bound (E4);
//! * **spatial pre-filtering** — FILTERs of the shape
//!   `strdf:pred(?g, CONST)` (or `strdf:distance(?g, CONST) < d`) first
//!   probe the R-tree sidecar for envelope candidates and run the exact
//!   geometry predicate only on survivors (E3).

use crate::ast::*;
use crate::expr::{
    eval_expression, eval_filter, order_terms, Binding, Bound, Env, VarTable,
};
use crate::ast::Query;
use crate::{Result, Solutions, Strabon};
use std::collections::{HashMap, HashSet};
use teleios_exec::concat;
use teleios_geo::Envelope;
use teleios_rdf::dictionary::TermId;
use teleios_rdf::strdf;
use teleios_rdf::term::Term;
use teleios_rdf::triple::TriplePattern;
use teleios_rdf::vocab;

/// Evaluate a parsed query against the engine.
pub fn evaluate_query(engine: &mut Strabon, query: &Query) -> Result<Solutions> {
    // Build the sidecar first so the rest can take shared borrows.
    let config = engine.config;
    let pool = engine.pool();
    engine.spatial.ensure_built(&engine.store, &pool);
    match query {
        Query::Select(q) => {
            let mut vars = VarTable::default();
            collect_group_vars(&q.where_clause, &mut vars);
            collect_projection_vars(&q.projection, &mut vars);
            for k in &q.order_by {
                collect_expr_vars(&k.expr, &mut vars);
            }
            let (store, spatial) = (&engine.store, &engine.spatial);
            let env = Env {
                store,
                spatial,
                vars: &vars,
                rdfs_inference: config.rdfs_inference,
                pool,
            };
            let seeds = vec![vars.empty_binding()];
            let mut rows = eval_group(&env, &q.where_clause, seeds, config.optimize_bgp, config.use_spatial_index);

            // ORDER BY.
            if !q.order_by.is_empty() {
                let keys: Vec<Vec<Option<Term>>> = rows
                    .iter()
                    .map(|b| {
                        q.order_by
                            .iter()
                            .map(|k| eval_expression(&env, b, &k.expr))
                            .collect()
                    })
                    .collect();
                let mut order: Vec<usize> = (0..rows.len()).collect();
                order.sort_by(|&x, &y| {
                    for (i, k) in q.order_by.iter().enumerate() {
                        let ord = order_terms(&keys[x][i], &keys[y][i]);
                        let ord = if k.desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows = order.into_iter().map(|i| rows[i].clone()).collect();
            }

            // Aggregation path: GROUP BY or an aggregate in the
            // projection collapses bindings into per-group rows.
            if !q.group_by.is_empty() || projection_has_aggregate(&q.projection) {
                let mut out_rows = eval_aggregation(&env, q, &rows)?;
                let out_vars = match &q.projection {
                    Projection::All => q.group_by.clone(),
                    Projection::Vars(items) => items
                        .iter()
                        .map(|i| match i {
                            ProjectionItem::Var(v) => v.clone(),
                            ProjectionItem::Expr { var, .. } => var.clone(),
                        })
                        .collect(),
                };
                if q.distinct {
                    let mut seen = HashSet::new();
                    out_rows.retain(|r| {
                        let key: Vec<String> = r
                            .iter()
                            .map(|t| t.as_ref().map_or(String::new(), |t| t.to_string()))
                            .collect();
                        seen.insert(key)
                    });
                }
                if q.offset > 0 {
                    out_rows.drain(0..q.offset.min(out_rows.len()));
                }
                if let Some(n) = q.limit {
                    out_rows.truncate(n);
                }
                return Ok(Solutions { vars: out_vars, rows: out_rows });
            }

            // Projection.
            let (out_vars, mut out_rows): (Vec<String>, Vec<Vec<Option<Term>>>) =
                match &q.projection {
                    Projection::All => {
                        let names = vars.names().to_vec();
                        let rows = rows
                            .iter()
                            .map(|b| {
                                b.iter()
                                    .map(|x| x.as_ref().map(|v| v.term(store).clone()))
                                    .collect()
                            })
                            .collect();
                        (names, rows)
                    }
                    Projection::Vars(items) => {
                        let names: Vec<String> = items
                            .iter()
                            .map(|i| match i {
                                ProjectionItem::Var(v) => v.clone(),
                                ProjectionItem::Expr { var, .. } => var.clone(),
                            })
                            .collect();
                        let rows = rows
                            .iter()
                            .map(|b| {
                                items
                                    .iter()
                                    .map(|i| match i {
                                        ProjectionItem::Var(v) => vars
                                            .get(v)
                                            .and_then(|s| b[s].as_ref())
                                            .map(|x| x.term(store).clone()),
                                        ProjectionItem::Expr { expr, .. } => {
                                            eval_expression(&env, b, expr)
                                        }
                                    })
                                    .collect()
                            })
                            .collect();
                        (names, rows)
                    }
                };

            if q.distinct {
                let mut seen = HashSet::new();
                out_rows.retain(|r| {
                    let key: Vec<String> = r
                        .iter()
                        .map(|t| t.as_ref().map_or(String::new(), |t| t.to_string()))
                        .collect();
                    seen.insert(key)
                });
            }
            if q.offset > 0 {
                out_rows.drain(0..q.offset.min(out_rows.len()));
            }
            if let Some(n) = q.limit {
                out_rows.truncate(n);
            }
            Ok(Solutions { vars: out_vars, rows: out_rows })
        }
        Query::Ask(q) => {
            let mut vars = VarTable::default();
            collect_group_vars(&q.where_clause, &mut vars);
            let (store, spatial) = (&engine.store, &engine.spatial);
            let env = Env {
                store,
                spatial,
                vars: &vars,
                rdfs_inference: config.rdfs_inference,
                pool,
            };
            let seeds = vec![vars.empty_binding()];
            let rows = eval_group(&env, &q.where_clause, seeds, config.optimize_bgp, config.use_spatial_index);
            Ok(Solutions {
                vars: vec!["ask".into()],
                rows: vec![vec![Some(Term::boolean(!rows.is_empty()))]],
            })
        }
        Query::Construct(_) => Err(crate::StrabonError::Eval(
            "CONSTRUCT queries go through Strabon::construct".into(),
        )),
    }
}

/// Evaluate a CONSTRUCT query: matched solutions instantiate the
/// template; duplicate triples collapse.
pub fn evaluate_construct(
    engine: &mut Strabon,
    q: &crate::ast::ConstructQuery,
) -> Result<Vec<(Term, Term, Term)>> {
    let config = engine.config;
    let pool = engine.pool();
    engine.spatial.ensure_built(&engine.store, &pool);
    let mut vars = VarTable::default();
    collect_group_vars(&q.where_clause, &mut vars);
    // Template-only variables would never bind; reject them up front.
    for t in &q.template {
        for v in [&t.s, &t.p, &t.o] {
            if let Some(name) = v.var() {
                if vars.get(name).is_none() {
                    return Err(crate::StrabonError::Eval(format!(
                        "template variable ?{name} is not bound by the WHERE clause"
                    )));
                }
            }
        }
    }
    let env = Env {
        store: &engine.store,
        spatial: &engine.spatial,
        vars: &vars,
        rdfs_inference: config.rdfs_inference,
        pool,
    };
    let seeds = vec![vars.empty_binding()];
    let rows = eval_group(&env, &q.where_clause, seeds, config.optimize_bgp, config.use_spatial_index);
    let mut out: Vec<(Term, Term, Term)> = Vec::new();
    for b in &rows {
        crate::update::instantiate(&env, b, &q.template, &mut out);
    }
    // Set semantics: CONSTRUCT produces a graph.
    out.sort();
    out.dedup();
    Ok(out)
}

const AGGREGATE_NAMES: [&str; 6] = ["COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE"];

fn expr_has_aggregate(e: &Expression) -> bool {
    match e {
        Expression::Call { name, args } => {
            AGGREGATE_NAMES.contains(&name.as_str())
                || args.iter().any(expr_has_aggregate)
        }
        Expression::Binary { left, right, .. } => {
            expr_has_aggregate(left) || expr_has_aggregate(right)
        }
        Expression::Not(e) | Expression::Neg(e) => expr_has_aggregate(e),
        _ => false,
    }
}

fn projection_has_aggregate(p: &Projection) -> bool {
    match p {
        Projection::All => false,
        Projection::Vars(items) => items.iter().any(|i| match i {
            ProjectionItem::Var(_) => false,
            ProjectionItem::Expr { expr, .. } => expr_has_aggregate(expr),
        }),
    }
}

/// Evaluate aggregation over solution bindings: group by the GROUP BY
/// variables (one global group when absent), then compute each projected
/// item per group. Non-aggregate projected items must be grouping
/// variables.
fn eval_aggregation(
    env: &Env<'_>,
    q: &SelectQuery,
    rows: &[Binding],
) -> Result<Vec<Vec<Option<Term>>>> {
    use crate::StrabonError;

    let group_slots: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            env.vars
                .get(v)
                .ok_or_else(|| StrabonError::Eval(format!("GROUP BY ?{v} is not bound anywhere")))
        })
        .collect::<Result<_>>()?;

    // Partition bindings by group key (input order preserved).
    let mut order: Vec<Vec<Option<Term>>> = Vec::new();
    let mut groups: Vec<Vec<&Binding>> = Vec::new();
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    for b in rows {
        let key_terms: Vec<Option<Term>> = group_slots
            .iter()
            .map(|&s| b[s].as_ref().map(|x| x.term(env.store).clone()))
            .collect();
        let key: Vec<String> = key_terms
            .iter()
            .map(|t| t.as_ref().map_or(String::new(), |t| t.to_string()))
            .collect();
        match index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(b),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                order.push(key_terms);
                groups.push(vec![b]);
            }
        }
    }
    // A global aggregate over zero solutions still yields one row.
    if groups.is_empty() && q.group_by.is_empty() {
        order.push(Vec::new());
        groups.push(Vec::new());
    }

    let items: Vec<ProjectionItem> = match &q.projection {
        Projection::All => q.group_by.iter().map(|v| ProjectionItem::Var(v.clone())).collect(),
        Projection::Vars(items) => items.clone(),
    };

    let mut out = Vec::with_capacity(groups.len());
    for (gi, members) in groups.iter().enumerate() {
        let mut row: Vec<Option<Term>> = Vec::with_capacity(items.len());
        for item in &items {
            match item {
                ProjectionItem::Var(v) => {
                    let pos = q.group_by.iter().position(|g| g == v).ok_or_else(|| {
                        StrabonError::Eval(format!(
                            "non-aggregated ?{v} must appear in GROUP BY"
                        ))
                    })?;
                    row.push(order[gi][pos].clone());
                }
                ProjectionItem::Expr { expr, .. } => {
                    row.push(eval_aggregate_expr(env, expr, members));
                }
            }
        }
        out.push(row);
    }
    Ok(out)
}

/// Evaluate an expression that may contain aggregate calls over a group.
fn eval_aggregate_expr(env: &Env<'_>, expr: &Expression, group: &[&Binding]) -> Option<Term> {
    match expr {
        Expression::Call { name, args } if AGGREGATE_NAMES.contains(&name.as_str()) => {
            // Per-member argument values (unbound/error skipped, as SPARQL
            // aggregates ignore error values).
            let values: Vec<Term> = if args.is_empty() {
                // COUNT(*): every solution counts.
                return Some(Term::int(group.len() as i64));
            } else {
                group
                    .iter()
                    .filter_map(|b| eval_expression(env, b, &args[0]))
                    .collect()
            };
            match name.as_str() {
                "COUNT" => Some(Term::int(values.len() as i64)),
                "SAMPLE" => values.first().cloned(),
                "SUM" | "AVG" => {
                    let nums: Vec<f64> = values.iter().filter_map(Term::as_f64).collect();
                    if nums.is_empty() {
                        return if name == "SUM" { Some(Term::int(0)) } else { None };
                    }
                    let sum: f64 = nums.iter().sum();
                    if name == "AVG" {
                        Some(Term::double(sum / nums.len() as f64))
                    } else if values.iter().all(|t| {
                        t.datatype() == Some(vocab::xsd::INTEGER)
                    }) {
                        Some(Term::int(sum as i64))
                    } else {
                        Some(Term::double(sum))
                    }
                }
                "MIN" | "MAX" => {
                    let mut best: Option<Term> = None;
                    for v in values {
                        best = Some(match best {
                            None => v,
                            Some(b) => {
                                let keep_new = match order_terms(&Some(v.clone()), &Some(b.clone())) {
                                    std::cmp::Ordering::Less => name == "MIN",
                                    std::cmp::Ordering::Greater => name == "MAX",
                                    std::cmp::Ordering::Equal => false,
                                };
                                if keep_new {
                                    v
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    best
                }
                _ => None,
            }
        }
        Expression::Binary { op, left, right } => {
            // Arithmetic over aggregate results, e.g. SUM(?x) / COUNT(?x).
            let l = eval_aggregate_expr(env, left, group)?;
            let r = eval_aggregate_expr(env, right, group)?;
            let combined = Expression::Binary {
                op: *op,
                left: Box::new(Expression::Const(l)),
                right: Box::new(Expression::Const(r)),
            };
            eval_expression(env, &Vec::new(), &combined)
        }
        // Non-aggregate sub-expression: evaluate on the first member.
        other => group.first().and_then(|b| eval_expression(env, b, other)),
    }
}

/// Compute the spatial push-down candidate sets of a group's FILTERs.
pub(crate) fn group_restrictions(
    env: &Env<'_>,
    group: &GroupPattern,
    spatial_index: bool,
) -> HashMap<usize, HashSet<TermId>> {
    if !spatial_index {
        return HashMap::new();
    }
    let mut map: HashMap<usize, HashSet<TermId>> = HashMap::new();
    for el in &group.elements {
        if let PatternElement::Filter(f) = el {
            if let Some((slot, set)) = spatial_prefilter(env, f) {
                match map.entry(slot) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let merged: HashSet<TermId> =
                            e.get().intersection(&set).copied().collect();
                        e.insert(merged);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(set);
                    }
                }
            }
        }
    }
    map
}

/// Render the evaluation plan of a SELECT/ASK query: the spatial
/// push-down candidate sets and the chosen BGP pattern order with the
/// optimizer's selectivity estimates.
pub fn explain_query(engine: &mut Strabon, query: &Query) -> Result<String> {
    let config = engine.config;
    let pool = engine.pool();
    engine.spatial.ensure_built(&engine.store, &pool);
    let where_clause = match query {
        Query::Select(q) => &q.where_clause,
        Query::Ask(q) => &q.where_clause,
        Query::Construct(q) => &q.where_clause,
    };
    let mut vars = VarTable::default();
    collect_group_vars(where_clause, &mut vars);
    if let Query::Select(q) = query {
        collect_projection_vars(&q.projection, &mut vars);
    }
    let env = Env {
        store: &engine.store,
        spatial: &engine.spatial,
        vars: &vars,
        rdfs_inference: config.rdfs_inference,
        pool,
    };
    let restrictions = group_restrictions(&env, where_clause, config.use_spatial_index);

    let mut out = String::new();
    out.push_str(&format!(
        "config: optimize_bgp={}, use_spatial_index={}, rdfs_inference={}\n",
        config.optimize_bgp, config.use_spatial_index, config.rdfs_inference
    ));
    if restrictions.is_empty() {
        out.push_str("spatial push-down: (none)\n");
    } else {
        for (slot, set) in &restrictions {
            let name = vars.names().get(*slot).cloned().unwrap_or_default();
            out.push_str(&format!(
                "spatial push-down: ?{name} restricted to {} envelope candidate(s)\n",
                set.len()
            ));
        }
    }

    // Walk the group, rendering each BGP run's chosen order. `bound`
    // carries over from run to run, as the bindings do in evaluation.
    let mut bgp: Vec<&PatternTriple> = Vec::new();
    let mut step = 1usize;
    let mut bound: HashSet<usize> = HashSet::new();
    let mut flush = |bgp: &mut Vec<&PatternTriple>, out: &mut String, step: &mut usize| {
        let order = bgp_order(&env, bgp, bound.clone(), config.optimize_bgp, &restrictions);
        for &pi in &order {
            let est = estimate_pattern(&env, bgp[pi], &bound, &restrictions);
            out.push_str(&format!(
                "{:>3}. match {} (est {})\n",
                step,
                render_pattern(bgp[pi]),
                est
            ));
            bind_pattern_vars(&env, bgp[pi], &mut bound);
            *step += 1;
        }
        bgp.clear();
    };
    for el in &where_clause.elements {
        match el {
            PatternElement::Triple(t) => bgp.push(t),
            PatternElement::Filter(_) => {
                flush(&mut bgp, &mut out, &mut step);
                out.push_str(&format!("{:>3}. filter\n", step));
                step += 1;
            }
            other => {
                flush(&mut bgp, &mut out, &mut step);
                let kind = match other {
                    PatternElement::Optional(_) => "optional group",
                    PatternElement::Union(_) => "union",
                    PatternElement::Minus(_) => "minus group",
                    PatternElement::Bind { .. } => "bind",
                    PatternElement::FilterExists { negated: false, .. } => "filter exists",
                    PatternElement::FilterExists { negated: true, .. } => "filter not exists",
                    _ => "group",
                };
                out.push_str(&format!("{:>3}. {kind}\n", step));
                step += 1;
            }
        }
    }
    flush(&mut bgp, &mut out, &mut step);
    Ok(out)
}

/// The order [`eval_bgp`] joins `patterns` in, given the variable
/// slots already `bound` when the run starts: syntactic, or (when
/// `optimize`) greedy — repeatedly the pattern with the smallest
/// estimate given the variables bound so far.
fn bgp_order(
    env: &Env<'_>,
    patterns: &[&PatternTriple],
    mut bound: HashSet<usize>,
    optimize: bool,
    restrictions: &HashMap<usize, HashSet<TermId>>,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    if !optimize {
        return remaining;
    }
    let mut order = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        let Some((pick_pos, _)) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &pi)| estimate_pattern(env, patterns[pi], &bound, restrictions))
        else {
            break; // unreachable: the loop guard keeps `remaining` non-empty
        };
        let pi = remaining.remove(pick_pos);
        bind_pattern_vars(env, patterns[pi], &mut bound);
        order.push(pi);
    }
    order
}

/// Mark the variables of `pat` as bound.
fn bind_pattern_vars(env: &Env<'_>, pat: &PatternTriple, bound: &mut HashSet<usize>) {
    for v in [&pat.s, &pat.p, &pat.o] {
        if let Some(slot) = v.var().and_then(|name| env.vars.get(name)) {
            bound.insert(slot);
        }
    }
}

fn render_pattern(p: &PatternTriple) -> String {
    let part = |v: &VarOrTerm| match v {
        VarOrTerm::Var(name) => format!("?{name}"),
        VarOrTerm::Term(t) => t.to_string(),
    };
    format!("{} {} {}", part(&p.s), part(&p.p), part(&p.o))
}

/// Evaluate a group pattern: BGP runs accumulate and flush, filters and
/// other elements apply in order.
pub fn eval_group(
    env: &Env<'_>,
    group: &GroupPattern,
    seeds: Vec<Binding>,
    optimize: bool,
    spatial_index: bool,
) -> Vec<Binding> {
    // Spatial-filter push-down: FILTERs of this group whose shape the
    // R-tree sidecar understands yield per-variable candidate id sets;
    // the BGP evaluator uses them to restrict index matching, so
    // geometry bindings that cannot satisfy the filter are never
    // enumerated (Strabon's "push the spatial predicate into the scan").
    let restrictions = group_restrictions(env, group, spatial_index);

    let mut bindings = seeds;
    let mut bgp: Vec<&PatternTriple> = Vec::new();
    for el in &group.elements {
        if let PatternElement::Triple(t) = el {
            bgp.push(t);
            continue;
        }
        if !bgp.is_empty() {
            bindings = eval_bgp(env, &bgp, bindings, optimize, &restrictions);
            bgp.clear();
        }
        match el {
            PatternElement::Triple(_) => unreachable!(),
            PatternElement::Filter(f) => {
                bindings = apply_filter(env, f, bindings, spatial_index);
            }
            PatternElement::Optional(inner) => {
                let mut next = Vec::with_capacity(bindings.len());
                for b in bindings {
                    let extended =
                        eval_group(env, inner, vec![b.clone()], optimize, spatial_index);
                    if extended.is_empty() {
                        next.push(b);
                    } else {
                        next.extend(extended);
                    }
                }
                bindings = next;
            }
            PatternElement::Union(branches) => {
                let mut next = Vec::new();
                for br in branches {
                    next.extend(eval_group(env, br, bindings.clone(), optimize, spatial_index));
                }
                bindings = next;
            }
            PatternElement::Minus(inner) => {
                // Keep bindings that share no variable with the MINUS
                // pattern (SPARQL compatibility rule), drop those for
                // which the seeded pattern has a solution.
                let mut inner_vars = VarTable::default();
                collect_group_vars(inner, &mut inner_vars);
                bindings.retain(|b| {
                    let shares_var = inner_vars
                        .names()
                        .iter()
                        .any(|v| env.vars.get(v).is_some_and(|s| b[s].is_some()));
                    if !shares_var {
                        return true;
                    }
                    eval_group(env, inner, vec![b.clone()], optimize, spatial_index).is_empty()
                });
            }
            PatternElement::Bind { expr, var } => {
                // The variable was registered during var collection; a
                // miss means the binding has nowhere to land.
                if let Some(slot) = env.vars.get(var) {
                    for b in &mut bindings {
                        let v = eval_expression(env, b, expr);
                        b[slot] = v.map(Bound::Computed);
                    }
                }
            }
            PatternElement::FilterExists { group: inner, negated } => {
                bindings.retain(|b| {
                    let found =
                        !eval_group(env, inner, vec![b.clone()], optimize, spatial_index)
                            .is_empty();
                    found != *negated
                });
            }
        }
    }
    if !bgp.is_empty() {
        bindings = eval_bgp(env, &bgp, bindings, optimize, &restrictions);
    }
    bindings
}

/// Evaluate a BGP against seed bindings with index nested-loop joins.
fn eval_bgp(
    env: &Env<'_>,
    patterns: &[&PatternTriple],
    seeds: Vec<Binding>,
    optimize: bool,
    restrictions: &HashMap<usize, HashSet<TermId>>,
) -> Vec<Binding> {
    if seeds.is_empty() {
        return seeds;
    }
    // Variables bound in the seeds (use the first seed's shape; all
    // seeds of a group share it).
    let bound: HashSet<usize> =
        seeds[0].iter().enumerate().filter(|(_, v)| v.is_some()).map(|(slot, _)| slot).collect();
    let order = bgp_order(env, patterns, bound, optimize, restrictions);

    let mut results = seeds;
    for &pi in &order {
        results = probe_pattern(env, patterns[pi], results, restrictions);
        if results.is_empty() {
            break;
        }
    }
    results
}

/// Binding count below which BGP probing and FILTER evaluation stay
/// inline: under this size the join itself is cheaper than task
/// setup. Public so the parallel-equivalence tests can size their
/// data to cross it.
pub const PAR_BINDING_THRESHOLD: usize = 256;

/// Morsels per worker for the probe/filter kernels: finer than
/// one-per-worker so the pool's claim counter has slack to rebalance
/// when some bindings fan out much harder than others.
const MORSELS_PER_WORKER: usize = 4;

/// One join step: extend every seed binding with the matches of
/// `pat`. The seed side is cut along the pool's morsels — a single
/// inline one under [`PAR_BINDING_THRESHOLD`] or at one thread — and
/// the per-morsel outputs concatenate in morsel order (the pool's
/// determinism contract), so results are identical at every thread
/// count.
fn probe_pattern(
    env: &Env<'_>,
    pat: &PatternTriple,
    results: Vec<Binding>,
    restrictions: &HashMap<usize, HashSet<TermId>>,
) -> Vec<Binding> {
    let results = &results;
    let tasks: Vec<_> = env
        .pool
        .morsels_for(results.len(), PAR_BINDING_THRESHOLD, MORSELS_PER_WORKER)
        .into_iter()
        .map(|r| {
            move || {
                let mut out = Vec::with_capacity(r.len());
                for b in &results[r] {
                    extend_with_pattern(env, pat, b, restrictions, &mut out);
                }
                out
            }
        })
        .collect();
    concat(env.pool.run(tasks))
}

/// Estimated cost of a pattern given currently bound variable slots.
///
/// Constant positions use exact index counts; positions bound by
/// variables (whose runtime value is unknown at planning time) discount
/// the constant-only estimate, since each binding restricts the range.
fn estimate_pattern(
    env: &Env<'_>,
    pat: &PatternTriple,
    bound: &HashSet<usize>,
    restrictions: &HashMap<usize, HashSet<TermId>>,
) -> usize {
    let mut dead = false;
    let const_id = |v: &VarOrTerm, dead: &mut bool| match v {
        VarOrTerm::Term(t) => match env.store.id_of(t) {
            Some(id) => Some(id),
            None => {
                // A constant absent from the dictionary matches nothing.
                *dead = true;
                None
            }
        },
        VarOrTerm::Var(_) => None,
    };
    let tp = TriplePattern {
        s: const_id(&pat.s, &mut dead),
        p: const_id(&pat.p, &mut dead),
        o: const_id(&pat.o, &mut dead),
    };
    if dead {
        return 0;
    }
    let mut est = env.store.estimate_pattern(&tp);
    // A spatial push-down restriction on an open variable caps the
    // matches the pattern can produce.
    for v in [&pat.s, &pat.p, &pat.o] {
        if let VarOrTerm::Var(name) = v {
            if let Some(slot) = env.vars.get(name) {
                if !bound.contains(&slot) {
                    if let Some(c) = restrictions.get(&slot) {
                        est = est.min(c.len());
                    }
                }
            }
        }
    }
    let var_bound = |v: &VarOrTerm| match v {
        VarOrTerm::Term(_) => false,
        VarOrTerm::Var(name) => env.vars.get(name).is_some_and(|s| bound.contains(&s)),
    };
    for v in [&pat.s, &pat.p, &pat.o] {
        if var_bound(v) {
            est = est / 8 + 1;
        }
    }
    est
}

/// Match one pattern under a binding, pushing extended bindings.
///
/// `restrictions` holds per-slot candidate id sets from the spatial
/// push-down: open variables with a restriction only bind to members of
/// their set, and when the set is smaller than the pattern's match count
/// the matching is *driven from the candidates* (point lookups on the
/// OSP/SPO indexes instead of a range scan).
fn extend_with_pattern(
    env: &Env<'_>,
    pat: &PatternTriple,
    binding: &Binding,
    restrictions: &HashMap<usize, HashSet<TermId>>,
    out: &mut Vec<Binding>,
) {
    // Resolve each position to either a concrete id or an open slot.
    enum Pos {
        Const(TermId),
        OpenVar(usize),
        /// Constant not in the dictionary: cannot match.
        Dead,
    }
    let resolve = |v: &VarOrTerm| -> Pos {
        match v {
            VarOrTerm::Term(t) => match env.store.id_of(t) {
                Some(id) => Pos::Const(id),
                None => Pos::Dead,
            },
            VarOrTerm::Var(name) => {
                // Unregistered variables (never produced by the
                // collector) can never match anything.
                let Some(slot) = env.vars.get(name) else {
                    return Pos::Dead;
                };
                match &binding[slot] {
                    Some(Bound::Id(id)) => Pos::Const(*id),
                    Some(Bound::Computed(t)) => match env.store.id_of(t) {
                        Some(id) => Pos::Const(id),
                        None => Pos::Dead,
                    },
                    None => Pos::OpenVar(slot),
                }
            }
        }
    };
    let (s, p, o) = (resolve(&pat.s), resolve(&pat.p), resolve(&pat.o));
    if matches!(s, Pos::Dead) || matches!(p, Pos::Dead) || matches!(o, Pos::Dead) {
        return;
    }
    let as_const = |p: &Pos| match p {
        Pos::Const(id) => Some(*id),
        _ => None,
    };
    let tp = TriplePattern::new(as_const(&s), as_const(&p), as_const(&o));

    let emit = |t: teleios_rdf::triple::Triple, out: &mut Vec<Binding>| {
        let mut nb = binding.clone();
        let mut ok = true;
        let bind = |pos: &Pos, value: TermId, nb: &mut Binding, ok: &mut bool| {
            if let Pos::OpenVar(slot) = pos {
                if restrictions.get(slot).is_some_and(|c| !c.contains(&value)) {
                    *ok = false;
                    return;
                }
                match &nb[*slot] {
                    None => nb[*slot] = Some(Bound::Id(value)),
                    Some(Bound::Id(existing)) if *existing == value => {}
                    _ => *ok = false,
                }
            }
        };
        bind(&s, t.s, &mut nb, &mut ok);
        bind(&p, t.p, &mut nb, &mut ok);
        bind(&o, t.o, &mut nb, &mut ok);
        if ok {
            out.push(nb);
        }
    };

    // RDFS inference: `?x rdf:type C` also matches instances of C's
    // subclasses (reflexive-transitive rdfs:subClassOf closure).
    if env.rdfs_inference {
        if let (Pos::Const(p_id), Pos::Const(class_id)) = (&p, &o) {
            let is_type = env
                .store
                .id_of(&teleios_rdf::term::Term::iri(vocab::rdf::TYPE))
                == Some(*p_id);
            if is_type {
                for class in subclass_closure(env.store, *class_id) {
                    let tp = TriplePattern::new(as_const(&s), Some(*p_id), Some(class));
                    for t in env.store.match_pattern(&tp) {
                        emit(t, out);
                    }
                }
                return;
            }
        }
    }

    // Candidate-driven matching: when the object slot carries a small
    // restriction set, probe per candidate instead of scanning the range.
    if let Pos::OpenVar(slot) = o {
        if let Some(cands) = restrictions.get(&slot) {
            if cands.len() < env.store.estimate_pattern(&tp) {
                // Probe in id order, not HashSet order: iteration order
                // of the set is RandomState-seeded per instance, and
                // row order is part of the determinism contract.
                let mut ordered: Vec<TermId> = cands.iter().copied().collect();
                ordered.sort_unstable();
                for cid in ordered {
                    let probe = TriplePattern::new(tp.s, tp.p, Some(cid));
                    for t in env.store.match_pattern(&probe) {
                        emit(t, out);
                    }
                }
                return;
            }
        }
    }

    for t in env.store.match_pattern(&tp) {
        emit(t, out);
    }
}

/// Reflexive-transitive subclass closure of a class id via the
/// `rdfs:subClassOf` triples in the store (downward: all subclasses).
fn subclass_closure(
    store: &teleios_rdf::store::TripleStore,
    class: TermId,
) -> Vec<TermId> {
    let Some(sub_p) = store.id_of(&teleios_rdf::term::Term::iri(vocab::rdfs::SUB_CLASS_OF))
    else {
        return vec![class];
    };
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack = vec![class];
    let mut out = Vec::new();
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        out.push(c);
        // Subclasses of c: (?sub, rdfs:subClassOf, c).
        for t in store.match_pattern(&TriplePattern::new(None, Some(sub_p), Some(c))) {
            stack.push(t.s);
        }
    }
    out
}

/// Apply a FILTER, using the spatial sidecar to pre-filter when
/// possible. The exact predicate pass (geometry intersections,
/// arithmetic) runs over the pool's morsels, parallel from
/// [`PAR_BINDING_THRESHOLD`] bindings up; the envelope pre-filter
/// stays sequential — it is hash probes, far cheaper than the task
/// setup it would amortize.
fn apply_filter(
    env: &Env<'_>,
    filter: &Expression,
    mut bindings: Vec<Binding>,
    spatial_index: bool,
) -> Vec<Binding> {
    if spatial_index {
        if let Some((var_slot, candidates)) = spatial_prefilter(env, filter) {
            bindings.retain(|b| match &b[var_slot] {
                Some(Bound::Id(id)) => candidates.contains(id),
                // Computed geometries skip the index and go to exact eval.
                _ => true,
            });
        }
    }
    // Morsel-order concatenation of the survivors is one retain over
    // the whole list.
    let bindings = &bindings;
    let tasks: Vec<_> = env
        .pool
        .morsels_for(bindings.len(), PAR_BINDING_THRESHOLD, MORSELS_PER_WORKER)
        .into_iter()
        .map(|r| {
            move || {
                bindings[r]
                    .iter()
                    .filter(|b| eval_filter(env, b, filter))
                    .cloned()
                    .collect::<Vec<Binding>>()
            }
        })
        .collect();
    concat(env.pool.run(tasks))
}

/// Recognize `strdf:pred(?v, CONST)` / `strdf:distance(?v, CONST) < d`
/// shapes and compute the envelope-candidate id set.
fn spatial_prefilter(
    env: &Env<'_>,
    filter: &Expression,
) -> Option<(usize, HashSet<TermId>)> {
    // Envelope-intersection is a necessary condition for these predicates.
    const ENVELOPE_PREDICATES: &[&str] =
        &["intersects", "within", "contains", "touches", "equals", "sfIntersects", "sfWithin", "sfContains"];

    fn const_geometry(e: &Expression) -> Option<Envelope> {
        if let Expression::Const(t) = e {
            if let Ok((g, _)) = strdf::parse_geometry(t) {
                return Some(g.envelope());
            }
        }
        None
    }

    match filter {
        Expression::Call { name, args } if args.len() == 2 => {
            let local = name.strip_prefix(vocab::strdf::NS).or_else(|| {
                name.strip_prefix("http://www.opengis.net/def/function/geosparql/")
            })?;
            if !ENVELOPE_PREDICATES.contains(&local) {
                return None;
            }
            let (var, env_box) = match (&args[0], &args[1]) {
                (Expression::Var(v), c) => (v, const_geometry(c)?),
                (c, Expression::Var(v)) => (v, const_geometry(c)?),
                _ => return None,
            };
            let slot = env.vars.get(var)?;
            Some((slot, env.spatial.candidates(&env_box)))
        }
        // distance(?v, CONST) < d   or   d > distance(?v, CONST)
        Expression::Binary { op, left, right } => {
            let (call, bound_expr, strict_less) = match op {
                BinaryOp::Lt | BinaryOp::Le => (left, right, true),
                BinaryOp::Gt | BinaryOp::Ge => (right, left, true),
                _ => return None,
            };
            let _ = strict_less;
            let Expression::Call { name, args } = &**call else {
                return None;
            };
            let local = name.strip_prefix(vocab::strdf::NS).or_else(|| {
                name.strip_prefix("http://www.opengis.net/def/function/geosparql/")
            })?;
            if local != "distance" || args.len() != 2 {
                return None;
            }
            let Expression::Const(d_term) = &**bound_expr else {
                return None;
            };
            let d = d_term.as_f64()?;
            let (var, env_box) = match (&args[0], &args[1]) {
                (Expression::Var(v), c) => (v, const_geometry(c)?),
                (c, Expression::Var(v)) => (v, const_geometry(c)?),
                _ => return None,
            };
            let slot = env.vars.get(var)?;
            Some((slot, env.spatial.candidates(&env_box.buffer(d))))
        }
        _ => None,
    }
}

// --- variable collection ----------------------------------------------

fn collect_projection_vars(p: &Projection, vars: &mut VarTable) {
    if let Projection::Vars(items) = p {
        for i in items {
            match i {
                ProjectionItem::Var(v) => {
                    vars.slot(v);
                }
                ProjectionItem::Expr { expr, var } => {
                    collect_expr_vars(expr, vars);
                    vars.slot(var);
                }
            }
        }
    }
}

pub(crate) fn collect_group_vars(g: &GroupPattern, vars: &mut VarTable) {
    for el in &g.elements {
        match el {
            PatternElement::Triple(t) => {
                for v in [&t.s, &t.p, &t.o] {
                    if let Some(name) = v.var() {
                        vars.slot(name);
                    }
                }
            }
            PatternElement::Filter(e) => collect_expr_vars(e, vars),
            PatternElement::Optional(inner)
            | PatternElement::Minus(inner)
            | PatternElement::FilterExists { group: inner, .. } => {
                collect_group_vars(inner, vars)
            }
            PatternElement::Union(branches) => {
                for b in branches {
                    collect_group_vars(b, vars);
                }
            }
            PatternElement::Bind { expr, var } => {
                collect_expr_vars(expr, vars);
                vars.slot(var);
            }
        }
    }
}

fn collect_expr_vars(e: &Expression, vars: &mut VarTable) {
    match e {
        Expression::Var(v) => {
            vars.slot(v);
        }
        Expression::Const(_) => {}
        Expression::Not(e) | Expression::Neg(e) => collect_expr_vars(e, vars),
        Expression::Binary { left, right, .. } => {
            collect_expr_vars(left, vars);
            collect_expr_vars(right, vars);
        }
        Expression::Call { args, .. } => {
            for a in args {
                collect_expr_vars(a, vars);
            }
        }
    }
}


