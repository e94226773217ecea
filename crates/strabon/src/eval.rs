//! stSPARQL evaluation: one pipeline under every statement.
//!
//! SELECT, ASK, CONSTRUCT, `DELETE/INSERT … WHERE` and EXPLAIN all take
//! the same steps:
//!
//! 1. `prepare` catches the spatial sidecar up with the dictionary,
//!    collects the statement's variables, parses its constant
//!    geometries and builds its one `Env`;
//! 2. `plan_group` computes each FILTER's spatial restriction
//!    (`strdf:pred(?g, CONST)` or `strdf:distance(?g, CONST) < d` probe
//!    the R-tree sidecar for envelope candidates — E3), orders each BGP
//!    run on a cardinality carried from step to step (E4) and recurses
//!    into nested groups, once per statement. A pattern's fanout is its
//!    constants' match count divided, per position a variable already
//!    binds, by that position's distinct values in the store's
//!    predicate statistics; a pattern sharing no bound variable
//!    multiplies the cardinality by its whole count (a cross product).
//!    Each pattern is tried as the seed, the rest follow greedily, and
//!    the order with the least sum of intermediate cardinalities wins.
//!    FILTERs do not cut runs: each runs right after the first step
//!    that leaves all its variables certainly bound and scales the
//!    estimate by `FILTER_SELECTIVITY`; with `optimize_bgp` off,
//!    patterns keep syntactic order and FILTERs run at the group's end;
//! 3. `walk` executes that `Plan` as index nested-loop joins over
//!    the store's SPO/POS/OSP orderings — or `render` prints it,
//!    which is all EXPLAIN is, so the two cannot disagree;
//! 4. `finish` applies SELECT's solution modifiers.
//!
//! [`crate::StrabonConfig`] toggles the join ordering and the spatial
//! push-down; both only ever change the plan, never the answer.

use crate::ast::*;
use crate::expr::{
    eval_expression, eval_filter, order_terms, spatial_function, Binding, Bound, Env, VarTable,
};
use crate::{Result, Solutions, Strabon, StrabonError};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use teleios_exec::concat;
use teleios_geo::Geometry;
use teleios_rdf::dictionary::TermId;
use teleios_rdf::strdf;
use teleios_rdf::term::Term;
use teleios_rdf::triple::TriplePattern;
use teleios_rdf::vocab;

/// Step 1 of every statement: catch the sidecar up with the store,
/// register the variables of the WHERE clause, then of a SELECT's
/// projection and ORDER BY, reject template variables the WHERE clause
/// cannot bind, parse the WHERE clause's constant geometries once, and
/// build the statement's environment.
pub(crate) fn prepare<'a, 't>(
    engine: &'a mut Strabon,
    where_clause: &GroupPattern,
    select: Option<&SelectQuery>,
    templates: impl IntoIterator<Item = &'t TemplateTriple>,
) -> Result<Env<'a>> {
    let pool = engine.pool();
    engine.spatial.catch_up(&engine.store, &pool);
    let engine: &'a Strabon = engine;
    let mut vars = VarTable::default();
    collect_group_vars(where_clause, &mut vars);
    if let Some(q) = select {
        collect_projection_vars(&q.projection, &mut vars);
        for k in &q.order_by {
            collect_expr_vars(&k.expr, &mut vars);
        }
    }
    for t in templates {
        for v in [&t.s, &t.p, &t.o] {
            if let Some(name) = v.var().filter(|name| vars.get(name).is_none()) {
                return Err(StrabonError::Eval(format!(
                    "template variable ?{name} is not bound by the WHERE clause"
                )));
            }
        }
    }
    let mut constants = HashMap::new();
    collect_group_geometries(where_clause, &mut constants);
    Ok(Env { store: &engine.store, spatial: &engine.spatial, vars, config: engine.config, pool, constants })
}

/// Parse every constant geometry in the FILTER and BIND expressions of
/// `g` and its nested groups, keyed for [`Env::constant_geometry`].
fn collect_group_geometries(g: &GroupPattern, out: &mut HashMap<usize, Arc<Geometry>>) {
    for el in &g.elements {
        match el {
            PatternElement::Triple(_) => {}
            PatternElement::Filter(e) | PatternElement::Bind { expr: e, .. } => for_each_node(e, &mut |n| {
                if let Expression::Const(t) = n {
                    if let Ok((geometry, _)) = strdf::parse_geometry(t) {
                        out.insert(std::ptr::from_ref(n).addr(), Arc::new(geometry));
                    }
                }
            }),
            PatternElement::Optional(inner)
            | PatternElement::Minus(inner)
            | PatternElement::FilterExists { group: inner, .. } => collect_group_geometries(inner, out),
            PatternElement::Union(branches) => {
                branches.iter().for_each(|b| collect_group_geometries(b, out));
            }
        }
    }
}

/// Steps 2 and 3: plan the WHERE clause, walk it from the one empty
/// solution.
pub(crate) fn solve(env: &Env<'_>, where_clause: &GroupPattern) -> Vec<Binding> {
    let (plan, _) = plan_group(env, where_clause, &mut HashSet::new(), 1.0);
    walk(env, &plan, vec![env.vars.empty_binding()])
}

/// Evaluate a parsed query against the engine.
pub fn evaluate_query(engine: &mut Strabon, query: &Query) -> Result<Solutions> {
    match query {
        Query::Select(q) => {
            let env = prepare(engine, &q.where_clause, Some(q), [])?;
            let rows = solve(&env, &q.where_clause);
            finish(&env, q, rows)
        }
        Query::Ask(q) => {
            let env = prepare(engine, &q.where_clause, None, [])?;
            let found = !solve(&env, &q.where_clause).is_empty();
            Ok(Solutions { vars: vec!["ask".into()], rows: vec![vec![Some(Term::boolean(found))]] })
        }
        Query::Construct(_) => {
            Err(StrabonError::Eval("CONSTRUCT queries go through Strabon::construct".into()))
        }
    }
}

/// Evaluate a CONSTRUCT query: matched solutions instantiate the
/// template; duplicate triples collapse.
pub(crate) fn evaluate_construct(engine: &mut Strabon, q: &ConstructQuery) -> Result<Vec<(Term, Term, Term)>> {
    let env = prepare(engine, &q.where_clause, None, &q.template)?;
    let mut out: Vec<(Term, Term, Term)> = Vec::new();
    for b in &solve(&env, &q.where_clause) {
        crate::update::instantiate(&env, b, &q.template, &mut out);
    }
    // Set semantics: CONSTRUCT produces a graph.
    out.sort();
    out.dedup();
    Ok(out)
}

/// Step 4, SELECT's solution modifiers in SPARQL's order: (group and
/// aggregate | extend with the projected expressions) → ORDER BY →
/// project → DISTINCT → OFFSET → LIMIT. Aggregates and projected
/// expressions land in their alias's slot, so ORDER BY and the
/// projection read an alias like any other variable.
fn finish(env: &Env<'_>, q: &SelectQuery, mut rows: Vec<Binding>) -> Result<Solutions> {
    let items: &[ProjectionItem] = match &q.projection {
        Projection::Vars(items) => items,
        Projection::All => &[],
    };
    let aggregated = !q.group_by.is_empty()
        || items.iter().any(|i| matches!(i, ProjectionItem::Expr { expr, .. } if expr_has_aggregate(expr)));
    if aggregated {
        rows = aggregate(env, q, items, &rows)?;
    } else {
        for b in &mut rows {
            extend(env, items, b, |b, expr| eval_expression(env, b, expr));
        }
    }

    if !q.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Option<Term>>, Binding)> = rows
            .into_iter()
            .map(|b| (q.order_by.iter().map(|k| eval_expression(env, &b, &k.expr)).collect(), b))
            .collect();
        keyed.sort_by(|(x, _), (y, _)| {
            let by_key = |(i, k): (usize, &OrderKey)| {
                let ord = order_terms(&x[i], &y[i]);
                if k.desc { ord.reverse() } else { ord }
            };
            q.order_by.iter().enumerate().map(by_key).find(|ord| ord.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
        });
        rows = keyed.into_iter().map(|(_, b)| b).collect();
    }

    let vars: Vec<String> = match &q.projection {
        Projection::Vars(items) => items
            .iter()
            .map(|i| match i {
                ProjectionItem::Var(var) | ProjectionItem::Expr { var, .. } => var.clone(),
            })
            .collect(),
        Projection::All if aggregated => q.group_by.clone(),
        Projection::All => env.vars.names().to_vec(),
    };
    let slots: Vec<Option<usize>> = vars.iter().map(|v| env.vars.get(v)).collect();
    let project = |b: &Binding| -> Vec<Option<Term>> {
        slots.iter().map(|s| s.and_then(|s| b[s].as_ref()).map(|x| x.term(env.store).clone())).collect()
    };
    let mut rows: Vec<Vec<Option<Term>>> = rows.iter().map(project).collect();
    if q.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    rows.drain(..q.offset.min(rows.len()));
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    Ok(Solutions { vars, rows })
}

/// Bind each `(expr AS ?v)` of the projection to `value(expr)` in
/// `?v`'s slot, in order, so a later item may read an earlier alias.
fn extend(
    env: &Env<'_>,
    items: &[ProjectionItem],
    b: &mut Binding,
    value: impl Fn(&Binding, &Expression) -> Option<Term>,
) {
    for item in items {
        if let ProjectionItem::Expr { expr, var } = item {
            if let Some(slot) = env.vars.get(var) {
                b[slot] = value(b, expr).map(Bound::Computed);
            }
        }
    }
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

/// Collapse solutions into one binding per group, in first-seen order
/// (one global group when GROUP BY is absent): the GROUP BY slots carry
/// the key, each `(aggregate AS ?v)` lands in `?v`'s slot. Projected
/// plain variables must be grouping variables.
fn aggregate(
    env: &Env<'_>,
    q: &SelectQuery,
    items: &[ProjectionItem],
    rows: &[Binding],
) -> Result<Vec<Binding>> {
    let group_slots: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            env.vars
                .get(v)
                .ok_or_else(|| StrabonError::Eval(format!("GROUP BY ?{v} is not bound anywhere")))
        })
        .collect::<Result<_>>()?;
    for item in items {
        if let ProjectionItem::Var(v) = item {
            if !q.group_by.contains(v) {
                return Err(StrabonError::Eval(format!("non-aggregated ?{v} must appear in GROUP BY")));
            }
        }
    }

    let mut groups: Vec<Vec<&Binding>> = Vec::new();
    let mut index: HashMap<Vec<Option<&Term>>, usize> = HashMap::new();
    for b in rows {
        let key = group_slots.iter().map(|&s| b[s].as_ref().map(|x| x.term(env.store))).collect();
        let gi = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push(b);
    }
    // A global aggregate over zero solutions still yields one row.
    if groups.is_empty() && q.group_by.is_empty() {
        groups.push(Vec::new());
    }

    let collapse = |members: &Vec<&Binding>| {
        let mut b = env.vars.empty_binding();
        if let Some(first) = members.first() {
            for &s in &group_slots {
                b[s] = first[s].clone();
            }
        }
        extend(env, items, &mut b, |_, expr| eval_aggregate_expr(env, expr, members));
        b
    };
    Ok(groups.iter().map(collapse).collect())
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

/// Fraction of its input a FILTER is costed to keep. One constant for
/// every FILTER: the store keeps no value histograms, and a FILTER's
/// spatial restriction already caps the scans it restricts exactly.
const FILTER_SELECTIVITY: f64 = 0.25;

/// A planned group: what [`walk`] executes and [`render`] prints.
struct Plan<'q> {
    /// Spatial push-down: per variable slot, the dictionary ids whose
    /// envelope can satisfy this group's FILTERs on that variable.
    /// The group's scans bind the slot to members only (geometries
    /// that cannot pass are never enumerated — Strabon's "push the
    /// spatial predicate into the scan") and the FILTERs pre-filter
    /// with the same set.
    restrictions: HashMap<usize, HashSet<TermId>>,
    /// The steps in execution order, each with the cardinality
    /// estimated after it.
    steps: Vec<(Step<'q>, f64)>,
}

enum Step<'q> {
    /// One join of a BGP run.
    Scan(Scan<'q>),
    /// A FILTER; `restricted` names the slot whose restriction
    /// pre-filters it.
    Filter { expr: &'q Expression, restricted: Option<usize> },
    Optional(Plan<'q>),
    Union(Vec<Plan<'q>>),
    /// `shared`: the slots of the variables the body mentions.
    Minus { plan: Plan<'q>, shared: Vec<usize> },
    Bind { expr: &'q Expression, slot: usize },
    Exists { plan: Plan<'q>, negated: bool },
}

/// A pattern position, resolved once per statement.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pos {
    Const(TermId),
    Var(usize),
    /// A constant the dictionary has never seen: matches nothing.
    Dead,
}

/// A triple pattern of a BGP run: what the planner costs and the walk
/// probes.
#[derive(Clone, Copy)]
struct Scan<'q> {
    pattern: &'q PatternTriple,
    /// Subject, predicate, object.
    pos: [Pos; 3],
    /// Matches of the pattern's constants alone, counted once.
    count: usize,
    /// The object's spatial candidates drive the probe (one point
    /// lookup per candidate) instead of an index range scan.
    driven: bool,
    /// Under RDFS inference, `rdf:type`'s id: a match on it with a
    /// bound class also matches the class's subclasses.
    rdf_type: Option<TermId>,
}

impl Scan<'_> {
    fn binds(&self, slot: usize) -> bool {
        self.pos.contains(&Pos::Var(slot))
    }
}

/// A FILTER of the group not placed yet, with the slots it reads.
struct Waiting<'q> {
    expr: &'q Expression,
    restricted: Option<usize>,
    slots: Vec<usize>,
}

/// One group's planning state: the steps so far, the cardinality
/// carried after the last of them, the FILTERs not placed yet.
struct Group<'e, 'q> {
    env: &'e Env<'e>,
    restrictions: HashMap<usize, HashSet<TermId>>,
    steps: Vec<(Step<'q>, f64)>,
    card: f64,
    waiting: Vec<Waiting<'q>>,
    /// Targets of the BINDs not planned yet: a FILTER reading one
    /// waits for it, since the BIND may overwrite the slot.
    binds_ahead: Vec<usize>,
}

/// Step 2 — the only code that decides what runs in which order.
///
/// `bound` holds the slots certainly bound when the group starts
/// (the enclosing groups' included) and, on return, when it ends:
/// pattern variables and BIND targets count; OPTIONAL, MINUS and
/// EXISTS bodies bind nothing for the steps after them, a UNION what
/// every branch binds. `card` is the estimated number of solutions
/// the group starts from; it is carried from step to step and the
/// estimate after the last one is returned with the plan.
fn plan_group<'e, 'q>(
    env: &'e Env<'e>,
    group: &'q GroupPattern,
    bound: &mut HashSet<usize>,
    card: f64,
) -> (Plan<'q>, f64) {
    // A FILTER restricts the whole group, wherever it is written, so
    // the candidate sets come first: one R-tree probe per FILTER.
    let mut g = Group {
        env,
        restrictions: HashMap::new(),
        steps: Vec::with_capacity(group.elements.len()),
        card,
        waiting: Vec::new(),
        binds_ahead: Vec::new(),
    };
    for el in &group.elements {
        match el {
            PatternElement::Filter(expr) => {
                let found = if env.config.use_spatial_index { spatial_prefilter(env, expr) } else { None };
                let restricted = found.map(|(slot, set)| {
                    match g.restrictions.entry(slot) {
                        Entry::Occupied(mut e) => e.get_mut().retain(|id| set.contains(id)),
                        Entry::Vacant(e) => {
                            e.insert(set);
                        }
                    }
                    slot
                });
                let mut vars = VarTable::default();
                collect_expr_vars(expr, &mut vars);
                let slots = vars.names().iter().filter_map(|v| env.vars.get(v)).collect();
                g.waiting.push(Waiting { expr, restricted, slots });
            }
            PatternElement::Bind { var, .. } => g.binds_ahead.extend(env.vars.get(var)),
            _ => {}
        }
    }
    g.release(bound);

    let mut run: Vec<&PatternTriple> = Vec::new();
    for el in &group.elements {
        match el {
            PatternElement::Triple(t) => {
                run.push(t);
                continue;
            }
            // Placed by `release`: a FILTER does not cut the run.
            PatternElement::Filter(_) => continue,
            _ => g.order_run(&mut run, bound),
        }
        let card = g.card;
        let (step, est) = match el {
            PatternElement::Triple(_) | PatternElement::Filter(_) => continue,
            PatternElement::Optional(inner) => {
                let (plan, out) = plan_group(env, inner, &mut bound.clone(), card);
                (Step::Optional(plan), out.max(card))
            }
            PatternElement::Union(branches) => {
                let (mut plans, mut ends, mut est) = (Vec::new(), Vec::new(), 0.0);
                for br in branches {
                    let mut end = bound.clone();
                    let (plan, out) = plan_group(env, br, &mut end, card);
                    plans.push(plan);
                    ends.push(end);
                    est += out;
                }
                if let Some(all) = ends.into_iter().reduce(|a, b| &a & &b) {
                    *bound = all;
                }
                (Step::Union(plans), est)
            }
            PatternElement::Minus(inner) => {
                let mut inner_vars = VarTable::default();
                collect_group_vars(inner, &mut inner_vars);
                let shared = inner_vars.names().iter().filter_map(|v| env.vars.get(v)).collect();
                let (plan, _) = plan_group(env, inner, &mut bound.clone(), card);
                (Step::Minus { plan, shared }, card)
            }
            PatternElement::Bind { expr, var } => {
                // Registered by `prepare`; a miss would mean the value
                // has nowhere to land.
                let Some(slot) = env.vars.get(var) else { continue };
                if let Some(i) = g.binds_ahead.iter().position(|&s| s == slot) {
                    g.binds_ahead.remove(i);
                }
                bound.insert(slot);
                (Step::Bind { expr, slot }, card)
            }
            PatternElement::FilterExists { group: inner, negated } => {
                let (plan, _) = plan_group(env, inner, &mut bound.clone(), card);
                (Step::Exists { plan, negated: *negated }, card)
            }
        };
        g.card = est;
        g.steps.push((step, est));
        g.release(bound);
    }
    g.order_run(&mut run, bound);
    // What is still waiting runs at the group's end, SPARQL's FILTER
    // scope: every FILTER with `optimize_bgp` off, and those reading a
    // variable no step binds for certain.
    for w in std::mem::take(&mut g.waiting) {
        g.place(w);
    }
    let card = g.card;
    (Plan { restrictions: g.restrictions, steps: g.steps }, card)
}

impl<'q> Group<'_, 'q> {
    /// Whether FILTER `w` may run once the slots `is_bound` accepts
    /// are bound: under `optimize_bgp`, when they cover its variables
    /// and no BIND ahead rewrites one.
    fn ready(&self, w: &Waiting<'_>, is_bound: impl Fn(usize) -> bool) -> bool {
        self.env.config.optimize_bgp
            && w.slots.iter().all(|&s| is_bound(s) && !self.binds_ahead.contains(&s))
    }

    /// Place every waiting FILTER that `bound` makes ready, in the
    /// order they are written.
    fn release(&mut self, bound: &HashSet<usize>) {
        let (ready, waiting) = std::mem::take(&mut self.waiting)
            .into_iter()
            .partition(|w| self.ready(w, |s| bound.contains(&s)));
        self.waiting = waiting;
        for w in ready {
            self.place(w);
        }
    }

    fn place(&mut self, w: Waiting<'q>) {
        self.card *= FILTER_SELECTIVITY;
        self.steps.push((Step::Filter { expr: w.expr, restricted: w.restricted }, self.card));
    }

    /// Move one BGP run into the steps in join order: syntactic, or
    /// (when `optimize_bgp`) the cheapest order [`Group::search`] finds.
    fn order_run(&mut self, run: &mut Vec<&'q PatternTriple>, bound: &mut HashSet<usize>) {
        let run: Vec<Scan<'q>> = run.drain(..).map(|pattern| self.cost(pattern)).collect();
        let order: Vec<usize> = if self.env.config.optimize_bgp {
            self.search(&run, bound)
        } else {
            (0..run.len()).collect()
        };
        for mut scan in order.into_iter().map(|i| run[i]) {
            let (range, capped) = self.fanout(&scan, bound);
            self.card *= capped;
            scan.driven = match scan.pos[2] {
                Pos::Var(slot) if !bound.contains(&slot) => {
                    self.restrictions.get(&slot).is_some_and(|cands| (cands.len() as f64) < range)
                }
                _ => false,
            };
            for pos in scan.pos {
                if let Pos::Var(slot) = pos {
                    bound.insert(slot);
                }
            }
            self.steps.push((Step::Scan(scan), self.card));
            self.release(bound);
        }
    }

    /// Resolve a pattern's positions and count its constants' matches.
    fn cost(&self, pattern: &'q PatternTriple) -> Scan<'q> {
        let env = self.env;
        let resolve = |v: &VarOrTerm| match v {
            VarOrTerm::Term(t) => env.store.id_of(t).map_or(Pos::Dead, Pos::Const),
            // Unregistered variables (never produced by the collector)
            // can never match anything.
            VarOrTerm::Var(name) => env.vars.get(name).map_or(Pos::Dead, Pos::Var),
        };
        let pos = [resolve(&pattern.s), resolve(&pattern.p), resolve(&pattern.o)];
        let id = |p: Pos| match p {
            Pos::Const(id) => Some(id),
            _ => None,
        };
        let count = if pos.contains(&Pos::Dead) {
            0
        } else {
            env.store.estimate_pattern(&TriplePattern::new(id(pos[0]), id(pos[1]), id(pos[2])))
        };
        let rdf_type =
            env.config.rdfs_inference.then(|| env.store.id_of(&Term::iri(vocab::rdf::TYPE))).flatten();
        Scan { pattern, pos, count, driven: false, rdf_type }
    }

    /// Matches of `c` per binding under `bound`: the constants' count
    /// divided, for each position a variable already binds, by that
    /// position's distinct values in the predicate statistics. Returned
    /// as is (what a range scan reads) and capped by the spatial
    /// candidates of the open variables (what the join emits). A
    /// pattern that shares no bound variable keeps its whole count:
    /// a cross product.
    fn fanout(&self, c: &Scan<'_>, bound: &HashSet<usize>) -> (f64, f64) {
        let store = self.env.store;
        let stats = store.predicate_stats(match c.pos[1] {
            Pos::Const(p) => Some(p),
            _ => None,
        });
        let distinct = [stats.subjects, store.predicates(), stats.objects];
        let mut range = c.count as f64;
        let mut capped = f64::INFINITY;
        for (pos, distinct) in c.pos.iter().zip(distinct) {
            let Pos::Var(slot) = *pos else { continue };
            if bound.contains(&slot) {
                range /= distinct.max(1) as f64;
            } else if let Some(cands) = self.restrictions.get(&slot) {
                capped = capped.min(cands.len() as f64);
            }
        }
        (range, range.min(capped))
    }

    /// The cheapest join order of a run: each pattern tried as the
    /// seed, then greedily the pattern leaving the fewest solutions
    /// after it and the FILTERs it makes ready; the order kept has the
    /// least sum of intermediate cardinalities. Ties go to the earlier
    /// pattern as written, so the plan is deterministic.
    fn search(&self, run: &[Scan<'_>], bound: &HashSet<usize>) -> Vec<usize> {
        let mut best: Option<(f64, Vec<usize>)> = None;
        for seed in 0..run.len() {
            let mut bound = bound.clone();
            let mut placed = vec![false; self.waiting.len()];
            let (mut card, mut total) = (self.card, 0.0);
            let mut order = Vec::with_capacity(run.len());
            let mut next = Some(seed);
            while let Some(i) = next {
                card = self.joined(&run[i], &bound, card, &placed);
                total += card;
                order.push(i);
                for pos in run[i].pos {
                    if let Pos::Var(slot) = pos {
                        bound.insert(slot);
                    }
                }
                for (w, placed) in self.waiting.iter().zip(&mut placed) {
                    *placed = *placed || self.ready(w, |s| bound.contains(&s));
                }
                next = (0..run.len())
                    .filter(|j| !order.contains(j))
                    .map(|j| (j, self.joined(&run[j], &bound, card, &placed)))
                    .fold(None, |min: Option<(usize, f64)>, (j, c)| match min {
                        Some((_, m)) if m <= c => min,
                        _ => Some((j, c)),
                    })
                    .map(|(j, _)| j);
            }
            if best.as_ref().is_none_or(|(t, _)| total < *t) {
                best = Some((total, order));
            }
        }
        best.map(|(_, order)| order).unwrap_or_default()
    }

    /// `card` after joining `c` under `bound` and running the waiting
    /// FILTERs the join makes ready.
    fn joined(&self, c: &Scan<'_>, bound: &HashSet<usize>, card: f64, placed: &[bool]) -> f64 {
        let ready = self
            .waiting
            .iter()
            .zip(placed)
            .filter(|(w, placed)| !**placed && self.ready(w, |s| bound.contains(&s) || c.binds(s)))
            .count();
        card * self.fanout(c, bound).1 * FILTER_SELECTIVITY.powi(ready as i32)
    }
}

fn render_pattern(p: &PatternTriple) -> String {
    let part = |v: &VarOrTerm| match v {
        VarOrTerm::Var(name) => format!("?{name}"),
        VarOrTerm::Term(t) => t.to_string(),
    };
    format!("{} {} {}", part(&p.s), part(&p.p), part(&p.o))
}

/// Step 3: execute a plan over `bindings`. Scans and FILTERs run over
/// the whole solution list (morsel-parallel from
/// [`PAR_BINDING_THRESHOLD`] up); nested bodies run once per solution,
/// seeded with it.
fn walk(env: &Env<'_>, plan: &Plan<'_>, mut bindings: Vec<Binding>) -> Vec<Binding> {
    let seeded = |inner: &Plan<'_>, b: &Binding| walk(env, inner, vec![b.clone()]);
    for (step, _) in &plan.steps {
        if bindings.is_empty() {
            break;
        }
        match step {
            Step::Scan(scan) => {
                bindings = probe_pattern(env, scan, bindings, &plan.restrictions);
            }
            Step::Filter { expr, restricted } => {
                let prefilter = restricted.map(|slot| (slot, &plan.restrictions[&slot]));
                bindings = apply_filter(env, expr, bindings, prefilter);
            }
            Step::Optional(inner) => {
                let mut next = Vec::with_capacity(bindings.len());
                for b in bindings {
                    let extended = seeded(inner, &b);
                    if extended.is_empty() {
                        next.push(b);
                    } else {
                        next.extend(extended);
                    }
                }
                bindings = next;
            }
            Step::Union(branches) => {
                bindings = branches.iter().flat_map(|br| walk(env, br, bindings.clone())).collect();
            }
            // Keep solutions that share no variable with the MINUS
            // body (SPARQL's compatibility rule); drop those the
            // seeded body has a solution for.
            Step::Minus { plan: inner, shared } => bindings.retain(|b| {
                !shared.iter().any(|&s| b[s].is_some()) || seeded(inner, b).is_empty()
            }),
            Step::Bind { expr, slot } => {
                for b in &mut bindings {
                    let v = eval_expression(env, b, expr);
                    b[*slot] = v.map(Bound::Computed);
                }
            }
            Step::Exists { plan: inner, negated } => {
                bindings.retain(|b| seeded(inner, b).is_empty() == *negated);
            }
        }
    }
    bindings
}

/// Render the evaluation plan of a query — the [`Plan`] the evaluator
/// would walk: spatial push-down candidate counts, then every step in
/// execution order with the cardinality estimated after it, nested
/// bodies indented under their step.
pub(crate) fn explain_query(engine: &mut Strabon, query: &Query) -> Result<String> {
    let (where_clause, select) = match query {
        Query::Select(q) => (&q.where_clause, Some(q)),
        Query::Ask(q) => (&q.where_clause, None),
        Query::Construct(q) => (&q.where_clause, None),
    };
    let env = prepare(engine, where_clause, select, [])?;
    let (plan, _) = plan_group(&env, where_clause, &mut HashSet::new(), 1.0);
    let mut out = format!(
        "config: optimize_bgp={}, use_spatial_index={}, rdfs_inference={}\n",
        env.config.optimize_bgp, env.config.use_spatial_index, env.config.rdfs_inference
    );
    if plan.restrictions.is_empty() {
        out.push_str("spatial push-down: (none)\n");
    }
    render(&env, &plan, "", &mut out);
    Ok(out)
}

fn render(env: &Env<'_>, plan: &Plan<'_>, indent: &str, out: &mut String) {
    let mut slots: Vec<&usize> = plan.restrictions.keys().collect();
    slots.sort();
    for slot in slots {
        out.push_str(&format!(
            "{indent}spatial push-down: ?{} restricted to {} envelope candidate(s)\n",
            env.vars.names()[*slot],
            plan.restrictions[slot].len()
        ));
    }
    let nested = format!("{indent}     ");
    for (i, (step, est)) in plan.steps.iter().enumerate() {
        let (label, bodies) = match step {
            Step::Scan(scan) => {
                let by = if scan.driven { ", probing the object's candidates" } else { "" };
                (format!("match {}{by}", render_pattern(scan.pattern)), &[][..])
            }
            Step::Filter { .. } => ("filter".into(), &[][..]),
            Step::Optional(body) => ("optional group".into(), std::slice::from_ref(body)),
            Step::Union(branches) => ("union".into(), &branches[..]),
            Step::Minus { plan: body, .. } => ("minus group".into(), std::slice::from_ref(body)),
            Step::Bind { .. } => ("bind".into(), &[][..]),
            Step::Exists { plan: body, negated } => (
                if *negated { "filter not exists" } else { "filter exists" }.into(),
                std::slice::from_ref(body),
            ),
        };
        out.push_str(&format!("{indent}{:>3}. {label} (est {})\n", i + 1, est.ceil()));
        for body in bodies {
            render(env, body, &nested, out);
        }
    }
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
    scan: &Scan<'_>,
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
                    extend_with_pattern(env, scan, b, restrictions, &mut out);
                }
                out
            }
        })
        .collect();
    concat(env.pool.run(tasks))
}

/// Match one pattern under a binding, pushing extended bindings.
///
/// `restrictions` holds per-slot candidate id sets from the spatial
/// push-down: open variables with a restriction only bind to members of
/// their set, and a `driven` scan whose object is still open matches
/// *from the candidates* (point lookups on the OSP/SPO indexes instead
/// of a range scan).
fn extend_with_pattern(
    env: &Env<'_>,
    scan: &Scan<'_>,
    binding: &Binding,
    restrictions: &HashMap<usize, HashSet<TermId>>,
    out: &mut Vec<Binding>,
) {
    // Each position under this binding: a concrete id, or the slot it
    // opens (`Err`); `None` when it cannot match.
    let resolve = |pos: Pos| -> Option<std::result::Result<TermId, usize>> {
        match pos {
            Pos::Const(id) => Some(Ok(id)),
            Pos::Dead => None,
            Pos::Var(slot) => match &binding[slot] {
                Some(Bound::Id(id)) => Some(Ok(*id)),
                Some(Bound::Computed(t)) => env.store.id_of(t).map(Ok),
                None => Some(Err(slot)),
            },
        }
    };
    let (Some(s), Some(p), Some(o)) = (resolve(scan.pos[0]), resolve(scan.pos[1]), resolve(scan.pos[2])) else {
        return;
    };
    let tp = TriplePattern::new(s.ok(), p.ok(), o.ok());

    let emit = |t: teleios_rdf::triple::Triple, out: &mut Vec<Binding>| {
        let mut nb = binding.clone();
        for (pos, value) in [(s, t.s), (p, t.p), (o, t.o)] {
            let Err(slot) = pos else { continue };
            if restrictions.get(&slot).is_some_and(|c| !c.contains(&value)) {
                return;
            }
            match &nb[slot] {
                None => nb[slot] = Some(Bound::Id(value)),
                Some(Bound::Id(existing)) if *existing == value => {}
                _ => return,
            }
        }
        out.push(nb);
    };

    // RDFS inference: `?x rdf:type C` also matches instances of C's
    // subclasses (reflexive-transitive rdfs:subClassOf closure).
    if let (Some(type_id), Ok(p_id), Ok(class_id)) = (scan.rdf_type, p, o) {
        if p_id == type_id {
            for class in subclass_closure(env.store, class_id) {
                for t in env.store.match_pattern(&TriplePattern { o: Some(class), ..tp }) {
                    emit(t, out);
                }
            }
            return;
        }
    }
    // Candidate-driven matching, chosen at plan time: probe per
    // candidate instead of scanning the range.
    if let (true, Err(slot)) = (scan.driven, o) {
        if let Some(cands) = restrictions.get(&slot) {
            // Probe in id order, not HashSet order: iteration order
            // of the set is RandomState-seeded per instance, and
            // row order is part of the determinism contract.
            let mut ordered: Vec<TermId> = cands.iter().copied().collect();
            ordered.sort_unstable();
            for cid in ordered {
                for t in env.store.match_pattern(&TriplePattern { o: Some(cid), ..tp }) {
                    emit(t, out);
                }
            }
            return;
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

/// Apply a FILTER. `prefilter` is the group's spatial restriction on
/// the FILTER's variable: solutions binding it to an id outside the
/// candidate set go first — hash probes, far cheaper than the task
/// setup they would amortize, so this stays sequential. The exact
/// predicate pass (geometry intersections, arithmetic) runs over the
/// pool's morsels, parallel from [`PAR_BINDING_THRESHOLD`] up.
fn apply_filter(
    env: &Env<'_>,
    filter: &Expression,
    mut bindings: Vec<Binding>,
    prefilter: Option<(usize, &HashSet<TermId>)>,
) -> Vec<Binding> {
    if let Some((slot, candidates)) = prefilter {
        bindings.retain(|b| match &b[slot] {
            Some(Bound::Id(id)) => candidates.contains(id),
            // Computed geometries skip the index and go to exact eval.
            _ => true,
        });
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

/// Recognize `strdf:pred(?v, CONST)` and `strdf:distance(?v, CONST) < d`
/// (or `d > strdf:distance(..)`) and compute the envelope-candidate id
/// set of `?v`'s slot.
fn spatial_prefilter(env: &Env<'_>, filter: &Expression) -> Option<(usize, HashSet<TermId>)> {
    // Envelope intersection is a necessary condition for these predicates.
    const ENVELOPE_PREDICATES: &[&str] =
        &["intersects", "within", "contains", "touches", "equals", "sfIntersects", "sfWithin", "sfContains"];

    let (call, limit) = match filter {
        Expression::Binary { op: BinaryOp::Lt | BinaryOp::Le, left, right } => (&**left, Some(&**right)),
        Expression::Binary { op: BinaryOp::Gt | BinaryOp::Ge, left, right } => (&**right, Some(&**left)),
        call => (call, None),
    };
    let Expression::Call { name, args } = call else { return None };
    let local = spatial_function(name)?;
    // How far the constant's envelope reaches.
    let reach = match limit {
        None if ENVELOPE_PREDICATES.contains(&local) => 0.0,
        Some(Expression::Const(d)) if local == "distance" => d.as_f64()?,
        _ => return None,
    };
    let (var, constant) = match args.as_slice() {
        [Expression::Var(v), c @ Expression::Const(_)] | [c @ Expression::Const(_), Expression::Var(v)] => (v, c),
        _ => return None,
    };
    let geometry = env.constant_geometry(constant)?;
    Some((env.vars.get(var)?, env.spatial.candidates(&geometry.envelope().buffer(reach))))
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

fn collect_group_vars(g: &GroupPattern, vars: &mut VarTable) {
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
    for_each_node(e, &mut |n| {
        if let Expression::Var(v) = n {
            vars.slot(v);
        }
    });
}

/// Visit `e` and every expression below it.
fn for_each_node(e: &Expression, f: &mut impl FnMut(&Expression)) {
    f(e);
    match e {
        Expression::Var(_) | Expression::Const(_) => {}
        Expression::Not(inner) | Expression::Neg(inner) => for_each_node(inner, f),
        Expression::Binary { left, right, .. } => {
            for_each_node(left, f);
            for_each_node(right, f);
        }
        Expression::Call { args, .. } => args.iter().for_each(|a| for_each_node(a, f)),
    }
}
