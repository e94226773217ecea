//! stSPARQL evaluation: one pipeline under every statement.
//!
//! SELECT, ASK, CONSTRUCT, `DELETE/INSERT … WHERE` and EXPLAIN all take
//! the same steps:
//!
//! 1. `prepare` catches the spatial sidecar up with the dictionary,
//!    collects the statement's variables, lowers every FILTER, BIND,
//!    projected, ORDER BY and aggregate expression once (slots for
//!    variables, function variants for names, constants with their
//!    numbers and geometries: `expr::lower`) and builds its one `Env`;
//! 2. `plan_group` orders each BGP run on a cardinality carried from
//!    step to step (E4) and recurses into nested groups, once per
//!    statement. A pattern's fanout is its constants' match count
//!    divided, per position a variable already binds, by that
//!    position's distinct values in the store's predicate statistics;
//!    a pattern sharing no bound variable multiplies the cardinality by
//!    its whole count (a cross product). Each pattern is tried as the
//!    seed, the rest follow greedily, and the order with the least sum
//!    of intermediate cardinalities wins. FILTERs do not cut runs: each
//!    runs right after the first step that leaves all its variables
//!    certainly bound and scales the estimate by `FILTER_SELECTIVITY`;
//!    with `optimize_bgp` off, patterns keep syntactic order and
//!    FILTERs run at the group's end. A spatial FILTER (a topological
//!    predicate, or `strdf:distance(a, b) < d`) is a spatial step on
//!    the sidecar — the one spatial access path (E3): when one argument
//!    is a constant geometry and a pattern of the run would bind the
//!    other, the search may take it as a join that probes the R-tree
//!    with the constant and binds the variable to the candidates the
//!    exact predicate keeps, costed at the sidecar's candidate
//!    estimate; otherwise it checks both bound arguments natively where
//!    the FILTER would run;
//! 3. `walk` executes that `Plan` as index nested-loop joins over
//!    the store's SPO/POS/OSP orderings, one binding at a time — or
//!    `render` prints it, which is all EXPLAIN is, so the two cannot
//!    disagree;
//! 4. `finish` applies SELECT's solution modifiers.
//!
//! [`crate::StrabonConfig`] toggles the join ordering and the spatial
//! join; both only ever change the plan, never the answer.

use crate::ast::*;
use crate::expr::{
    eval, eval_group, lower, order, Aggregate, Binding, Bound, Env, Func, Lowered, Operand,
    SpatialFn, SpatialTest, Value, VarTable,
};
use crate::spatial::window;
use crate::{Result, Solutions, Strabon, StrabonError};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use teleios_rdf::dictionary::TermId;
use teleios_rdf::term::Term;
use teleios_rdf::triple::TriplePattern;
use teleios_rdf::vocab;

/// Step 1 of every statement: catch the sidecar up with the store,
/// register the variables of the WHERE clause, then of a SELECT's
/// projection and ORDER BY, reject template variables the WHERE clause
/// cannot bind, lower the statement's expressions once, and build its
/// environment.
pub(crate) fn prepare<'a, 't>(
    engine: &'a mut Strabon,
    where_clause: &'a GroupPattern,
    select: Option<&SelectQuery>,
    templates: impl IntoIterator<Item = &'t TemplateTriple>,
) -> Result<Env<'a>> {
    engine.spatial.catch_up(&engine.store, &engine.pool());
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
    let pattern = lower_group(where_clause, &mut vars);
    let (mut projected, mut order_by) = (Vec::new(), Vec::new());
    if let Some(q) = select {
        if let Projection::Vars(items) = &q.projection {
            for item in items {
                if let ProjectionItem::Expr { expr, var } = item {
                    projected.push((vars.slot(var), lower(expr, &mut vars)));
                }
            }
        }
        order_by = q.order_by.iter().map(|k| (lower(&k.expr, &mut vars), k.desc)).collect();
    }
    Ok(Env {
        store: &engine.store,
        spatial: &engine.spatial,
        vars,
        config: engine.config,
        pattern,
        projected,
        order_by,
    })
}

/// A WHERE clause element with its expressions lowered.
pub(crate) enum Element<'q> {
    Triple(&'q PatternTriple),
    Filter(Lowered),
    Bind {
        expr: Lowered,
        slot: usize,
    },
    Optional(Vec<Element<'q>>),
    Union(Vec<Vec<Element<'q>>>),
    /// `shared`: the slots of the variables the body mentions.
    Minus {
        body: Vec<Element<'q>>,
        shared: Vec<usize>,
    },
    Exists {
        body: Vec<Element<'q>>,
        negated: bool,
    },
}

fn lower_group<'q>(g: &'q GroupPattern, vars: &mut VarTable) -> Vec<Element<'q>> {
    g.elements
        .iter()
        .map(|el| match el {
            PatternElement::Triple(t) => Element::Triple(t),
            PatternElement::Filter(e) => Element::Filter(lower(e, vars)),
            PatternElement::Bind { expr, var } => {
                Element::Bind { expr: lower(expr, vars), slot: vars.slot(var) }
            }
            PatternElement::Optional(inner) => Element::Optional(lower_group(inner, vars)),
            PatternElement::Union(branches) => {
                Element::Union(branches.iter().map(|b| lower_group(b, vars)).collect())
            }
            PatternElement::Minus(inner) => {
                let mut mentioned = VarTable::default();
                collect_group_vars(inner, &mut mentioned);
                let shared = mentioned.names().iter().map(|v| vars.slot(v)).collect();
                Element::Minus { body: lower_group(inner, vars), shared }
            }
            PatternElement::FilterExists { group: inner, negated } => {
                Element::Exists { body: lower_group(inner, vars), negated: *negated }
            }
        })
        .collect()
}

/// Steps 2 and 3: plan the WHERE clause, walk it from the one empty
/// solution.
pub(crate) fn solve(env: &Env<'_>) -> Vec<Binding> {
    let (plan, _) = plan_group(env, &env.pattern, &mut HashSet::new(), 1.0);
    walk(env, &plan, vec![env.vars.empty_binding()])
}

/// Evaluate a parsed query against the engine.
pub fn evaluate_query(engine: &mut Strabon, query: &Query) -> Result<Solutions> {
    match query {
        Query::Select(q) => {
            let env = prepare(engine, &q.where_clause, Some(q), [])?;
            let rows = solve(&env);
            finish(&env, q, rows)
        }
        Query::Ask(q) => {
            let env = prepare(engine, &q.where_clause, None, [])?;
            let found = !solve(&env).is_empty();
            Ok(Solutions { vars: vec!["ask".into()], rows: vec![vec![Some(Term::boolean(found))]] })
        }
        Query::Construct(_) => {
            Err(StrabonError::Eval("CONSTRUCT queries go through Strabon::construct".into()))
        }
    }
}

/// Evaluate a CONSTRUCT query: matched solutions instantiate the
/// template; duplicate triples collapse.
pub(crate) fn evaluate_construct(
    engine: &mut Strabon,
    q: &ConstructQuery,
) -> Result<Vec<(Term, Term, Term)>> {
    let env = prepare(engine, &q.where_clause, None, &q.template)?;
    let mut out: Vec<(Term, Term, Term)> = Vec::new();
    for b in &solve(&env) {
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
        || items
            .iter()
            .any(|i| matches!(i, ProjectionItem::Expr { expr, .. } if expr_has_aggregate(expr)));
    if aggregated {
        rows = aggregate(env, q, items, &rows)?;
    } else {
        for b in &mut rows {
            extend(env, b, |b, expr| eval(env, b, expr).map(Value::into_term));
        }
    }

    let keys = env.order_by.len();
    if keys > 0 {
        // Every row's keys in one list, borrowed from the rows; the sort
        // permutes row numbers.
        let sorted: Vec<usize> = {
            let key: Vec<Option<Value<'_>>> = rows
                .iter()
                .flat_map(|b| env.order_by.iter().map(move |(e, _)| eval(env, b, e)))
                .collect();
            let mut sorted: Vec<usize> = (0..rows.len()).collect();
            sorted.sort_by(|&x, &y| {
                let by_key = |(i, (_, desc)): (usize, &(Lowered, bool))| {
                    let ord = order(key[x * keys + i].as_ref(), key[y * keys + i].as_ref());
                    if *desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                };
                env.order_by
                    .iter()
                    .enumerate()
                    .map(by_key)
                    .find(|ord| ord.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            sorted
        };
        rows = sorted.into_iter().map(|i| std::mem::take(&mut rows[i])).collect();
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
        slots
            .iter()
            .map(|s| s.and_then(|s| b[s].as_ref()).map(|x| x.term(env.store).clone()))
            .collect()
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
fn extend(env: &Env<'_>, b: &mut Binding, value: impl Fn(&Binding, &Lowered) -> Option<Term>) {
    for (slot, expr) in &env.projected {
        b[*slot] = value(b, expr).map(Bound::Computed);
    }
}

fn expr_has_aggregate(e: &Expression) -> bool {
    let mut found = false;
    for_each_node(e, &mut |n| {
        found |= matches!(n, Expression::Call { name, .. } if Aggregate::named(name).is_some());
    });
    found
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
                return Err(StrabonError::Eval(format!(
                    "non-aggregated ?{v} must appear in GROUP BY"
                )));
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
        extend(env, &mut b, |_, expr| eval_group(env, expr, members).map(Value::into_term));
        b
    };
    Ok(groups.iter().map(collapse).collect())
}

/// Fraction of its input a FILTER is costed to keep. One constant for
/// every FILTER: the store keeps no value histograms, and a spatial
/// join is costed by its own candidate estimate instead.
const FILTER_SELECTIVITY: f64 = 0.25;

/// A planned group: what [`walk`] executes and [`render`] prints — the
/// steps in execution order, each with the cardinality estimated after
/// it.
type Plan<'q> = Vec<(Step<'q>, f64)>;

enum Step<'q> {
    /// One join of a BGP run.
    Scan(Scan<'q>),
    Filter(&'q Lowered),
    /// A spatial FILTER on the sidecar. As a join (`binds` the slot of
    /// the variable argument), the constant `test.args[probe]` probes
    /// the R-tree once and each solution is extended by every candidate
    /// the exact predicate keeps, in id order. As a check (`binds`
    /// `None`, or the slot already bound in a solution) the exact
    /// predicate tests both arguments.
    SpatialJoin {
        test: SpatialTest,
        probe: usize,
        binds: Option<usize>,
    },
    Optional(Plan<'q>),
    Union(Vec<Plan<'q>>),
    /// `shared`: the slots of the variables the body mentions.
    Minus {
        plan: Plan<'q>,
        shared: &'q [usize],
    },
    Bind {
        expr: &'q Lowered,
        slot: usize,
    },
    Exists {
        plan: Plan<'q>,
        negated: bool,
    },
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
    /// Under RDFS inference, `rdf:type`'s id: a match on it with a
    /// bound class also matches the class's subclasses.
    rdf_type: Option<TermId>,
}

impl Scan<'_> {
    fn binds(&self, slot: usize) -> bool {
        self.pos.contains(&Pos::Var(slot))
    }

    /// The slots of the pattern's variables.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.pos.iter().filter_map(|p| match p {
            Pos::Var(slot) => Some(*slot),
            _ => None,
        })
    }
}

/// A FILTER of the group not placed yet, with the slots it reads.
struct Waiting<'q> {
    expr: &'q Lowered,
    /// The FILTER as a sidecar test, when the index is on and it is one.
    spatial: Option<SpatialTest>,
    slots: Vec<usize>,
}

/// A step the join-order search may take next: a pattern of the run, or
/// a waiting spatial FILTER joined into the argument a pattern would
/// bind.
#[derive(Clone, Copy, PartialEq)]
enum Move {
    Scan(usize),
    Join(usize),
}

/// One group's planning state: the steps so far, the cardinality
/// carried after the last of them, the FILTERs not placed yet.
struct Group<'e, 'q> {
    env: &'e Env<'e>,
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
/// pattern variables count, and a BIND's target once every variable its
/// expression reads is bound; OPTIONAL, MINUS and
/// EXISTS bodies bind nothing for the steps after them, a UNION what
/// every branch binds. `card` is the estimated number of solutions
/// the group starts from; it is carried from step to step and the
/// estimate after the last one is returned with the plan.
fn plan_group<'e, 'q>(
    env: &'e Env<'e>,
    group: &'q [Element<'q>],
    bound: &mut HashSet<usize>,
    card: f64,
) -> (Plan<'q>, f64) {
    let mut g = Group {
        env,
        steps: Vec::with_capacity(group.len()),
        card,
        waiting: Vec::new(),
        binds_ahead: Vec::new(),
    };
    for el in group {
        match el {
            Element::Filter(expr) => {
                let spatial = if env.config.use_spatial_index { spatial_test(expr) } else { None };
                g.waiting.push(Waiting { expr, spatial, slots: expr.slots() });
            }
            Element::Bind { slot, .. } => g.binds_ahead.push(*slot),
            _ => {}
        }
    }
    g.release(bound);

    let mut run: Vec<&PatternTriple> = Vec::new();
    for el in group {
        match el {
            Element::Triple(t) => {
                run.push(t);
                continue;
            }
            // Placed by `release`: a FILTER does not cut the run.
            Element::Filter(_) => continue,
            _ => g.order_run(&mut run, bound),
        }
        let card = g.card;
        let (step, est) = match el {
            Element::Triple(_) | Element::Filter(_) => continue,
            Element::Optional(inner) => {
                let (plan, out) = plan_group(env, inner, &mut bound.clone(), card);
                (Step::Optional(plan), out.max(card))
            }
            Element::Union(branches) => {
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
            Element::Minus { body, shared } => {
                let (plan, _) = plan_group(env, body, &mut bound.clone(), card);
                (Step::Minus { plan, shared }, card)
            }
            Element::Bind { expr, slot } => {
                if let Some(i) = g.binds_ahead.iter().position(|s| s == slot) {
                    g.binds_ahead.remove(i);
                }
                // An unbound input leaves the target unbound.
                if expr.slots().iter().all(|s| bound.contains(s)) {
                    bound.insert(*slot);
                }
                (Step::Bind { expr, slot: *slot }, card)
            }
            Element::Exists { body: inner, negated } => {
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
    (g.steps, card)
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

    /// Place FILTER `w` where it stands: a spatial one checks its two
    /// bound arguments.
    fn place(&mut self, w: Waiting<'q>) {
        self.card *= FILTER_SELECTIVITY;
        let step = match w.spatial {
            Some(test) => Step::SpatialJoin { test, probe: 0, binds: None },
            None => Step::Filter(w.expr),
        };
        self.steps.push((step, self.card));
    }

    /// Move one BGP run into the steps in join order: syntactic, or
    /// (when `optimize_bgp`) the cheapest order [`Group::search`] finds,
    /// spatial joins included.
    fn order_run(&mut self, run: &mut Vec<&'q PatternTriple>, bound: &mut HashSet<usize>) {
        let run: Vec<Scan<'q>> = run.drain(..).map(|pattern| self.cost(pattern)).collect();
        let order: Vec<Move> = if self.env.config.optimize_bgp {
            self.search(&run, bound)
        } else {
            (0..run.len()).map(Move::Scan).collect()
        };
        // Placing FILTERs shifts the waiting list: a join names its own.
        let order: Vec<std::result::Result<usize, &'q Lowered>> = order
            .into_iter()
            .map(|m| match m {
                Move::Scan(i) => Ok(i),
                Move::Join(w) => Err(self.waiting[w].expr),
            })
            .collect();
        for m in order {
            match m {
                Ok(i) => {
                    self.card *= self.fanout(&run[i], bound);
                    bound.extend(run[i].slots());
                    self.steps.push((Step::Scan(run[i]), self.card));
                }
                Err(expr) => {
                    let Some(at) = self.waiting.iter().position(|w| std::ptr::eq(w.expr, expr))
                    else {
                        continue;
                    };
                    let Some((probe, target, est)) = self.join(&self.waiting[at], &run, bound)
                    else {
                        continue;
                    };
                    let Some(test) = self.waiting.remove(at).spatial else { continue };
                    self.card *= est;
                    bound.insert(target);
                    self.steps
                        .push((Step::SpatialJoin { test, probe, binds: Some(target) }, self.card));
                }
            }
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
        let rdf_type = env
            .config
            .rdfs_inference
            .then(|| env.store.id_of(&Term::iri(vocab::rdf::TYPE)))
            .flatten();
        Scan { pattern, pos, count, rdf_type }
    }

    /// Matches of `c` per binding under `bound`: the constants' count
    /// divided, for each position a variable already binds, by that
    /// position's distinct values in the predicate statistics. A
    /// pattern that shares no bound variable keeps its whole count: a
    /// cross product.
    fn fanout(&self, c: &Scan<'_>, bound: &HashSet<usize>) -> f64 {
        let store = self.env.store;
        let stats = store.predicate_stats(match c.pos[1] {
            Pos::Const(p) => Some(p),
            _ => None,
        });
        let distinct = [stats.subjects, store.predicates(), stats.objects];
        let mut range = c.count as f64;
        for (pos, distinct) in c.pos.iter().zip(distinct) {
            if matches!(pos, Pos::Var(slot) if bound.contains(slot)) {
                range /= distinct.max(1) as f64;
            }
        }
        range
    }

    /// Waiting FILTER `w` as a spatial join into the argument it leaves
    /// open: the constant probe argument, the open slot — which a
    /// pattern of `run` binds — and the candidates per binding: the
    /// sidecar's estimate for the probe, capped by the count of that
    /// pattern.
    fn join(
        &self,
        w: &Waiting<'_>,
        run: &[Scan<'_>],
        bound: &HashSet<usize>,
    ) -> Option<(usize, usize, f64)> {
        let test = w.spatial.as_ref()?;
        (0..2).find_map(|probe| {
            let (Operand::Const(g), Operand::Var(target)) =
                (&test.args[probe], &test.args[1 - probe])
            else {
                return None;
            };
            let cap = run.iter().filter(|c| c.binds(*target)).map(|c| c.count).min()?;
            let est = self.env.spatial.estimate(&g.envelope(), test.bound).min(cap as f64);
            (!bound.contains(target) && !self.binds_ahead.contains(target))
                .then_some((probe, *target, est))
        })
    }

    /// The cheapest join order of a run: each move tried as the seed,
    /// then greedily the move leaving the fewest solutions after it and
    /// the FILTERs it makes ready; the order kept binds every pattern
    /// with the least sum of intermediate cardinalities. Ties go to the
    /// earlier move — patterns as written, then joins — so the plan is
    /// deterministic.
    fn search(&self, run: &[Scan<'_>], bound: &HashSet<usize>) -> Vec<Move> {
        let moves: Vec<Move> =
            (0..run.len()).map(Move::Scan).chain((0..self.waiting.len()).map(Move::Join)).collect();
        let mut best: Option<(f64, Vec<Move>)> = None;
        for &seed in &moves {
            let mut bound = bound.clone();
            let mut placed = vec![false; self.waiting.len()];
            let mut total = 0.0;
            let mut order = Vec::with_capacity(run.len());
            let mut next = self.after(seed, run, &bound, self.card, &placed).map(|a| (seed, a));
            while let Some((m, (card, binds))) = next {
                total += card;
                order.push(m);
                bound.extend(binds);
                for (i, (w, placed)) in self.waiting.iter().zip(&mut placed).enumerate() {
                    *placed =
                        *placed || m == Move::Join(i) || self.ready(w, |s| bound.contains(&s));
                }
                next = moves
                    .iter()
                    .filter(|m| !order.contains(m))
                    .filter_map(|&m| Some((m, self.after(m, run, &bound, card, &placed)?)))
                    .min_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b));
            }
            let complete = order.iter().filter(|m| matches!(m, Move::Scan(_))).count() == run.len();
            if complete && best.as_ref().is_none_or(|(t, _)| total < *t) {
                best = Some((total, order));
            }
        }
        best.map(|(_, order)| order).unwrap_or_default()
    }

    /// Move `m` under `bound`: `card` after it and the waiting FILTERs
    /// it makes ready, and the slots it binds; `None` when it cannot
    /// run yet.
    fn after(
        &self,
        m: Move,
        run: &[Scan<'_>],
        bound: &HashSet<usize>,
        card: f64,
        placed: &[bool],
    ) -> Option<(f64, Vec<usize>)> {
        let (fanout, binds): (f64, Vec<usize>) = match m {
            Move::Scan(i) => (self.fanout(&run[i], bound), run[i].slots().collect()),
            Move::Join(w) if !placed[w] => {
                let (_, target, est) = self.join(&self.waiting[w], run, bound)?;
                (est, vec![target])
            }
            Move::Join(_) => return None,
        };
        let ready = (0..self.waiting.len())
            .filter(|&i| !placed[i] && m != Move::Join(i))
            .filter(|&i| self.ready(&self.waiting[i], |s| bound.contains(&s) || binds.contains(&s)))
            .count();
        Some((card * fanout * FILTER_SELECTIVITY.powi(ready as i32), binds))
    }
}

fn render_pattern(p: &PatternTriple) -> String {
    let part = |v: &VarOrTerm| match v {
        VarOrTerm::Var(name) => format!("?{name}"),
        VarOrTerm::Term(t) => t.to_string(),
    };
    format!("{} {} {}", part(&p.s), part(&p.p), part(&p.o))
}

/// Step 3: execute a plan over `bindings`. Scans, FILTERs and spatial
/// steps run over the whole solution list, in order; nested bodies run
/// once per solution, seeded with it.
fn walk(env: &Env<'_>, plan: &Plan<'_>, mut bindings: Vec<Binding>) -> Vec<Binding> {
    let seeded = |inner: &Plan<'_>, b: &Binding| walk(env, inner, vec![b.clone()]);
    for (step, _) in plan {
        if bindings.is_empty() {
            break;
        }
        match step {
            Step::Scan(scan) => {
                let mut out = Vec::with_capacity(bindings.len());
                for b in &bindings {
                    extend_with_pattern(env, scan, b, &mut out);
                }
                bindings = out;
            }
            // The error value rejects the solution.
            Step::Filter(expr) => {
                bindings.retain(|b| eval(env, b, expr).and_then(|v| v.ebv()) == Some(true))
            }
            Step::SpatialJoin { test, probe, binds } => {
                bindings = spatial_join(env, test, *probe, *binds, bindings)
            }
            Step::Optional(inner) => {
                bindings = bindings
                    .into_iter()
                    .flat_map(|b| {
                        let extended = seeded(inner, &b);
                        if extended.is_empty() {
                            vec![b]
                        } else {
                            extended
                        }
                    })
                    .collect();
            }
            Step::Union(branches) => {
                bindings = branches.iter().flat_map(|br| walk(env, br, bindings.clone())).collect();
            }
            // Keep solutions that share no variable with the MINUS
            // body (SPARQL's compatibility rule); drop those the
            // seeded body has a solution for.
            Step::Minus { plan: inner, shared } => bindings
                .retain(|b| !shared.iter().any(|&s| b[s].is_some()) || seeded(inner, b).is_empty()),
            Step::Bind { expr, slot } => {
                for b in &mut bindings {
                    let v = eval(env, b, expr).map(Value::into_term);
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
/// would walk: every step in execution order with the cardinality
/// estimated after it, nested bodies indented under their step.
pub(crate) fn explain_query(engine: &mut Strabon, query: &Query) -> Result<String> {
    let (where_clause, select) = match query {
        Query::Select(q) => (&q.where_clause, Some(q)),
        Query::Ask(q) => (&q.where_clause, None),
        Query::Construct(q) => (&q.where_clause, None),
    };
    let env = prepare(engine, where_clause, select, [])?;
    let (plan, _) = plan_group(&env, &env.pattern, &mut HashSet::new(), 1.0);
    let mut out = format!(
        "config: optimize_bgp={}, use_spatial_index={}, rdfs_inference={}\n",
        env.config.optimize_bgp, env.config.use_spatial_index, env.config.rdfs_inference
    );
    render(&env, &plan, "", &mut out);
    Ok(out)
}

fn render(env: &Env<'_>, plan: &Plan<'_>, indent: &str, out: &mut String) {
    let nested = format!("{indent}     ");
    for (i, (step, est)) in plan.iter().enumerate() {
        let (label, bodies) = match step {
            Step::Scan(scan) => (format!("match {}", render_pattern(scan.pattern)), &[][..]),
            Step::Filter(_) => ("filter".into(), &[][..]),
            Step::SpatialJoin { test, binds, .. } => (render_join(env, test, *binds), &[][..]),
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

/// `spatial join intersects(?g, a POLYGON), binding ?g`, or
/// `spatial check distance(?hg, ?sg) < 0.3` for two bound arguments.
fn render_join(env: &Env<'_>, test: &SpatialTest, binds: Option<usize>) -> String {
    let arg = |i: usize| match &test.args[i] {
        Operand::Var(slot) => format!("?{}", env.vars.names()[*slot]),
        Operand::Const(g) => format!("a {}", g.type_name()),
    };
    let predicate = match test.func {
        SpatialFn::Distance { inclusive } => {
            format!(
                "distance({}, {}) {} {}",
                arg(0),
                arg(1),
                if inclusive { "<=" } else { "<" },
                test.bound
            )
        }
        f => format!("{}({}, {})", format!("{f:?}").to_lowercase(), arg(0), arg(1)),
    };
    match binds {
        Some(slot) => format!("spatial join {predicate}, binding ?{}", env.vars.names()[slot]),
        None => format!("spatial check {predicate}"),
    }
}

/// Match one pattern under a binding, pushing extended bindings. A
/// slot a spatial join bound is a point lookup here, like a constant.
fn extend_with_pattern(env: &Env<'_>, scan: &Scan<'_>, binding: &Binding, out: &mut Vec<Binding>) {
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
    let (Some(s), Some(p), Some(o)) =
        (resolve(scan.pos[0]), resolve(scan.pos[1]), resolve(scan.pos[2]))
    else {
        return;
    };
    let tp = TriplePattern::new(s.ok(), p.ok(), o.ok());

    let emit = |t: teleios_rdf::triple::Triple, out: &mut Vec<Binding>| {
        let mut nb = binding.clone();
        for (pos, value) in [(s, t.s), (p, t.p), (o, t.o)] {
            let Err(slot) = pos else { continue };
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
    for t in env.store.match_pattern(&tp) {
        emit(t, out);
    }
}

/// Reflexive-transitive subclass closure of a class id via the
/// `rdfs:subClassOf` triples in the store (downward: all subclasses).
fn subclass_closure(store: &teleios_rdf::store::TripleStore, class: TermId) -> Vec<TermId> {
    let Some(sub_p) = store.id_of(&Term::iri(vocab::rdfs::SUB_CLASS_OF)) else {
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

/// A spatial step over `bindings` (see [`Step::SpatialJoin`]), inline.
/// The exact predicate reads the sidecar's parsed geometries and
/// compares a distance as an `f64`.
fn spatial_join(
    env: &Env<'_>,
    test: &SpatialTest,
    probe: usize,
    binds: Option<usize>,
    bindings: Vec<Binding>,
) -> Vec<Binding> {
    // A join's probe is a constant: its survivors, in id order, are the
    // same for every solution.
    let survivors: Vec<TermId> = match (binds, &test.args[probe]) {
        (Some(_), Operand::Const(p)) => env
            .spatial
            .candidates(&window(&p.envelope(), test.bound))
            .into_iter()
            .filter(|&id| {
                let Some(g) = env.spatial.geometry(id) else { return false };
                let (a0, a1) = if probe == 0 { (&**p, &*g) } else { (&*g, &**p) };
                test.func.holds(a0, a1, test.bound)
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut out = Vec::with_capacity(bindings.len());
    for b in bindings {
        match binds {
            Some(slot) if b[slot].is_none() => out.extend(survivors.iter().map(|&id| {
                let mut nb = b.clone();
                nb[slot] = Some(Bound::Id(id));
                nb
            })),
            _ if test.holds(env, &b) => out.push(b),
            _ => {}
        }
    }
    out
}

/// Recognize a spatial FILTER the sidecar serves: a topological
/// predicate, or `strdf:distance(a, b) < d` (`<=`, or `d >` / `d >=`
/// it) with a finite numeric `d`, over two arguments that are each a
/// variable or a constant geometry, one at least a variable.
fn spatial_test(filter: &Lowered) -> Option<SpatialTest> {
    let (call, limit) = match filter {
        Lowered::Binary(op @ (BinaryOp::Lt | BinaryOp::Le), left, right) => {
            (&**left, Some((*op, &**right)))
        }
        Lowered::Binary(op @ (BinaryOp::Gt | BinaryOp::Ge), left, right) => {
            (&**right, Some((*op, &**left)))
        }
        call => (call, None),
    };
    let Lowered::Call(f, args) = call else { return None };
    let (func, bound) = match (f, limit) {
        (Func::Topological(f), None) => (*f, 0.0),
        (Func::Distance, Some((op, d))) => {
            let inclusive = matches!(op, BinaryOp::Le | BinaryOp::Ge);
            (SpatialFn::Distance { inclusive }, d.number().filter(|d| d.is_finite())?)
        }
        _ => return None,
    };
    let [a, b] = args.as_slice() else { return None };
    let args = [a.operand()?, b.operand()?];
    args.iter().any(|a| matches!(a, Operand::Var(_))).then_some(SpatialTest { func, args, bound })
}

// --- variable collection ----------------------------------------------

fn collect_projection_vars(p: &Projection, vars: &mut VarTable) {
    let Projection::Vars(items) = p else { return };
    for i in items {
        if let ProjectionItem::Expr { expr, .. } = i {
            collect_expr_vars(expr, vars);
        }
        let (ProjectionItem::Var(var) | ProjectionItem::Expr { var, .. }) = i;
        vars.slot(var);
    }
}

fn collect_group_vars(g: &GroupPattern, vars: &mut VarTable) {
    for_each_element(g, &mut |el| match el {
        PatternElement::Triple(t) => {
            for name in [&t.s, &t.p, &t.o].into_iter().filter_map(VarOrTerm::var) {
                vars.slot(name);
            }
        }
        PatternElement::Filter(e) => collect_expr_vars(e, vars),
        PatternElement::Bind { expr, var } => {
            collect_expr_vars(expr, vars);
            vars.slot(var);
        }
        _ => {}
    });
}

/// Visit the elements of `g` in order, each nested group's right after
/// the element holding it.
fn for_each_element(g: &GroupPattern, f: &mut impl FnMut(&PatternElement)) {
    for el in &g.elements {
        f(el);
        match el {
            PatternElement::Optional(inner)
            | PatternElement::Minus(inner)
            | PatternElement::FilterExists { group: inner, .. } => for_each_element(inner, f),
            PatternElement::Union(branches) => branches.iter().for_each(|b| for_each_element(b, f)),
            _ => {}
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
