//! Query planner: compiles a parsed [`Select`] onto the executor.
//!
//! The planner performs the optimizations the paper attributes to the
//! DBMS: WHERE conjuncts that equate columns of two tables become hash
//! joins (greedy join-graph traversal), the remaining conjuncts one
//! column-at-a-time selection, and everything else lowers to the
//! generic operators in [`crate::exec`].

use crate::error::DbError;
use crate::exec::{self, AggSpec, Chunk};
use crate::sql::ast::*;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// Provides table lookup to the planner.
pub trait TableProvider {
    /// Fetch a table snapshot by (case-insensitive) name.
    fn table(&self, name: &str) -> Result<Table>;
}

/// Execute a SELECT against a table provider.
pub fn execute_select(provider: &dyn TableProvider, select: &Select) -> Result<Chunk> {
    // 1. Load base tables (FROM list plus explicit JOINs).
    struct Source {
        chunk: Chunk,
        /// ON condition for explicit joins.
        on: Option<Expr>,
    }
    let mut sources: Vec<Source> = Vec::new();
    for tr in &select.from {
        let table = provider.table(&tr.name)?;
        let alias = tr.alias.clone().unwrap_or_else(|| tr.name.clone());
        sources.push(Source { chunk: Chunk::from_table(&table, &alias), on: None });
    }
    for (tr, on) in &select.joins {
        let table = provider.table(&tr.name)?;
        let alias = tr.alias.clone().unwrap_or_else(|| tr.name.clone());
        sources.push(Source { chunk: Chunk::from_table(&table, &alias), on: Some(on.clone()) });
    }

    // 2. Split the WHERE clause into conjuncts; fold in JOIN ON conditions.
    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }
    for s in &sources {
        if let Some(on) = &s.on {
            split_conjuncts(on, &mut conjuncts);
        }
    }

    // 3. Greedy join order: start from the first source, repeatedly attach
    //    a source connected through an equi-conjunct via hash join; fall
    //    back to a cartesian product when the join graph is disconnected.
    let mut remaining: Vec<Source> = sources;
    let mut current = remaining.remove(0).chunk;
    while !remaining.is_empty() {
        let mut attached = false;
        'outer: for idx in 0..remaining.len() {
            for (ci, c) in conjuncts.iter().enumerate() {
                if let Some((lk, rk)) = as_equi_join_keys(c, &current, &remaining[idx].chunk) {
                    let rhs = remaining.remove(idx);
                    current = exec::hash_join(&current, &rhs.chunk, &lk, &rk)?;
                    conjuncts.remove(ci);
                    attached = true;
                    break 'outer;
                }
            }
        }
        if !attached {
            // Cartesian product with the next source.
            let rhs = remaining.remove(0);
            current = cartesian(&current, &rhs.chunk);
        }
    }

    // 4. Apply remaining conjuncts as a filter.
    if let Some(pred) = conjuncts.into_iter().reduce(|a, b| Expr::binary(BinOp::And, a, b)) {
        current = exec::filter(&current, &pred)?;
    }

    // 5. Aggregate or plain projection.
    let has_aggregates = select.items.iter().any(|i| matches!(i, SelectItem::Aggregate { .. }))
        || !select.group_by.is_empty()
        || select.having.is_some();

    let mut out = if has_aggregates {
        plan_aggregate(select, &current)?
    } else {
        plan_projection(select, &current)?
    };

    if select.distinct {
        out = exec::distinct(&out);
    }
    if let Some(n) = select.limit {
        out = exec::limit(&out, n);
    }
    Ok(out)
}

fn plan_projection(select: &Select, input: &Chunk) -> Result<Chunk> {
    // Expand the projection list.
    let mut exprs: Vec<(Expr, String)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for name in input.names() {
                    exprs.push((Expr::Column(name.clone()), display_name(input, name)));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column(c) => display_name(input, c),
                    other => expr_label(other),
                });
                exprs.push((expr.clone(), name));
            }
            SelectItem::Aggregate { .. } => unreachable!("handled by plan_aggregate"),
        }
    }

    if select.order_by.is_empty() {
        return exec::project(input, &exprs);
    }

    // Sort over an extended chunk so ORDER BY can reference both original
    // columns and projection aliases.
    let aliased: Vec<(Expr, String)> =
        exprs.iter().map(|(e, name)| (e.clone(), format!("__proj.{name}"))).collect();
    let extended = input.zip_concat(&exec::project(input, &aliased)?);
    let keys: Vec<(Expr, bool)> = select
        .order_by
        .iter()
        .map(|k| {
            // Prefer a projection alias match.
            let expr = match &k.expr {
                Expr::Column(c) => {
                    if exprs.iter().any(|(_, n)| n.eq_ignore_ascii_case(c)) {
                        Expr::Column(format!("__proj.{c}"))
                    } else {
                        k.expr.clone()
                    }
                }
                other => other.clone(),
            };
            (expr, k.desc)
        })
        .collect();
    let sorted = exec::sort(&extended, &keys)?;
    // Cut back to the projected columns.
    let proj_exprs: Vec<(Expr, String)> =
        exprs.iter().map(|(_, n)| (Expr::Column(format!("__proj.{n}")), n.clone())).collect();
    exec::project(&sorted, &proj_exprs)
}

fn plan_aggregate(select: &Select, input: &Chunk) -> Result<Chunk> {
    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut out_cols: Vec<(Expr, String)> = Vec::new(); // over the agg chunk

    // Group-by output columns come first, named as in `exec::aggregate`.
    let group_names: Vec<String> = select
        .group_by
        .iter()
        .enumerate()
        .map(|(k, e)| match e {
            Expr::Column(c) => c.clone(),
            _ => format!("group_{k}"),
        })
        .collect();

    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                return Err(DbError::Execution(
                    "SELECT * cannot be combined with aggregation".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                // Must be a group-by expression.
                let pos = select.group_by.iter().position(|g| g == expr).ok_or_else(|| {
                    DbError::Execution(format!(
                        "non-aggregated expression {} must appear in GROUP BY",
                        expr_label(expr)
                    ))
                })?;
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column(c) => display_name(input, c),
                    other => expr_label(other),
                });
                out_cols.push((Expr::Column(group_names[pos].clone()), name));
            }
            SelectItem::Aggregate { func, expr, alias } => {
                let agg_name = format!("__agg{}", aggs.len());
                aggs.push(AggSpec { func: *func, expr: expr.clone(), name: agg_name.clone() });
                let name = alias.clone().unwrap_or_else(|| agg_label(*func, expr));
                out_cols.push((Expr::Column(agg_name), name));
            }
        }
    }

    // HAVING and ORDER BY may name aggregates the SELECT list does not:
    // those are computed as hidden columns. An ORDER BY alias names its
    // output column.
    let having = select.having.as_ref().map(|h| rewrite_aggregates(h, &mut aggs));
    let keys: Vec<(Expr, bool)> = select
        .order_by
        .iter()
        .map(|k| {
            let alias = match &k.expr {
                Expr::Column(c) => out_cols.iter().find(|(_, n)| n.eq_ignore_ascii_case(c)),
                _ => None,
            };
            (
                alias.map_or_else(|| rewrite_aggregates(&k.expr, &mut aggs), |(e, _)| e.clone()),
                k.desc,
            )
        })
        .collect();

    let mut agg_chunk = exec::aggregate(input, &select.group_by, &aggs)?;
    if let Some(h) = having {
        agg_chunk = exec::filter(&agg_chunk, &h)?;
    }
    if !keys.is_empty() {
        agg_chunk = exec::sort(&agg_chunk, &keys)?;
    }
    exec::project(&agg_chunk, &out_cols)
}

/// Replace aggregate calls inside a HAVING or ORDER BY expression with
/// references to (possibly new, hidden) aggregate output columns.
fn rewrite_aggregates(expr: &Expr, aggs: &mut Vec<AggSpec>) -> Expr {
    let mut rewrite = |e: &Expr| rewrite_aggregates(e, aggs);
    match expr {
        Expr::Func { name, args } => {
            let Some(func) = AggFunc::parse(name) else {
                return Expr::Func { name: name.clone(), args: args.iter().map(rewrite).collect() };
            };
            // `COUNT(*)` parses as `Func("COUNT", [Column("*")])`.
            let arg = args.first().filter(|a| !matches!(a, Expr::Column(c) if c == "*")).cloned();
            let name = match aggs.iter().find(|a| a.func == func && a.expr == arg) {
                Some(a) => a.name.clone(),
                None => {
                    let n = format!("__agg{}", aggs.len());
                    aggs.push(AggSpec { func, expr: arg, name: n.clone() });
                    n
                }
            };
            Expr::Column(name)
        }
        Expr::Binary { op, left, right } => Expr::binary(*op, rewrite(left), rewrite(right)),
        Expr::Case { arms, otherwise } => Expr::Case {
            arms: arms.iter().map(|(c, r)| (rewrite(c), rewrite(r))).collect(),
            otherwise: otherwise.as_deref().map(|e| Box::new(rewrite(e))),
        },
        Expr::Not(e) => Expr::Not(Box::new(rewrite(e))),
        Expr::Neg(e) => Expr::Neg(Box::new(rewrite(e))),
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(rewrite(expr)), negated: *negated }
        }
        Expr::Like { expr, pattern } => {
            Expr::Like { expr: Box::new(rewrite(expr)), pattern: pattern.clone() }
        }
        Expr::Literal(_) | Expr::Column(_) => expr.clone(),
    }
}

/// Split an expression tree into AND-ed conjuncts.
fn split_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// If `expr` is `colA = colB` with one side resolvable in `left` and the
/// other in `right`, return the (left_key, right_key) pair.
fn as_equi_join_keys(expr: &Expr, left: &Chunk, right: &Chunk) -> Option<(Expr, Expr)> {
    let Expr::Binary { op: BinOp::Eq, left: l, right: r } = expr else {
        return None;
    };
    let (Expr::Column(cl), Expr::Column(cr)) = (&**l, &**r) else {
        return None;
    };
    let l_in_left = left.resolve(cl).is_ok();
    let l_in_right = right.resolve(cl).is_ok();
    let r_in_left = left.resolve(cr).is_ok();
    let r_in_right = right.resolve(cr).is_ok();
    if l_in_left && r_in_right && !l_in_right {
        Some((Expr::Column(cl.clone()), Expr::Column(cr.clone())))
    } else if r_in_left && l_in_right && !r_in_right {
        Some((Expr::Column(cr.clone()), Expr::Column(cl.clone())))
    } else {
        None
    }
}

fn cartesian(left: &Chunk, right: &Chunk) -> Chunk {
    let nl = left.num_rows();
    let nr = right.num_rows();
    let mut lrows = Vec::with_capacity(nl * nr);
    let mut rrows = Vec::with_capacity(nl * nr);
    for i in 0..nl {
        for j in 0..nr {
            lrows.push(i as u32);
            rrows.push(j as u32);
        }
    }
    left.take(&lrows).zip_concat(&right.take(&rrows))
}

/// Strip the qualifier when the bare name is unambiguous in the chunk.
fn display_name(chunk: &Chunk, qualified: &str) -> String {
    let bare = qualified.rsplit('.').next().unwrap_or(qualified);
    let count = chunk
        .names()
        .iter()
        .filter(|n| n.rsplit('.').next().is_some_and(|l| l.eq_ignore_ascii_case(bare)))
        .count();
    if count <= 1 {
        bare.to_string()
    } else {
        qualified.to_string()
    }
}

fn expr_label(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.clone(),
        Expr::Literal(Value::Str(s)) => s.clone(),
        Expr::Literal(v) => v.to_string(),
        Expr::Func { name, .. } => name.to_lowercase(),
        _ => "expr".to_string(),
    }
}

fn agg_label(func: AggFunc, expr: &Option<Expr>) -> String {
    let f = match func {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::StdDev => "stddev",
    };
    match expr {
        None => f.to_string(),
        Some(Expr::Column(c)) if c != "*" => format!("{f}_{}", c.rsplit('.').next().unwrap_or(c)),
        _ => f.to_string(),
    }
}
