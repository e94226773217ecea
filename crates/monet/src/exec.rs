//! Relational execution engine.
//!
//! Operators work on [`Chunk`]s — named bundles of equal-length columns.
//! Every WHERE (SELECT's [`filter`], UPDATE's and DELETE's) picks its
//! rows through one `select_rows`: conjunctions of `column op constant`
//! compile to [`Column::select`] candidate-list passes, exactly the
//! MonetDB style, and any predicate the fast path cannot express is
//! evaluated row at a time. A pure row-at-a-time reference filter,
//! [`filter_rowwise`], stays public for the ablation benchmark (E6/E4)
//! and the SQL differential. Aggregates have one path as well:
//! [`aggregate`] groups the rows and `eval_aggregate` folds each group,
//! SUM with the same checked addition as `+`.

use crate::column::{CmpOp, Column, RowId, PAR_ROW_THRESHOLD};
use crate::error::DbError;
use crate::sql::ast::{AggFunc, BinOp, Expr};
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::Result;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use teleios_exec::{concat, WorkerPool};

/// A bundle of equal-length named columns flowing between operators.
#[derive(Debug, Clone)]
pub struct Chunk {
    names: Vec<String>,
    cols: Vec<Column>,
}

impl Chunk {
    /// Chunk from names and columns (must be equal length).
    pub fn new(names: Vec<String>, cols: Vec<Column>) -> Chunk {
        debug_assert_eq!(names.len(), cols.len());
        debug_assert!(cols.windows(2).all(|w| w[0].len() == w[1].len()));
        Chunk { names, cols }
    }

    /// Materialize a full table, qualifying names as `alias.column` and
    /// also exposing the bare column name when unambiguous.
    pub fn from_table(table: &Table, alias: &str) -> Chunk {
        let names = table
            .schema()
            .iter()
            .map(|d| format!("{alias}.{}", d.name))
            .collect();
        let cols = (0..table.num_columns()).map(|i| table.column(i).clone()).collect();
        Chunk { names, cols }
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.cols.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub(crate) fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Column by position.
    pub(crate) fn column(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// Resolve a (possibly qualified) column reference.
    ///
    /// `a.x` matches exactly; `x` matches any `*.x` provided it is
    /// unambiguous.
    pub(crate) fn resolve(&self, name: &str) -> Result<usize> {
        if let Some(i) = self.names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
            return Ok(i);
        }
        let suffix_matches: Vec<usize> = self
            .names
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.rsplit('.')
                    .next()
                    .is_some_and(|last| last.eq_ignore_ascii_case(name))
            })
            .map(|(i, _)| i)
            .collect();
        match suffix_matches.len() {
            1 => Ok(suffix_matches[0]),
            0 => Err(DbError::UnknownColumn(name.to_string())),
            _ => Err(DbError::Execution(format!("ambiguous column reference: {name}"))),
        }
    }

    /// Read one row as values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Keep only the rows in `rids` (gather).
    pub(crate) fn take(&self, rids: &[RowId]) -> Chunk {
        Chunk {
            names: self.names.clone(),
            cols: self.cols.iter().map(|c| c.gather(rids)).collect(),
        }
    }

    /// Cartesian-free concatenation of two equal-row chunks (for joins).
    fn zip_concat(&self, other: &Chunk) -> Chunk {
        let mut names = self.names.clone();
        names.extend(other.names.iter().cloned());
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Chunk { names, cols }
    }
}

// ---------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------

/// Evaluate an expression for one row of a chunk.
pub(crate) fn eval_expr(chunk: &Chunk, row: usize, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let i = chunk.resolve(name)?;
            Ok(chunk.column(i).get(row))
        }
        Expr::Binary { op, left, right } => {
            let l = eval_expr(chunk, row, left)?;
            // Short-circuit AND/OR with SQL three-valued logic.
            match op {
                BinOp::And => {
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_expr(chunk, row, right)?;
                    return Ok(sql_and(&l, &r));
                }
                BinOp::Or => {
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_expr(chunk, row, right)?;
                    return Ok(sql_or(&l, &r));
                }
                _ => {}
            }
            let r = eval_expr(chunk, row, right)?;
            eval_binary(*op, &l, &r)
        }
        Expr::Neg(e) => match eval_expr(chunk, row, e)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            other => Err(DbError::TypeMismatch {
                expected: "numeric".into(),
                found: other.data_type().map_or("NULL".into(), |t| t.to_string()),
            }),
        },
        Expr::Not(e) => match eval_expr(chunk, row, e)? {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(DbError::TypeMismatch {
                expected: "BOOL".into(),
                found: other.data_type().map_or("NULL".into(), |t| t.to_string()),
            }),
        },
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(chunk, row, expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Between { expr, lo, hi } => {
            let v = eval_expr(chunk, row, expr)?;
            let l = eval_expr(chunk, row, lo)?;
            let h = eval_expr(chunk, row, hi)?;
            if v.is_null() || l.is_null() || h.is_null() {
                return Ok(Value::Null);
            }
            let ge = v.sql_cmp(&l).is_some_and(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&h).is_some_and(|o| o != std::cmp::Ordering::Greater);
            Ok(Value::Bool(ge && le))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_expr(chunk, row, expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let w = eval_expr(chunk, row, item)?;
                if !w.is_null() && v.sql_cmp(&w) == Some(std::cmp::Ordering::Equal) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Like { expr, pattern } => {
            let v = eval_expr(chunk, row, expr)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
                other => Err(DbError::TypeMismatch {
                    expected: "STRING".into(),
                    found: other.data_type().map_or("NULL".into(), |t| t.to_string()),
                }),
            }
        }
        Expr::Func { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_expr(chunk, row, a))
                .collect::<Result<_>>()?;
            eval_scalar_func(name, &vals)
        }
    }
}

fn sql_and(a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn sql_or(a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Evaluate a non-logical binary operator on two values.
pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let Some(ord) = l.sql_cmp(r) else {
                // NaN against a number is unknown, as in `Column::select`:
                // the row fails the comparison either way round.
                if l.as_f64().is_some() && r.as_f64().is_some() {
                    return Ok(Value::Null);
                }
                return Err(DbError::TypeMismatch {
                    expected: "comparable values".into(),
                    found: format!("{:?} vs {:?}", l.data_type(), r.data_type()),
                });
            };
            let cmp = match op {
                Eq => CmpOp::Eq,
                Ne => CmpOp::Ne,
                Lt => CmpOp::Lt,
                Le => CmpOp::Le,
                Gt => CmpOp::Gt,
                Ge => CmpOp::Ge,
                _ => unreachable!(),
            };
            Ok(Value::Bool(cmp.matches(ord)))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // String concatenation via '+'.
            if op == Add {
                if let (Value::Str(a), Value::Str(b)) = (l, r) {
                    return Ok(Value::Str(format!("{a}{b}")));
                }
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => {
                    if matches!(op, Div | Mod) && *b == 0 {
                        return Err(DbError::Execution("division by zero".into()));
                    }
                    let exact = match op {
                        Add => a.checked_add(*b),
                        Sub => a.checked_sub(*b),
                        Mul => a.checked_mul(*b),
                        Div => a.checked_div(*b),
                        _ => a.checked_rem(*b),
                    };
                    // A result outside i64 is computed in doubles, as
                    // stSPARQL and SciQL compute it, instead of wrapping
                    // (`1 + 2 * x < 7` must not hold for a huge `x`).
                    match exact {
                        Some(v) => Ok(Value::Int(v)),
                        None => eval_binary(op, &Value::Double(*a as f64), &Value::Double(*b as f64)),
                    }
                }
                _ => {
                    let a = l.as_f64().ok_or_else(|| DbError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{l}"),
                    })?;
                    let b = r.as_f64().ok_or_else(|| DbError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{r}"),
                    })?;
                    Ok(Value::Double(match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => a / b,
                        Mod => a % b,
                        _ => unreachable!(),
                    }))
                }
            }
        }
        And | Or => Ok(if op == And { sql_and(l, r) } else { sql_or(l, r) }),
    }
}

fn eval_scalar_func(name: &str, args: &[Value]) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(DbError::Execution(format!("{name} expects {n} argument(s), got {}", args.len())))
        }
    };
    match name {
        "ABS" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(i.abs()),
                Value::Double(d) => Value::Double(d.abs()),
                other => {
                    return Err(DbError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{other}"),
                    })
                }
            })
        }
        "SQRT" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => {
                    let x = v.as_f64().ok_or_else(|| DbError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{v}"),
                    })?;
                    Ok(Value::Double(x.sqrt()))
                }
            }
        }
        "FLOOR" | "CEIL" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => {
                    let x = v.as_f64().ok_or_else(|| DbError::TypeMismatch {
                        expected: "numeric".into(),
                        found: format!("{v}"),
                    })?;
                    Ok(Value::Double(if name == "FLOOR" { x.floor() } else { x.ceil() }))
                }
            }
        }
        "LOWER" | "UPPER" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(if name == "LOWER" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                other => Err(DbError::TypeMismatch {
                    expected: "STRING".into(),
                    found: format!("{other}"),
                }),
            }
        }
        "LENGTH" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(DbError::TypeMismatch {
                    expected: "STRING".into(),
                    found: format!("{other}"),
                }),
            }
        }
        other => Err(DbError::Execution(format!("unknown function: {other}"))),
    }
}

/// SQL LIKE with `%` (any run) and `_` (single char), case-sensitive.
///
/// Two pointers; on a mismatch the last `%` takes one more character
/// and matching resumes after it. Only the last `%` ever needs to
/// retry, so the walk is O(|s|·|pattern|) however many `%` there are.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut i, mut j) = (0, 0);
    // (pattern index of the last `%`, text index it has consumed up to).
    let mut retry: Option<(usize, usize)> = None;
    while i < s.len() {
        match p.get(j) {
            Some('%') => {
                retry = Some((j, i));
                j += 1;
            }
            Some(&c) if c == '_' || c == s[i] => {
                i += 1;
                j += 1;
            }
            _ => match retry {
                Some((star, consumed)) => {
                    retry = Some((star, consumed + 1));
                    i = consumed + 1;
                    j = star + 1;
                }
                None => return false,
            },
        }
    }
    p[j..].iter().all(|&c| c == '%')
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

/// Try to compile a predicate into candidate-list passes.
///
/// Handles conjunctions of `col op literal` (either operand order); returns
/// `None` when any conjunct is more complex.
fn compile_conjuncts(expr: &Expr, out: &mut Vec<(String, CmpOp, Value)>) -> bool {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            compile_conjuncts(left, out) && compile_conjuncts(right, out)
        }
        Expr::Binary { op, left, right } => {
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                _ => return false,
            };
            match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => {
                    out.push((c.clone(), cmp, v.clone()));
                    true
                }
                (Expr::Literal(v), Expr::Column(c)) => {
                    // Flip the comparison: `5 < x` becomes `x > 5`.
                    let flipped = match cmp {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => other,
                    };
                    out.push((c.clone(), flipped, v.clone()));
                    true
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Row ids of `chunk` where `predicate` holds, ascending: the one
/// selection under SELECT's `filter` and the WHERE of UPDATE and DELETE.
/// A conjunction of simple comparisons runs as columnar
/// candidate-narrowing passes, each a [`Column::select`] on `pool`, so
/// the result is identical at every pool size; any other predicate is
/// evaluated row at a time.
pub(crate) fn select_rows(
    pool: &WorkerPool,
    chunk: &Chunk,
    predicate: &Expr,
) -> Result<Vec<RowId>> {
    let mut conjuncts = Vec::new();
    if !compile_conjuncts(predicate, &mut conjuncts) || conjuncts.is_empty() {
        return rows_where(chunk, predicate);
    }
    let mut cands: Option<Vec<RowId>> = None;
    for (col_name, op, value) in &conjuncts {
        let idx = chunk.resolve(col_name)?;
        let selected = chunk.column(idx).select(*op, value, cands.as_deref(), pool)?;
        if selected.is_empty() {
            return Ok(selected);
        }
        cands = Some(selected);
    }
    Ok(cands.unwrap_or_default())
}

/// Filter a chunk through `select_rows`.
pub fn filter(pool: &WorkerPool, chunk: &Chunk, predicate: &Expr) -> Result<Chunk> {
    Ok(chunk.take(&select_rows(pool, chunk, predicate)?))
}

/// Reference row-at-a-time filter (used as the E4/E6 ablation baseline and
/// by the SQL differential).
pub fn filter_rowwise(chunk: &Chunk, predicate: &Expr) -> Result<Chunk> {
    Ok(chunk.take(&rows_where(chunk, predicate)?))
}

fn rows_where(chunk: &Chunk, predicate: &Expr) -> Result<Vec<RowId>> {
    let mut keep = Vec::new();
    for i in 0..chunk.num_rows() {
        if eval_expr(chunk, i, predicate)? == Value::Bool(true) {
            keep.push(i as RowId);
        }
    }
    Ok(keep)
}

/// The column type of computed values: the first non-NULL value's,
/// widened to DOUBLE when an INT result sits beside a DOUBLE one (an
/// integer overflow that `+`, `*` or SUM promoted in some rows only).
fn result_type<'a>(values: impl Iterator<Item = &'a Value>) -> Option<DataType> {
    let mut ty = None;
    for v in values {
        match (ty, v.data_type()) {
            (None, found) => ty = found,
            (Some(DataType::Int), Some(DataType::Double)) => return Some(DataType::Double),
            _ => {}
        }
    }
    ty
}

/// Project expressions into a new chunk.
pub(crate) fn project(chunk: &Chunk, exprs: &[(Expr, String)]) -> Result<Chunk> {
    let mut names = Vec::with_capacity(exprs.len());
    let mut cols: Vec<Column> = Vec::with_capacity(exprs.len());
    for (expr, name) in exprs {
        names.push(name.clone());
        // Fast path: direct column reference.
        if let Expr::Column(c) = expr {
            let idx = chunk.resolve(c)?;
            cols.push(chunk.column(idx).clone());
            continue;
        }
        // General path: evaluate per row, then type the column from
        // the results (default DOUBLE).
        let mut values = Vec::with_capacity(chunk.num_rows());
        for i in 0..chunk.num_rows() {
            values.push(eval_expr(chunk, i, expr)?);
        }
        let ty = result_type(values.iter()).unwrap_or(DataType::Double);
        let mut col = Column::new(ty);
        for v in values {
            let v = if v.is_null() { v } else { v.coerce(ty).unwrap_or(Value::Null) };
            col.push(v)?;
        }
        cols.push(col);
    }
    Ok(Chunk::new(names, cols))
}

/// Hash equi-join of two chunks on key expressions.
///
/// Both phases run over `pool`'s ordered morsels (a single inline one
/// under [`PAR_ROW_THRESHOLD`] rows or at one thread) and are
/// bit-identical at every pool size: each build morsel hash-partitions
/// its keys into local maps, and the per-partition maps merge in
/// parallel — each partition merging its morsels in morsel order, so
/// every key's RowId list stays ascending. Probe morsels emit
/// `(build, probe)` row pairs that concatenate in morsel order (the
/// row order of the probe side). The partition count never changes
/// which rows match, only which of the disjoint maps holds a key.
pub fn hash_join(
    pool: &WorkerPool,
    left: &Chunk,
    right: &Chunk,
    left_key: &Expr,
    right_key: &Expr,
) -> Result<Chunk> {
    // Build on the smaller side.
    let (build, probe, build_key, probe_key, build_is_left) =
        if left.num_rows() <= right.num_rows() {
            (left, right, left_key, right_key, true)
        } else {
            (right, left, right_key, left_key, false)
        };

    // Each morsel hash-partitions its keys into `nparts` local maps
    // (one partition per morsel, so the merge below has a task each).
    type KeyMap = HashMap<HashableValue, Vec<RowId>>;
    let build_morsels = pool.morsels_for(build.num_rows(), PAR_ROW_THRESHOLD, 1);
    let nparts = build_morsels.len();
    let partials: Vec<Result<Vec<KeyMap>>> = pool.run(
        build_morsels
            .into_iter()
            .map(|r| {
                move || {
                    let mut local: Vec<KeyMap> = (0..nparts).map(|_| HashMap::new()).collect();
                    for i in r {
                        let k = eval_expr(build, i, build_key)?;
                        if k.is_null() {
                            continue;
                        }
                        let hk = HashableValue(k);
                        let p = partition_of(&hk, nparts);
                        local[p].entry(hk).or_default().push(i as RowId);
                    }
                    Ok(local)
                }
            })
            .collect(),
    );
    // Transpose [morsel][partition] -> per-partition morsel lists,
    // preserving morsel order within each partition.
    let mut by_part: Vec<Vec<KeyMap>> = (0..nparts).map(|_| Vec::new()).collect();
    for partial in partials {
        for (p, map) in partial?.into_iter().enumerate() {
            by_part[p].push(map);
        }
    }
    // Merge each partition independently, one task per partition:
    // skewed key distributions make partition costs uneven, and the
    // pool's workers claim tasks dynamically. Merging into the first
    // morsel's map in morsel order keeps per-key row ids ascending.
    let ht: Vec<KeyMap> = pool.run(
        by_part
            .into_iter()
            .map(|maps| {
                move || {
                    let mut maps = maps.into_iter();
                    let mut part = maps.next().unwrap_or_default();
                    for m in maps {
                        for (k, mut rids) in m {
                            part.entry(k).or_default().append(&mut rids);
                        }
                    }
                    part
                }
            })
            .collect(),
    );

    let ht_ref = &ht;
    let partials: Vec<Result<(Vec<RowId>, Vec<RowId>)>> = pool.run(
        pool.morsels_for(probe.num_rows(), PAR_ROW_THRESHOLD, 1)
            .into_iter()
            .map(|r| {
                move || {
                    let mut b: Vec<RowId> = Vec::new();
                    let mut p: Vec<RowId> = Vec::new();
                    for j in r {
                        let k = eval_expr(probe, j, probe_key)?;
                        if k.is_null() {
                            continue;
                        }
                        let hk = HashableValue(k);
                        if let Some(matches) = ht_ref[partition_of(&hk, nparts)].get(&hk) {
                            for &i in matches {
                                b.push(i);
                                p.push(j as RowId);
                            }
                        }
                    }
                    Ok((b, p))
                }
            })
            .collect(),
    );
    let (build_runs, probe_runs): (Vec<_>, Vec<_>) =
        partials.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();

    let build_chunk = build.take(&concat(build_runs));
    let probe_chunk = probe.take(&concat(probe_runs));
    Ok(if build_is_left {
        build_chunk.zip_concat(&probe_chunk)
    } else {
        probe_chunk.zip_concat(&build_chunk)
    })
}

/// Wrapper making `Value` hashable for join/group keys. NULL never
/// reaches this (callers skip it); doubles hash by bit pattern.
#[derive(Debug, Clone, PartialEq)]
struct HashableValue(Value);

impl Eq for HashableValue {}

impl std::hash::Hash for HashableValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Double(d) => {
                state.write_u8(2);
                state.write_u64(d.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
            Value::Bool(b) => {
                state.write_u8(4);
                state.write_u8(*b as u8);
            }
        }
    }
}

/// Deterministic hash partition of a join key. Every builder and
/// prober must agree on this mapping, so it uses a fresh
/// `DefaultHasher` (fixed seed) rather than any per-map state.
fn partition_of(k: &HashableValue, nparts: usize) -> usize {
    if nparts <= 1 {
        return 0;
    }
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) % nparts
}

/// One aggregate to compute.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument (`None` = `COUNT(*)`).
    pub expr: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// Group-by aggregation. With empty `group_by` produces a single row.
///
/// Grouping builds one partial group map per ordered morsel of `pool`
/// (a single inline one under [`PAR_ROW_THRESHOLD`] rows or at one
/// thread); merging the partials in morsel order reproduces both the
/// first-encounter group order and each group's ascending row-id
/// list, so the output chunk is bit-identical at every pool size.
/// Per-group aggregate evaluation then fans out under the same
/// threshold, one task per group, collected in group order.
pub fn aggregate(
    pool: &WorkerPool,
    chunk: &Chunk,
    group_by: &[Expr],
    aggs: &[AggSpec],
) -> Result<Chunk> {
    // Group rows by key tuple.
    let n = chunk.num_rows();
    type Partial = (Vec<Vec<HashableValue>>, HashMap<Vec<HashableValue>, Vec<RowId>>);
    let mut partials = pool
        .run(
            pool.morsels_for(n, PAR_ROW_THRESHOLD, 1)
                .into_iter()
                .map(|r| {
                    move || -> Result<Partial> {
                        let mut local_groups: HashMap<Vec<HashableValue>, Vec<RowId>> =
                            HashMap::new();
                        let mut local_order: Vec<Vec<HashableValue>> = Vec::new();
                        for i in r {
                            let key: Vec<HashableValue> = group_by
                                .iter()
                                .map(|e| eval_expr(chunk, i, e).map(HashableValue))
                                .collect::<Result<_>>()?;
                            if !local_groups.contains_key(&key) {
                                local_order.push(key.clone());
                            }
                            local_groups.entry(key).or_default().push(i as RowId);
                        }
                        Ok((local_order, local_groups))
                    }
                })
                .collect(),
        )
        .into_iter();
    // Merge the later partials into the first in morsel order: global
    // first-encounter order and ascending per-group row ids.
    let (mut order, mut groups) = partials.next().transpose()?.unwrap_or_default();
    for partial in partials {
        let (local_order, mut local_groups) = partial?;
        for key in local_order {
            let Some(mut rids) = local_groups.remove(&key) else {
                continue;
            };
            match groups.entry(key) {
                Entry::Occupied(mut e) => {
                    e.get_mut().append(&mut rids);
                }
                Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(rids);
                }
            }
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        // Global aggregate over zero rows still yields one row.
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let mut names: Vec<String> = Vec::new();
    for (k, e) in group_by.iter().enumerate() {
        names.push(match e {
            Expr::Column(c) => c.clone(),
            _ => format!("group_{k}"),
        });
    }
    names.extend(aggs.iter().map(|a| a.name.clone()));

    // Compute output rows. The threshold counts rows; in groups it is
    // that many rows' worth at the average group size. One task per
    // group: group sizes are skewed, and the pool's workers claim
    // tasks dynamically.
    let (order_ref, groups_ref) = (&order, &groups);
    let rows_per_group = n.div_ceil(order.len().max(1)).max(1);
    let min_groups = PAR_ROW_THRESHOLD.div_ceil(rows_per_group);
    let results: Vec<Result<Vec<Vec<Value>>>> = pool.run(
        pool.morsels_for(order.len(), min_groups, usize::MAX)
            .into_iter()
            .map(|r| {
                move || {
                    let mut rows = Vec::with_capacity(r.len());
                    for key in &order_ref[r] {
                        let rids = groups_ref.get(key).map_or(&[][..], Vec::as_slice);
                        let mut row: Vec<Value> = key.iter().map(|h| h.0.clone()).collect();
                        for agg in aggs {
                            row.push(eval_aggregate(chunk, rids, agg)?);
                        }
                        rows.push(row);
                    }
                    Ok(rows)
                }
            })
            .collect(),
    );
    rows_to_chunk(names, concat(results.into_iter().collect::<Result<_>>()?))
}

fn eval_aggregate(chunk: &Chunk, rids: &[RowId], agg: &AggSpec) -> Result<Value> {
    // Evaluate the argument per row (or count rows for COUNT(*)).
    match (&agg.expr, agg.func) {
        (None, AggFunc::Count) => Ok(Value::Int(rids.len() as i64)),
        (None, _) => Err(DbError::Execution("only COUNT may take *".into())),
        (Some(e), func) => {
            let mut vals: Vec<Value> = Vec::with_capacity(rids.len());
            for &r in rids {
                vals.push(eval_expr(chunk, r as usize, e)?);
            }
            let non_null: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
            Ok(match func {
                AggFunc::Count => Value::Int(non_null.len() as i64),
                AggFunc::Min => non_null
                    .iter()
                    .fold(Value::Null, |acc, v| {
                        if acc.is_null() || v.sql_cmp(&acc) == Some(std::cmp::Ordering::Less) {
                            (*v).clone()
                        } else {
                            acc
                        }
                    }),
                AggFunc::Max => non_null
                    .iter()
                    .fold(Value::Null, |acc, v| {
                        if acc.is_null() || v.sql_cmp(&acc) == Some(std::cmp::Ordering::Greater) {
                            (*v).clone()
                        } else {
                            acc
                        }
                    }),
                // The checked addition of `+`: exact in i64, in doubles
                // from the first partial sum that overflows.
                AggFunc::Sum => {
                    let mut acc = Value::Null;
                    for v in non_null {
                        if v.as_f64().is_none() {
                            return Err(DbError::TypeMismatch {
                                expected: "numeric".into(),
                                found: format!("{v}"),
                            });
                        }
                        acc = if acc.is_null() {
                            v.clone()
                        } else {
                            eval_binary(BinOp::Add, &acc, v)?
                        };
                    }
                    acc
                }
                AggFunc::Avg => {
                    if non_null.is_empty() {
                        Value::Null
                    } else {
                        let sum: f64 = non_null.iter().filter_map(|v| v.as_f64()).sum();
                        Value::Double(sum / non_null.len() as f64)
                    }
                }
            })
        }
    }
}

/// Sort a chunk by key expressions.
pub(crate) fn sort(chunk: &Chunk, keys: &[(Expr, bool)]) -> Result<Chunk> {
    let n = chunk.num_rows();
    let mut key_vals: Vec<Vec<Value>> = Vec::with_capacity(n);
    for i in 0..n {
        let row_keys: Vec<Value> = keys
            .iter()
            .map(|(e, _)| eval_expr(chunk, i, e))
            .collect::<Result<_>>()?;
        key_vals.push(row_keys);
    }
    let mut order: Vec<RowId> = (0..n as RowId).collect();
    order.sort_by(|&a, &b| {
        for (k, (_, desc)) in keys.iter().enumerate() {
            let ord = key_vals[a as usize][k].order_cmp(&key_vals[b as usize][k]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(chunk.take(&order))
}

/// Keep the first `n` rows.
pub(crate) fn limit(chunk: &Chunk, n: usize) -> Chunk {
    let keep: Vec<RowId> = (0..chunk.num_rows().min(n) as RowId).collect();
    chunk.take(&keep)
}

/// Remove duplicate rows (first occurrence wins).
pub(crate) fn distinct(chunk: &Chunk) -> Chunk {
    let mut seen: std::collections::HashSet<Vec<HashableValue>> = std::collections::HashSet::new();
    let mut keep = Vec::new();
    for i in 0..chunk.num_rows() {
        let key: Vec<HashableValue> = chunk.row(i).into_iter().map(HashableValue).collect();
        if seen.insert(key) {
            keep.push(i as RowId);
        }
    }
    chunk.take(&keep)
}

/// Build a chunk from value rows, inferring column types.
pub(crate) fn rows_to_chunk(names: Vec<String>, rows: Vec<Vec<Value>>) -> Result<Chunk> {
    let ncols = names.len();
    let mut cols: Vec<Column> = (0..ncols)
        .map(|c| {
            let ty = result_type(rows.iter().filter_map(|r| r.get(c)));
            Column::new(ty.unwrap_or(DataType::Int))
        })
        .collect();
    for row in &rows {
        if row.len() != ncols {
            return Err(DbError::ArityMismatch { expected: ncols, found: row.len() });
        }
        for (c, v) in row.iter().enumerate() {
            let v = if v.is_null() {
                Value::Null
            } else {
                v.clone()
                    .coerce(cols[c].data_type())
                    .ok_or_else(|| DbError::TypeMismatch {
                        expected: cols[c].data_type().to_string(),
                        found: format!("{v}"),
                    })?
            };
            cols[c].push(v)?;
        }
    }
    Ok(Chunk::new(names, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnDef, Table};

    fn chunk() -> Chunk {
        let mut t = Table::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("score", DataType::Double),
                ColumnDef::new("tag", DataType::Str),
            ],
        );
        t.insert_rows(vec![
            vec![1.into(), 0.5.into(), "alpha".into()],
            vec![2.into(), 0.9.into(), "beta".into()],
            vec![3.into(), 0.2.into(), "alpha".into()],
            vec![4.into(), Value::Null, "gamma".into()],
        ])
        .unwrap();
        Chunk::from_table(&t, "t")
    }

    fn pool() -> WorkerPool {
        WorkerPool::with_threads(4)
    }

    fn col(name: &str) -> Expr {
        Expr::Column(name.into())
    }

    fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let c = chunk();
        assert_eq!(c.resolve("t.id").unwrap(), 0);
        assert_eq!(c.resolve("score").unwrap(), 1);
        assert!(c.resolve("nope").is_err());
    }

    #[test]
    fn filter_columnar_path() {
        let c = chunk();
        let pred = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, col("score"), lit(0.3)),
            Expr::binary(BinOp::Lt, col("id"), lit(2i64)),
        );
        let out = filter(&pool(), &c, &pred).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(1));
    }

    #[test]
    fn filter_matches_rowwise_reference() {
        let c = chunk();
        let pred = Expr::binary(BinOp::Ge, col("score"), lit(0.5));
        let a = filter(&pool(), &c, &pred).unwrap();
        let b = filter_rowwise(&c, &pred).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        for i in 0..a.num_rows() {
            assert_eq!(a.row(i), b.row(i));
        }
    }

    #[test]
    fn filter_flipped_literal() {
        let c = chunk();
        // 0.3 < score  ≡  score > 0.3
        let pred = Expr::binary(BinOp::Lt, lit(0.3), col("score"));
        let out = filter(&pool(), &c, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn filter_null_never_matches() {
        let c = chunk();
        let pred = Expr::binary(BinOp::Ge, col("score"), lit(0.0));
        let out = filter(&pool(), &c, &pred).unwrap();
        assert_eq!(out.num_rows(), 3); // row 4 has NULL score
    }

    #[test]
    fn filter_complex_falls_back() {
        let c = chunk();
        // OR forces the row-wise path.
        let pred = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Eq, col("tag"), lit("gamma")),
            Expr::binary(BinOp::Gt, col("score"), lit(0.8)),
        );
        let out = filter(&pool(), &c, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn project_expressions() {
        let c = chunk();
        let out = project(
            &c,
            &[
                (col("id"), "id".into()),
                (
                    Expr::binary(BinOp::Mul, col("score"), lit(100.0)),
                    "pct".into(),
                ),
            ],
        )
        .unwrap();
        assert_eq!(out.names(), &["id".to_string(), "pct".to_string()]);
        assert_eq!(out.row(1)[1], Value::Double(90.0));
        assert_eq!(out.row(3)[1], Value::Null);
    }

    #[test]
    fn hash_join_basic() {
        let left = chunk();
        let right = rows_to_chunk(
            vec!["r.id".into(), "r.label".into()],
            vec![
                vec![1.into(), "one".into()],
                vec![3.into(), "three".into()],
                vec![3.into(), "drei".into()],
                vec![9.into(), "nine".into()],
            ],
        )
        .unwrap();
        let out = hash_join(&pool(), &left, &right, &col("t.id"), &col("r.id")).unwrap();
        assert_eq!(out.num_rows(), 3); // id=1 once, id=3 twice
        // Every output row satisfies the key equality.
        for i in 0..out.num_rows() {
            let row = out.row(i);
            assert_eq!(row[0], row[3]);
        }
    }

    #[test]
    fn hash_join_skips_nulls() {
        let left = rows_to_chunk(vec!["l.k".into()], vec![vec![Value::Null], vec![1.into()]]).unwrap();
        let right = rows_to_chunk(vec!["r.k".into()], vec![vec![Value::Null], vec![1.into()]]).unwrap();
        let out = hash_join(&pool(), &left, &right, &col("l.k"), &col("r.k")).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn aggregate_global() {
        let c = chunk();
        let out = aggregate(
            &pool(),
            &c,
            &[],
            &[
                AggSpec { func: AggFunc::Count, expr: None, name: "n".into() },
                AggSpec { func: AggFunc::Sum, expr: Some(col("score")), name: "s".into() },
                AggSpec { func: AggFunc::Min, expr: Some(col("id")), name: "lo".into() },
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(4));
        let Value::Double(s) = out.row(0)[1] else { panic!() };
        assert!((s - 1.6).abs() < 1e-12);
        assert_eq!(out.row(0)[2], Value::Int(1));
    }

    #[test]
    fn aggregate_group_by() {
        let c = chunk();
        let out = aggregate(
            &pool(),
            &c,
            &[col("tag")],
            &[
                AggSpec { func: AggFunc::Count, expr: None, name: "n".into() },
                AggSpec { func: AggFunc::Avg, expr: Some(col("score")), name: "avg".into() },
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        // First group in input order is "alpha" with ids 1 and 3.
        assert_eq!(out.row(0)[0], Value::Str("alpha".into()));
        assert_eq!(out.row(0)[1], Value::Int(2));
        assert_eq!(out.row(0)[2], Value::Double((0.5 + 0.2) / 2.0));
        // gamma's AVG over only-NULL input is NULL, COUNT(*) still 1.
        assert_eq!(out.row(2)[0], Value::Str("gamma".into()));
        assert_eq!(out.row(2)[1], Value::Int(1));
        assert_eq!(out.row(2)[2], Value::Null);
    }

    #[test]
    fn aggregate_count_expr_skips_nulls() {
        let c = chunk();
        let out = aggregate(
            &pool(),
            &c,
            &[],
            &[AggSpec { func: AggFunc::Count, expr: Some(col("score")), name: "n".into() }],
        )
        .unwrap();
        assert_eq!(out.row(0)[0], Value::Int(3));
    }

    /// Zero-row chunks still run every kernel body once, whatever
    /// the pool size.
    #[test]
    fn empty_input_runs_the_kernels_once() {
        let c = chunk();
        for threads in [1, 4] {
            let pool = WorkerPool::with_threads(threads);
            let empty =
                filter(&pool, &c, &Expr::binary(BinOp::Gt, col("id"), lit(100i64))).unwrap();
            assert_eq!(empty.num_rows(), 0);
            // The needle is still type-checked against the column.
            let bad = filter(&pool, &empty, &Expr::binary(BinOp::Eq, col("id"), lit("x")));
            assert!(matches!(bad, Err(DbError::TypeMismatch { .. })), "threads={threads}");
            // Global aggregate over zero rows still yields one row.
            let count = [AggSpec { func: AggFunc::Count, expr: None, name: "n".into() }];
            let out = aggregate(&pool, &empty, &[], &count).unwrap();
            assert_eq!(out.num_rows(), 1);
            assert_eq!(out.row(0)[0], Value::Int(0));
            // A grouped one yields none.
            assert_eq!(aggregate(&pool, &empty, &[col("tag")], &count).unwrap().num_rows(), 0);
            for (l, r) in [(&empty, &c), (&c, &empty), (&empty, &empty)] {
                let out = hash_join(&pool, l, r, &col("id"), &col("id")).unwrap();
                assert_eq!(out.num_rows(), 0, "threads={threads}");
                assert_eq!(out.num_cols(), 6);
            }
        }
    }

    #[test]
    fn sort_asc_desc_and_nulls_first() {
        let c = chunk();
        let out = sort(&c, &[(col("score"), false)]).unwrap();
        assert_eq!(out.row(0)[1], Value::Null);
        assert_eq!(out.row(1)[1], Value::Double(0.2));
        assert_eq!(out.row(3)[1], Value::Double(0.9));
        let desc = sort(&c, &[(col("score"), true)]).unwrap();
        assert_eq!(desc.row(0)[1], Value::Double(0.9));
    }

    #[test]
    fn sort_multi_key() {
        let c = chunk();
        let out = sort(&c, &[(col("tag"), false), (col("id"), true)]).unwrap();
        assert_eq!(out.row(0)[0], Value::Int(3)); // alpha, id desc
        assert_eq!(out.row(1)[0], Value::Int(1));
    }

    #[test]
    fn limit_and_distinct() {
        let c = chunk();
        assert_eq!(limit(&c, 2).num_rows(), 2);
        assert_eq!(limit(&c, 100).num_rows(), 4);
        let tags = project(&c, &[(col("tag"), "tag".into())]).unwrap();
        assert_eq!(distinct(&tags).num_rows(), 3);
    }

    #[test]
    fn like_matching() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_go"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a"));
        assert!(like_match("a%b", "a%b"));
    }

    /// Reference matcher: tries every split at every `%`, exponential
    /// in their number, but plainly right.
    fn like_reference(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|k| like_reference(&s[k..], &p[1..])),
            Some('_') => !s.is_empty() && like_reference(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && like_reference(&s[1..], &p[1..]),
        }
    }

    #[test]
    fn like_agrees_with_the_recursive_reference() {
        teleios_check::forall(
            |g| (g.string("ab%_", 0..12), g.string("ab%_", 0..8)),
            |(s, p)| {
                let chars = |t: &str| t.chars().collect::<Vec<_>>();
                let want = like_reference(&chars(&s), &chars(&p));
                assert_eq!(like_match(&s, &p), want, "{s:?} LIKE {p:?}");
            },
        );
    }

    #[test]
    fn like_is_polynomial_in_the_number_of_wildcards() {
        let text = "a".repeat(40);
        let pattern = format!("{}%b", "%a".repeat(10));
        let started = std::time::Instant::now();
        assert!(!like_match(&text, &pattern));
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_millis(100), "{took:?}");
    }

    #[test]
    fn three_valued_logic() {
        let c = chunk();
        // NULL > 0.5 OR TRUE => TRUE; row 4 must match.
        let pred = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Gt, col("score"), lit(0.5)),
            Expr::binary(BinOp::Eq, col("tag"), lit("gamma")),
        );
        let out = filter(&pool(), &c, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
        // NULL AND FALSE => FALSE (not an error), nothing extra matches.
        let pred2 = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, col("score"), lit(0.5)),
            Expr::binary(BinOp::Eq, col("tag"), lit("nope")),
        );
        assert_eq!(filter(&pool(), &c, &pred2).unwrap().num_rows(), 0);
    }

    #[test]
    fn between_and_in() {
        let c = chunk();
        let pred = Expr::Between {
            expr: Box::new(col("id")),
            lo: Box::new(lit(2i64)),
            hi: Box::new(lit(3i64)),
        };
        assert_eq!(filter(&pool(), &c, &pred).unwrap().num_rows(), 2);
        let pred2 = Expr::InList {
            expr: Box::new(col("tag")),
            list: vec![lit("alpha"), lit("gamma")],
            negated: false,
        };
        assert_eq!(filter(&pool(), &c, &pred2).unwrap().num_rows(), 3);
        let pred3 = Expr::InList {
            expr: Box::new(col("tag")),
            list: vec![lit("alpha")],
            negated: true,
        };
        assert_eq!(filter(&pool(), &c, &pred3).unwrap().num_rows(), 2);
    }

    #[test]
    fn scalar_functions() {
        let c = chunk();
        let out = project(
            &c,
            &[(
                Expr::Func { name: "UPPER".into(), args: vec![col("tag")] },
                "u".into(),
            )],
        )
        .unwrap();
        assert_eq!(out.row(0)[0], Value::Str("ALPHA".into()));
        assert!(eval_scalar_func("NOPE", &[]).is_err());
        assert_eq!(eval_scalar_func("ABS", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_scalar_func("SQRT", &[Value::Double(9.0)]).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(eval_scalar_func("LENGTH", &[Value::Str("abc".into())]).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(eval_binary(BinOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        // Float division yields infinity, not an error (IEEE semantics).
        assert_eq!(
            eval_binary(BinOp::Div, &Value::Double(1.0), &Value::Double(0.0)).unwrap(),
            Value::Double(f64::INFINITY)
        );
    }

    #[test]
    fn integer_overflow_promotes_to_double_and_nan_compares_unknown() {
        let int = |op, a, b| eval_binary(op, &Value::Int(a), &Value::Int(b)).unwrap();
        assert_eq!(int(BinOp::Mul, i64::MAX, 2), Value::Double(i64::MAX as f64 * 2.0));
        assert_eq!(int(BinOp::Add, i64::MIN, -1), Value::Double(i64::MIN as f64 - 1.0));
        assert_eq!(int(BinOp::Div, i64::MIN, -1), Value::Double(-(i64::MIN as f64)));
        assert_eq!(int(BinOp::Mul, 1 << 31, 1 << 31), Value::Int(1 << 62));
        let nan = Value::Double(f64::NAN);
        assert_eq!(eval_binary(BinOp::Lt, &nan, &Value::Int(7)).unwrap(), Value::Null);
        assert!(eval_binary(BinOp::Lt, &Value::Str("a".into()), &Value::Int(7)).is_err());
    }

    #[test]
    fn rows_promoted_apart_from_their_neighbours_make_a_double_column() {
        let names = vec!["k".to_string(), "v".to_string()];
        let rows = vec![vec![1.into(), 1.into()], vec![2.into(), i64::MAX.into()]];
        let t = rows_to_chunk(names, [rows.clone(), rows].concat()).unwrap();
        let twice = Expr::binary(BinOp::Add, col("v"), col("v"));
        let doubled = project(&t, &[(twice, "d".into())]).unwrap();
        assert_eq!(doubled.row(0), vec![Value::Double(2.0)]);
        assert_eq!(doubled.row(1), vec![Value::Double(i64::MAX as f64 * 2.0)]);
        let sum = AggSpec { func: AggFunc::Sum, expr: Some(col("v")), name: "s".into() };
        let sums = aggregate(&pool(), &t, &[col("k")], &[sum]).unwrap();
        assert_eq!(sums.row(0), vec![Value::Int(1), Value::Double(2.0)]);
        assert_eq!(sums.row(1), vec![Value::Int(2), Value::Double(i64::MAX as f64 * 2.0)]);
    }

    #[test]
    fn string_concat_with_plus() {
        assert_eq!(
            eval_binary(BinOp::Add, &Value::Str("a".into()), &Value::Str("b".into())).unwrap(),
            Value::Str("ab".into())
        );
    }
}
