//! Relational execution engine.
//!
//! Operators work on [`Chunk`]s — named bundles of equal-length columns.
//! Expressions have one evaluator, which works a whole column at a time
//! as MonetDB's BAT algebra does: [`eval`] computes an expression's
//! column over a candidate list of rows, and [`select`] the rows on
//! which a predicate holds — under every WHERE (SELECT's [`filter`],
//! HAVING's, UPDATE's and DELETE's), every projection, ORDER BY key,
//! join and group key, and SciQL's cell expressions. A row-at-a-time
//! reference filter, [`filter_rowwise`], stays public as the oracle of
//! the SQL differential and of the E11 ablation. Aggregates have one
//! path as well: [`aggregate`] groups the rows and `eval_aggregate`
//! folds each group, SUM with the same checked addition as `+`.

use crate::column::{CmpOp, Column, RowId};
use crate::error::DbError;
use crate::sql::ast::{AggFunc, BinOp, Expr};
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::Result;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
        let names = table.schema().iter().map(|d| format!("{alias}.{}", d.name)).collect();
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
                n.rsplit('.').next().is_some_and(|last| last.eq_ignore_ascii_case(name))
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
    pub(crate) fn zip_concat(&self, other: &Chunk) -> Chunk {
        let mut names = self.names.clone();
        names.extend(other.names.iter().cloned());
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Chunk { names, cols }
    }
}

// ---------------------------------------------------------------------
// Expression evaluation, one column at a time
// ---------------------------------------------------------------------

/// `expr` on `rows` of `chunk` (all of them when `None`), one value per
/// row, computed a column at a time: DOUBLE operands run typed loops, a
/// column (stored or computed) against a constant is one
/// [`Column::select`], and anything else applies `eval_binary` or
/// `eval_scalar_func` element by element. AND, OR and CASE evaluate
/// each side or arm only on the rows still open.
pub fn eval(chunk: &Chunk, rows: Option<&[RowId]>, expr: &Expr) -> Result<Column> {
    values(chunk, rows, expr)?.into_column(rows.map_or(chunk.num_rows(), <[RowId]>::len))
}

/// The rows of `rows` (all of `chunk`'s when `None`) on which
/// `predicate` is TRUE, ascending: the one selection under every WHERE
/// and HAVING, and under SciQL's cell predicates. AND runs its right
/// side on the rows its left keeps, OR on the rows its left does not
/// keep; any other predicate, NOT included, keeps the rows its
/// [`values`] are TRUE on.
pub fn select(chunk: &Chunk, rows: Option<&[RowId]>, predicate: &Expr) -> Result<Vec<RowId>> {
    let n = rows.map_or(chunk.num_rows(), <[RowId]>::len);
    match predicate {
        Expr::Binary { op: BinOp::And, left, right } => {
            select(chunk, Some(&select(chunk, rows, left)?), right)
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let mut kept = select(chunk, rows, left)?;
            kept.extend(select(chunk, Some(&complement(rows, n, &kept)), right)?);
            kept.sort_unstable();
            Ok(kept)
        }
        other => {
            let id = |i: usize| row_id(rows, i);
            let v = match other {
                Expr::Binary { op, left, right } if cmp_op(*op).is_some() => {
                    let cmp = cmp_op(*op).unwrap_or(CmpOp::Eq);
                    // A column, stored or computed, against a constant: one pass.
                    if let (Expr::Column(c), Expr::Literal(v)) = (&**left, &**right) {
                        return chunk.column(chunk.resolve(c)?).select(cmp, v, rows);
                    }
                    let (l, r) = (values(chunk, rows, left)?, values(chunk, rows, right)?);
                    if let (Vals::Col(col), Vals::Const(v)) = (&l, &r) {
                        let kept = col.select(cmp, v, None)?;
                        return Ok(kept.into_iter().map(|i| id(i as usize)).collect());
                    }
                    elementwise(n, |i| eval_binary(*op, &l.get(i), &r.get(i)))?
                }
                _ => values(chunk, rows, other)?,
            };
            Ok((0..n).filter(|&i| v.get(i) == Value::Bool(true)).map(id).collect())
        }
    }
}

/// The id of the `i`-th row of `rows` (row `i` when `None`).
fn row_id(rows: Option<&[RowId]>, i: usize) -> RowId {
    rows.map_or(i as RowId, |r| r[i])
}

/// The rows of `rows` (`0..n`, all of a chunk's, when `None`) not in
/// `taken`, which is drawn from them.
fn complement(rows: Option<&[RowId]>, n: usize, taken: &[RowId]) -> Vec<RowId> {
    let mut taken = taken.iter().peekable();
    let mut open = |id: &RowId| taken.next_if_eq(&id).is_none();
    match rows {
        None => (0..n as RowId).filter(&mut open).collect(),
        Some(rows) => rows.iter().copied().filter(&mut open).collect(),
    }
}

/// Where each of `ids` (drawn from `rows`) sits in `rows`.
fn positions<'b>(rows: Option<&'b [RowId]>, ids: &'b [RowId]) -> impl Iterator<Item = usize> + 'b {
    ids.iter().map(move |id| rows.map_or(*id as usize, |r| r.binary_search(id).unwrap_or(0)))
}

/// An expression's values on the rows evaluated.
pub(crate) enum Vals<'a> {
    /// One value on every row.
    Const(Value),
    /// A typed column: the chunk's own when every row is evaluated.
    Col(Cow<'a, Column>),
    /// Values computed row by row, whose types may differ: an INT result
    /// that overflowed into DOUBLE in some rows, CASE arms of two types.
    Rows(Vec<Value>),
}

/// A DOUBLE operand of a typed loop: a column without NULLs, or one
/// constant.
#[derive(Clone, Copy)]
enum Doubles<'a> {
    Col(&'a [f64]),
    Const(f64),
}

impl Vals<'_> {
    /// The value on the `i`-th row evaluated.
    pub(crate) fn get(&self, i: usize) -> Value {
        match self {
            Vals::Const(v) => v.clone(),
            Vals::Col(c) => c.get(i),
            Vals::Rows(v) => v[i].clone(),
        }
    }

    fn doubles(&self) -> Option<Doubles<'_>> {
        match self {
            Vals::Const(Value::Double(d)) => Some(Doubles::Const(*d)),
            Vals::Col(c) => c.doubles().map(Doubles::Col),
            _ => None,
        }
    }

    /// The values as a column typed by `result_type` (DOUBLE when all are
    /// NULL); a value that does not coerce to that type reads as NULL.
    fn into_column(self, n: usize) -> Result<Column> {
        let values = match self {
            Vals::Col(c) => return Ok(c.into_owned()),
            Vals::Const(Value::Double(d)) => return Ok(Column::from_doubles(vec![d; n])),
            Vals::Const(v) => vec![v; n],
            Vals::Rows(values) => values,
        };
        let ty = result_type(values.iter()).unwrap_or(DataType::Double);
        let mut col = Column::new(ty);
        for v in values {
            col.push(v.coerce(ty).unwrap_or(Value::Null))?;
        }
        Ok(col)
    }
}

/// A computed DOUBLE column.
fn doubles<'a>(data: Vec<f64>) -> Vals<'a> {
    Vals::Col(Cow::Owned(Column::from_doubles(data)))
}

/// `at(i)` for each of `n` rows, computed row by row.
fn elementwise<'a>(n: usize, at: impl FnMut(usize) -> Result<Value>) -> Result<Vals<'a>> {
    Ok(Vals::Rows((0..n).map(at).collect::<Result<_>>()?))
}

/// `f` on each row's two DOUBLE operands: a tight loop over a column.
fn zip_f64(a: Doubles, b: Doubles, n: usize, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    match (a, b) {
        (Doubles::Col(x), Doubles::Col(y)) => x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect(),
        (Doubles::Col(x), Doubles::Const(c)) => x.iter().map(|&x| f(x, c)).collect(),
        (Doubles::Const(c), Doubles::Col(y)) => y.iter().map(|&y| f(c, y)).collect(),
        (Doubles::Const(c), Doubles::Const(d)) => vec![f(c, d); n],
    }
}

/// `expr`'s values on `rows` (see [`eval`]).
pub(crate) fn values<'a>(
    chunk: &'a Chunk,
    rows: Option<&[RowId]>,
    expr: &Expr,
) -> Result<Vals<'a>> {
    let n = rows.map_or(chunk.num_rows(), <[RowId]>::len);
    match expr {
        Expr::Literal(v) => Ok(Vals::Const(v.clone())),
        Expr::Column(name) => {
            let col = chunk.column(chunk.resolve(name)?);
            Ok(Vals::Col(rows.map_or(Cow::Borrowed(col), |r| Cow::Owned(col.gather(r)))))
        }
        // The right side runs on the rows the left side does not decide.
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
            let (l, decided) = (values(chunk, rows, left)?, Value::Bool(*op == BinOp::Or));
            let open: Vec<usize> = (0..n).filter(|&i| l.get(i) != decided).collect();
            let ids: Vec<RowId> = open.iter().map(|&i| row_id(rows, i)).collect();
            let r = values(chunk, Some(&ids), right)?;
            let mut out: Vec<Value> = (0..n).map(|i| l.get(i)).collect();
            for (j, &i) in open.iter().enumerate() {
                out[i] = sql_logic(*op == BinOp::And, &out[i], &r.get(j));
            }
            Ok(Vals::Rows(out))
        }
        Expr::Binary { op, left, right } => {
            let (l, r) = (values(chunk, rows, left)?, values(chunk, rows, right)?);
            match l.doubles().zip(r.doubles()) {
                Some((a, b)) if cmp_op(*op).is_none() => {
                    Ok(doubles(zip_f64(a, b, n, |x, y| double_op(*op, x, y))))
                }
                _ => elementwise(n, |i| eval_binary(*op, &l.get(i), &r.get(i))),
            }
        }
        Expr::Neg(e) => match values(chunk, rows, e)? {
            Vals::Const(v @ (Value::Int(_) | Value::Double(_))) => Ok(Vals::Const(negate(&v)?)),
            v => match v.doubles() {
                Some(Doubles::Col(d)) => Ok(doubles(d.iter().map(|x| -x).collect())),
                _ => elementwise(n, |i| negate(&v.get(i))),
            },
        },
        Expr::Not(e) => {
            let v = values(chunk, rows, e)?;
            elementwise(n, |i| not(&v.get(i)))
        }
        Expr::IsNull { expr, negated } => {
            let v = values(chunk, rows, expr)?;
            elementwise(n, |i| Ok(Value::Bool(v.get(i).is_null() != *negated)))
        }
        Expr::Like { expr, pattern } => {
            let v = values(chunk, rows, expr)?;
            elementwise(n, |i| like(&v.get(i), pattern))
        }
        Expr::Case { arms, otherwise } => case(chunk, rows, arms, otherwise.as_deref()),
        Expr::Func { name, args } => {
            let body = scalar_function(name, args.len())?;
            let args = args.iter().map(|a| values(chunk, rows, a)).collect::<Result<Vec<_>>>()?;
            match (body, args.iter().map(Vals::doubles).collect::<Option<Vec<_>>>()) {
                (Some(f), Some(x)) => {
                    let y = x.get(1).copied().unwrap_or(Doubles::Const(0.0));
                    Ok(doubles(zip_f64(x[0], y, n, f)))
                }
                _ => elementwise(n, |i| {
                    eval_scalar_func(name, &args.iter().map(|a| a.get(i)).collect::<Vec<_>>())
                }),
            }
        }
    }
}

/// CASE: each arm's condition runs on the rows no earlier arm took, its
/// result on the rows the condition takes, and ELSE (else NULL) on the
/// rest; the parts are then scattered back into row order.
fn case<'a>(
    chunk: &'a Chunk,
    rows: Option<&[RowId]>,
    arms: &[(Expr, Expr)],
    otherwise: Option<&Expr>,
) -> Result<Vals<'a>> {
    let n = rows.map_or(chunk.num_rows(), <[RowId]>::len);
    // The rows no arm has taken yet (`None`: all of `rows`).
    let mut open: Option<Vec<RowId>> = None;
    let mut parts = Vec::new();
    for (cond, result) in arms {
        let left = open.as_deref().or(rows);
        let taken = select(chunk, left, cond)?;
        if !taken.is_empty() {
            open = Some(complement(left, chunk.num_rows(), &taken));
            parts.push((values(chunk, Some(&taken), result)?, taken));
        }
    }
    let open = open.unwrap_or_else(|| complement(rows, n, &[]));
    if !open.is_empty() {
        let rest =
            otherwise.map_or(Ok(Vals::Const(Value::Null)), |e| values(chunk, Some(&open), e))?;
        parts.push((rest, open));
    }
    // Every part DOUBLE, and one at least (no rows, no type): one typed column.
    let x = parts.iter().map(|(v, _)| v.doubles()).collect::<Option<Vec<_>>>();
    if let Some(x) = x.filter(|x| !x.is_empty()) {
        let mut data = vec![0.0; n];
        for ((_, ids), x) in parts.iter().zip(x) {
            match x {
                Doubles::Const(c) => positions(rows, ids).for_each(|p| data[p] = c),
                Doubles::Col(d) => positions(rows, ids).zip(d).for_each(|(p, &x)| data[p] = x),
            }
        }
        return Ok(doubles(data));
    }
    let mut out = vec![Value::Null; n];
    for (v, ids) in &parts {
        positions(rows, ids).enumerate().for_each(|(j, p)| out[p] = v.get(j));
    }
    Ok(Vals::Rows(out))
}

/// The comparison a binary operator is, if it is one.
fn cmp_op(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

/// The type error for `found` where `expected` was needed.
fn mismatch(expected: &str, found: &Value) -> DbError {
    DbError::TypeMismatch {
        expected: expected.into(),
        found: found.data_type().map_or("NULL".into(), |t| t.to_string()),
    }
}

/// The row-at-a-time reference evaluator: one row, one boxed value per
/// node. Only [`filter_rowwise`] calls it.
fn eval_expr(chunk: &Chunk, row: usize, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let i = chunk.resolve(name)?;
            Ok(chunk.column(i).get(row))
        }
        Expr::Binary { op, left, right } => {
            let l = eval_expr(chunk, row, left)?;
            // Short-circuit AND/OR with SQL three-valued logic.
            let decided = if *op == BinOp::And { Value::Bool(false) } else { Value::Bool(true) };
            if matches!(op, BinOp::And | BinOp::Or) && l == decided {
                return Ok(l);
            }
            eval_binary(*op, &l, &eval_expr(chunk, row, right)?)
        }
        Expr::Neg(e) => negate(&eval_expr(chunk, row, e)?),
        Expr::Not(e) => not(&eval_expr(chunk, row, e)?),
        Expr::IsNull { expr, negated } => {
            Ok(Value::Bool(eval_expr(chunk, row, expr)?.is_null() != *negated))
        }
        Expr::Like { expr, pattern } => like(&eval_expr(chunk, row, expr)?, pattern),
        Expr::Case { arms, otherwise } => {
            for (cond, result) in arms {
                if eval_expr(chunk, row, cond)? == Value::Bool(true) {
                    return eval_expr(chunk, row, result);
                }
            }
            otherwise.as_deref().map_or(Ok(Value::Null), |e| eval_expr(chunk, row, e))
        }
        Expr::Func { name, args } => eval_scalar_func(
            name,
            &args.iter().map(|a| eval_expr(chunk, row, a)).collect::<Result<Vec<_>>>()?,
        ),
    }
}

/// SQL's three-valued AND (`and`) or OR: the value that decides it
/// (FALSE for AND, TRUE for OR) wins, then NULL or any other non-BOOL.
fn sql_logic(and: bool, a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (x, y) if x == Some(!and) || y == Some(!and) => Value::Bool(!and),
        (Some(_), Some(_)) => Value::Bool(and),
        _ => Value::Null,
    }
}

/// SQL's NOT: NULL stays NULL, and anything but a BOOL is a type error.
fn not(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Bool(b) => Ok(Value::Bool(!b)),
        other => Err(mismatch("BOOL", other)),
    }
}

/// Unary minus. The one INT whose negation leaves i64, the smallest,
/// becomes a DOUBLE, as `+` and `*` promote.
fn negate(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(i.checked_neg().map_or(Value::Double(-(*i as f64)), Value::Int)),
        Value::Double(d) => Ok(Value::Double(-d)),
        other => Err(mismatch("numeric", other)),
    }
}

/// `a op b` in doubles for an arithmetic `op`.
fn double_op(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => a % b,
    }
}

/// Evaluate a binary operator on two values.
pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if matches!(op, BinOp::And | BinOp::Or) {
        return Ok(sql_logic(op == BinOp::And, l, r));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let Some(cmp) = cmp_op(op) {
        return match l.sql_cmp(r) {
            Some(ord) => Ok(Value::Bool(cmp.matches(ord))),
            // NaN against a number is unknown, as in `Column::select`:
            // the row fails the comparison either way round.
            None if l.as_f64().is_some() && r.as_f64().is_some() => Ok(Value::Null),
            None => Err(mismatch(&format!("a value comparable to {l}"), r)),
        };
    }
    match (l, r) {
        // String concatenation via '+'.
        (Value::Str(a), Value::Str(b)) if op == BinOp::Add => Ok(Value::Str(format!("{a}{b}"))),
        (Value::Int(a), Value::Int(b)) => {
            if matches!(op, BinOp::Div | BinOp::Mod) && *b == 0 {
                return Err(DbError::Execution("division by zero".into()));
            }
            // A result outside i64 is computed in doubles, as stSPARQL
            // and SciQL compute it, instead of wrapping (`1 + 2 * x < 7`
            // must not hold for a huge `x`).
            let exact = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => a.checked_div(*b),
                _ => a.checked_rem(*b),
            };
            Ok(exact.map_or_else(|| Value::Double(double_op(op, *a as f64, *b as f64)), Value::Int))
        }
        _ => Ok(Value::Double(double_op(op, numeric(l)?, numeric(r)?))),
    }
}

/// A numeric scalar function's body: `(x, y)` to its value.
pub type Math = fn(f64, f64) -> f64;

/// A scalar function of the SQL family, checked for its name and
/// argument count before any row is read: its body on numbers (ABS
/// keeps an INT an INT besides), or `None` for the string functions
/// LOWER, UPPER and LENGTH. The unary bodies ignore their second operand.
pub fn scalar_function(name: &str, args: usize) -> Result<Option<Math>> {
    let (arity, body): (usize, Option<Math>) = match name {
        "LOWER" | "UPPER" | "LENGTH" => (1, None),
        "ABS" => (1, Some(|x, _| x.abs())),
        "SQRT" => (1, Some(|x, _| x.sqrt())),
        "EXP" => (1, Some(|x, _| x.exp())),
        "LN" => (1, Some(|x, _| x.ln())),
        "LOG10" => (1, Some(|x, _| x.log10())),
        "FLOOR" => (1, Some(|x, _| x.floor())),
        "CEIL" => (1, Some(|x, _| x.ceil())),
        "MIN" => (2, Some(f64::min)),
        "MAX" => (2, Some(f64::max)),
        "POW" => (2, Some(f64::powf)),
        other => return Err(DbError::Execution(format!("unknown function: {other}"))),
    };
    if args != arity {
        return Err(DbError::Execution(format!("{name} expects {arity} argument(s), got {args}")));
    }
    Ok(body)
}

fn eval_scalar_func(name: &str, args: &[Value]) -> Result<Value> {
    let body = scalar_function(name, args.len())?;
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match (name, &args[0], body) {
        // The one INT whose absolute value leaves i64 becomes a DOUBLE.
        ("ABS", Value::Int(i), _) => {
            Ok(i.checked_abs().map_or(Value::Double(-(*i as f64)), Value::Int))
        }
        (_, x, Some(f)) => {
            let y = args.get(1).map_or(Ok(0.0), numeric)?;
            Ok(Value::Double(f(numeric(x)?, y)))
        }
        ("LOWER", Value::Str(s), _) => Ok(Value::Str(s.to_lowercase())),
        ("UPPER", Value::Str(s), _) => Ok(Value::Str(s.to_uppercase())),
        ("LENGTH", Value::Str(s), _) => Ok(Value::Int(s.chars().count() as i64)),
        (_, other, _) => Err(mismatch("STRING", other)),
    }
}

/// `v LIKE pattern`: NULL on NULL, a type error on a non-string.
fn like(v: &Value, pattern: &str) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Bool(like_match(s, pattern))),
        other => Err(mismatch("STRING", other)),
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

/// Filter a chunk through [`select`].
pub fn filter(chunk: &Chunk, predicate: &Expr) -> Result<Chunk> {
    Ok(chunk.take(&select(chunk, None, predicate)?))
}

/// The row-at-a-time reference filter: `eval_expr` on every row. The
/// SQL differential and E11 compare [`filter`] against it.
pub fn filter_rowwise(chunk: &Chunk, predicate: &Expr) -> Result<Chunk> {
    let mut keep = Vec::new();
    for i in 0..chunk.num_rows() {
        if eval_expr(chunk, i, predicate)? == Value::Bool(true) {
            keep.push(i as RowId);
        }
    }
    Ok(chunk.take(&keep))
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
    let cols = exprs.iter().map(|(e, _)| eval(chunk, None, e)).collect::<Result<_>>()?;
    Ok(Chunk::new(exprs.iter().map(|(_, name)| name.clone()).collect(), cols))
}

/// Hash equi-join of two chunks on key expressions: one hash table
/// over the smaller side, then one probe of the other side in row
/// order. Each key's build rows are listed ascending, so the output
/// runs in probe row order, build row order within a probe row.
pub fn hash_join(left: &Chunk, right: &Chunk, left_key: &Expr, right_key: &Expr) -> Result<Chunk> {
    // Build on the smaller side.
    let (build, probe, build_key, probe_key, build_is_left) = if left.num_rows() <= right.num_rows()
    {
        (left, right, left_key, right_key, true)
    } else {
        (right, left, right_key, left_key, false)
    };

    // A NULL or NaN key equals nothing, itself included.
    let joins = |k: &Value| !k.is_null() && !matches!(k, Value::Double(d) if d.is_nan());
    let (build_keys, probe_keys) =
        (values(build, None, build_key)?, values(probe, None, probe_key)?);
    let mut ht: HashMap<HashableValue, Vec<RowId>> = HashMap::new();
    for i in 0..build.num_rows() {
        let k = build_keys.get(i);
        if joins(&k) {
            ht.entry(HashableValue(k)).or_default().push(i as RowId);
        }
    }

    let mut build_rows: Vec<RowId> = Vec::new();
    let mut probe_rows: Vec<RowId> = Vec::new();
    for j in 0..probe.num_rows() {
        let k = probe_keys.get(j);
        if !joins(&k) {
            continue;
        }
        if let Some(matches) = ht.get(&HashableValue(k)) {
            for &i in matches {
                build_rows.push(i);
                probe_rows.push(j as RowId);
            }
        }
    }

    let build_chunk = build.take(&build_rows);
    let probe_chunk = probe.take(&probe_rows);
    Ok(if build_is_left {
        build_chunk.zip_concat(&probe_chunk)
    } else {
        probe_chunk.zip_concat(&build_chunk)
    })
}

/// `Value` as a join, group or DISTINCT key. NULL equals NULL (a join
/// skips it), and a double compares by its bits after -0.0 becomes 0.0
/// and every NaN one NaN: so the two zeros, which `=` calls equal, are
/// one key, and NaNs, which `=` calls equal to nothing, form one group
/// rather than one each. Eq and Hash read the same bits.
#[derive(Debug, Clone)]
struct HashableValue(Value);

fn key_bits(d: f64) -> u64 {
    if d == 0.0 {
        0
    } else if d.is_nan() {
        f64::NAN.to_bits()
    } else {
        d.to_bits()
    }
}

impl PartialEq for HashableValue {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Value::Double(a), Value::Double(b)) => key_bits(*a) == key_bits(*b),
            (a, b) => a == b,
        }
    }
}

impl Eq for HashableValue {}

impl std::hash::Hash for HashableValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(&self.0).hash(state);
        match &self.0 {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Double(d) => key_bits(*d).hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
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
/// One pass groups the rows by key tuple, keeping groups in
/// first-encounter order and each group's row ids ascending; then
/// each group folds its aggregates, one output row per group.
pub fn aggregate(chunk: &Chunk, group_by: &[Expr], aggs: &[AggSpec]) -> Result<Chunk> {
    let keys = group_by.iter().map(|e| values(chunk, None, e)).collect::<Result<Vec<_>>>()?;
    let mut groups: Vec<(Vec<HashableValue>, Vec<RowId>)> = Vec::new();
    let mut index: HashMap<Vec<HashableValue>, usize> = HashMap::new();
    for i in 0..chunk.num_rows() {
        let key: Vec<HashableValue> = keys.iter().map(|k| HashableValue(k.get(i))).collect();
        match index.entry(key) {
            Entry::Occupied(e) => groups[*e.get()].1.push(i as RowId),
            Entry::Vacant(e) => {
                groups.push((e.key().clone(), vec![i as RowId]));
                e.insert(groups.len() - 1);
            }
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        // Global aggregate over zero rows still yields one row.
        groups.push((Vec::new(), Vec::new()));
    }

    let mut names: Vec<String> = Vec::new();
    for (k, e) in group_by.iter().enumerate() {
        names.push(match e {
            Expr::Column(c) => c.clone(),
            _ => format!("group_{k}"),
        });
    }
    names.extend(aggs.iter().map(|a| a.name.clone()));

    let args = aggs
        .iter()
        .map(|a| a.expr.as_ref().map(|e| values(chunk, None, e)).transpose())
        .collect::<Result<Vec<_>>>()?;
    // One column per key and per aggregate.
    let mut cols = vec![Vec::with_capacity(groups.len()); names.len()];
    for (key, rids) in groups {
        let aggregated =
            aggs.iter().zip(&args).map(|(a, arg)| eval_aggregate(arg.as_ref(), &rids, a.func));
        for (col, v) in cols.iter_mut().zip(key.into_iter().map(|h| Ok(h.0)).chain(aggregated)) {
            col.push(v?);
        }
    }
    Ok(Chunk::new(names, cols.into_iter().map(group_column).collect::<Result<_>>()?))
}

/// An aggregate's output column: typed by `result_type` (INT when every
/// value is NULL), and a type error for a value that does not coerce to
/// that type, where a projection reads NULL.
fn group_column(values: Vec<Value>) -> Result<Column> {
    let ty = result_type(values.iter()).unwrap_or(DataType::Int);
    let mut col = Column::new(ty);
    for v in values {
        let found = || DbError::TypeMismatch { expected: ty.to_string(), found: v.to_string() };
        col.push(v.clone().coerce(ty).ok_or_else(found)?)?;
    }
    Ok(col)
}

/// Fold one group's rows `rids` of the argument's values (`None` for
/// `COUNT(*)`).
fn eval_aggregate(arg: Option<&Vals>, rids: &[RowId], func: AggFunc) -> Result<Value> {
    match (arg, func) {
        (None, AggFunc::Count) => Ok(Value::Int(rids.len() as i64)),
        (None, _) => Err(DbError::Execution("only COUNT may take *".into())),
        (Some(arg), func) => {
            let vals: Vec<Value> = rids.iter().map(|&r| arg.get(r as usize)).collect();
            let non_null: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
            Ok(match func {
                AggFunc::Count => Value::Int(non_null.len() as i64),
                AggFunc::Min | AggFunc::Max => {
                    let wins = if func == AggFunc::Min {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    };
                    non_null.into_iter().fold(Value::Null, |acc, v| {
                        if acc.is_null() || v.sql_cmp(&acc) == Some(wins) {
                            v.clone()
                        } else {
                            acc
                        }
                    })
                }
                // The checked addition of `+`: exact in i64, in doubles
                // from the first partial sum that overflows.
                AggFunc::Sum => {
                    let mut acc = Value::Null;
                    for v in non_null {
                        numeric(v)?;
                        acc = if acc.is_null() {
                            v.clone()
                        } else {
                            eval_binary(BinOp::Add, &acc, v)?
                        };
                    }
                    acc
                }
                // STDDEV is the population standard deviation.
                AggFunc::Avg | AggFunc::StdDev => {
                    let xs = non_null.into_iter().map(numeric).collect::<Result<Vec<f64>>>()?;
                    let n = xs.len() as f64;
                    let mean = xs.iter().sum::<f64>() / n;
                    match func {
                        _ if xs.is_empty() => Value::Null,
                        AggFunc::Avg => Value::Double(mean),
                        _ => Value::Double(
                            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt(),
                        ),
                    }
                }
            })
        }
    }
}

/// The number SUM, AVG and STDDEV read from a non-NULL value, or the
/// type error they raise for any other value.
fn numeric(v: &Value) -> Result<f64> {
    v.as_f64().ok_or_else(|| mismatch("numeric", v))
}

/// Sort a chunk by key expressions.
pub(crate) fn sort(chunk: &Chunk, keys: &[(Expr, bool)]) -> Result<Chunk> {
    let n = chunk.num_rows();
    let key_vals = keys
        .iter()
        .map(|(e, _)| {
            let v = values(chunk, None, e)?;
            Ok((0..n).map(|i| v.get(i)).collect())
        })
        .collect::<Result<Vec<Vec<Value>>>>()?;
    let mut order: Vec<RowId> = (0..n as RowId).collect();
    order.sort_by(|&a, &b| {
        for (k, (_, desc)) in keys.iter().enumerate() {
            let ord = key_vals[k][a as usize].order_cmp(&key_vals[k][b as usize]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnDef, Table};

    /// Build a chunk from value rows, typing each column as an aggregate's.
    fn rows_to_chunk(names: Vec<String>, rows: Vec<Vec<Value>>) -> Result<Chunk> {
        let cols =
            (0..names.len()).map(|c| group_column(rows.iter().map(|r| r[c].clone()).collect()));
        Ok(Chunk::new(names, cols.collect::<Result<_>>()?))
    }

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
        let out = filter(&c, &pred).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(1));
    }

    #[test]
    fn filter_matches_rowwise_reference() {
        let c = chunk();
        let pred = Expr::binary(BinOp::Ge, col("score"), lit(0.5));
        let a = filter(&c, &pred).unwrap();
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
        let out = filter(&c, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn filter_null_never_matches() {
        let c = chunk();
        let pred = Expr::binary(BinOp::Ge, col("score"), lit(0.0));
        let out = filter(&c, &pred).unwrap();
        assert_eq!(out.num_rows(), 3); // row 4 has NULL score
    }

    #[test]
    fn filter_or_runs_its_right_side_on_the_rows_left_open() {
        let c = chunk();
        // Id 4 (gamma) is kept by the left side, id 2 by the right only.
        let pred = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Eq, col("tag"), lit("gamma")),
            Expr::binary(BinOp::Gt, col("score"), lit(0.8)),
        );
        let out = filter(&c, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn project_expressions() {
        let c = chunk();
        let out = project(
            &c,
            &[
                (col("id"), "id".into()),
                (Expr::binary(BinOp::Mul, col("score"), lit(100.0)), "pct".into()),
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
        let out = hash_join(&left, &right, &col("t.id"), &col("r.id")).unwrap();
        assert_eq!(out.num_rows(), 3); // id=1 once, id=3 twice

        // Every output row satisfies the key equality.
        for i in 0..out.num_rows() {
            let row = out.row(i);
            assert_eq!(row[0], row[3]);
        }
    }

    #[test]
    fn hash_join_skips_nulls() {
        let left =
            rows_to_chunk(vec!["l.k".into()], vec![vec![Value::Null], vec![1.into()]]).unwrap();
        let right =
            rows_to_chunk(vec!["r.k".into()], vec![vec![Value::Null], vec![1.into()]]).unwrap();
        let out = hash_join(&left, &right, &col("l.k"), &col("r.k")).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    fn doubles(name: &str, vs: &[Option<f64>]) -> Chunk {
        let rows = vs.iter().map(|v| vec![v.map_or(Value::Null, Value::Double)]).collect();
        rows_to_chunk(vec![name.into()], rows).unwrap()
    }

    #[test]
    fn hash_join_matches_the_two_zeros_and_no_nan() {
        let left = doubles("l.k", &[Some(f64::NAN), Some(-0.0), Some(1.5)]);
        let right = doubles("r.k", &[Some(0.0), Some(f64::NAN), Some(1.5), None]);
        let out = hash_join(&left, &right, &col("l.k"), &col("r.k")).unwrap();
        let rows: Vec<String> = (0..out.num_rows()).map(|i| format!("{:?}", out.row(i))).collect();
        assert_eq!(rows, ["[Double(-0.0), Double(0.0)]", "[Double(1.5), Double(1.5)]"]);
    }

    #[test]
    fn nan_and_zero_keys_group_once() {
        let c = doubles("v", &[Some(f64::NAN), Some(-0.0), None, Some(f64::NAN), Some(0.0), None]);
        let count = AggSpec { func: AggFunc::Count, expr: None, name: "n".into() };
        let out = aggregate(&c, &[col("v")], &[count]).unwrap();
        let rows: Vec<String> = (0..out.num_rows()).map(|i| format!("{:?}", out.row(i))).collect();
        assert_eq!(rows, ["[Double(NaN), Int(2)]", "[Double(-0.0), Int(2)]", "[Null, Int(2)]"]);
        assert_eq!(distinct(&c).num_rows(), 3);
    }

    #[test]
    fn aggregate_global() {
        let c = chunk();
        let out = aggregate(
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
    fn avg_and_stddev_reject_strings_as_sum_does() {
        let c = chunk();
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::StdDev] {
            let spec = AggSpec { func, expr: Some(col("tag")), name: "x".into() };
            let got = aggregate(&c, &[], &[spec]);
            assert!(matches!(got, Err(DbError::TypeMismatch { .. })), "{func:?}: {got:?}");
        }
    }

    #[test]
    fn stddev_is_the_population_deviation_of_the_non_null_values() {
        let c = chunk();
        let sd = |expr| AggSpec { func: AggFunc::StdDev, expr: Some(expr), name: "sd".into() };
        // ids 1..=4: mean 2.5, squared deviations 2.25 + 0.25 + 0.25 + 2.25 = 5.
        // scores 0.5, 0.9, 0.2 (NULL skipped): mean 0.5333…, variance 0.0822….
        let out = aggregate(&c, &[], &[sd(col("id")), sd(col("score"))]).unwrap();
        assert_eq!(out.row(0)[0], Value::Double((5.0f64 / 4.0).sqrt()));
        let Value::Double(s) = out.row(0)[1] else { panic!("{:?}", out.row(0)) };
        assert!((s - (0.74f64 / 9.0).sqrt()).abs() < 1e-12, "{s}");
        // Only NULLs, or no rows at all: NULL.
        let nulls = filter(&c, &Expr::binary(BinOp::Eq, col("id"), lit(4i64))).unwrap();
        let out = aggregate(&nulls, &[], &[sd(col("score"))]).unwrap();
        assert_eq!(out.row(0)[0], Value::Null);
    }

    #[test]
    fn case_takes_the_first_true_arm() {
        let c = chunk();
        // Row 4's score is NULL: its first condition is unknown and skips
        // its arm; no arm holds for row 2 and there is no ELSE.
        let case = Expr::Case {
            arms: vec![
                (Expr::binary(BinOp::Lt, col("score"), lit(0.6)), lit("low")),
                (Expr::binary(BinOp::Gt, col("id"), lit(3i64)), lit("late")),
            ],
            otherwise: None,
        };
        let out = project(&c, &[(case.clone(), "c".into())]).unwrap();
        let got: Vec<Value> = (0..4).map(|i| out.row(i)[0].clone()).collect();
        assert_eq!(got, vec!["low".into(), Value::Null, "low".into(), "late".into()]);
        // In a WHERE, the same CASE agrees with the row-at-a-time reference.
        let pred = Expr::binary(BinOp::Eq, case, lit("low"));
        let kept = filter(&c, &pred).unwrap();
        assert_eq!(kept.num_rows(), 2);
        let reference = filter_rowwise(&c, &pred).unwrap();
        assert_eq!(
            (0..2).map(|i| kept.row(i)).collect::<Vec<_>>(),
            (0..2).map(|i| reference.row(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn aggregate_output_columns_are_typed_strictly() {
        let c = chunk();
        // A group key of two types is a type error, not a NULL key.
        let gt2 = Expr::binary(BinOp::Gt, col("id"), lit(2i64));
        let key = Expr::Case { arms: vec![(gt2, lit("a"))], otherwise: Some(Box::new(lit(0i64))) };
        let count = AggSpec { func: AggFunc::Count, expr: None, name: "n".into() };
        let got = aggregate(&c, &[key], &[count]);
        assert!(matches!(got, Err(DbError::TypeMismatch { .. })), "{got:?}");
        // A column of NULLs only is INT.
        let nulls = filter(&c, &Expr::binary(BinOp::Eq, col("id"), lit(4i64))).unwrap();
        let lo = AggSpec { func: AggFunc::Min, expr: Some(col("score")), name: "lo".into() };
        let out = aggregate(&nulls, &[], &[lo]).unwrap();
        assert_eq!(out.column(0).data_type(), DataType::Int);
    }

    #[test]
    fn negative_constants_and_abs_keep_a_double_column_typed() {
        let c = doubles("v", &[Some(-2.5), Some(0.0), Some(301.0)]);
        let half = Expr::binary(BinOp::Mul, col("v"), Expr::Neg(Box::new(lit(0.5))));
        let abs = Expr::Func {
            name: "ABS".into(),
            args: vec![Expr::binary(BinOp::Sub, col("v"), lit(300.0))],
        };
        for (e, want) in [(half, [1.25, -0.0, -150.5]), (abs, [302.5, 300.0, 1.0])] {
            assert!(matches!(values(&c, None, &e).unwrap(), Vals::Col(_)), "{e:?}");
            let got = eval(&c, None, &e).unwrap().into_doubles().unwrap();
            assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want.map(f64::to_bits));
        }
        // An INT keeps its type under ABS, and `x > -5` is one column select.
        let ints =
            rows_to_chunk(vec!["k".into()], vec![vec![(-3).into()], vec![7.into()]]).unwrap();
        let abs = Expr::Func { name: "ABS".into(), args: vec![col("k")] };
        assert_eq!(eval(&ints, None, &abs).unwrap().get(0), Value::Int(3));
        let gt = Expr::binary(BinOp::Gt, col("k"), Expr::Neg(Box::new(lit(5i64))));
        assert_eq!(select(&ints, None, &gt).unwrap(), vec![0, 1]);
    }

    #[test]
    fn aggregate_count_expr_skips_nulls() {
        let c = chunk();
        let out = aggregate(
            &c,
            &[],
            &[AggSpec { func: AggFunc::Count, expr: Some(col("score")), name: "n".into() }],
        )
        .unwrap();
        assert_eq!(out.row(0)[0], Value::Int(3));
    }

    #[test]
    fn empty_input_is_type_checked_and_aggregated() {
        let c = chunk();
        let empty = filter(&c, &Expr::binary(BinOp::Gt, col("id"), lit(100i64))).unwrap();
        assert_eq!(empty.num_rows(), 0);
        // The needle is still type-checked against the column.
        let bad = filter(&empty, &Expr::binary(BinOp::Eq, col("id"), lit("x")));
        assert!(matches!(bad, Err(DbError::TypeMismatch { .. })));
        // Global aggregate over zero rows still yields one row.
        let count = [AggSpec { func: AggFunc::Count, expr: None, name: "n".into() }];
        let out = aggregate(&empty, &[], &count).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(0));
        // A grouped one yields none.
        assert_eq!(aggregate(&empty, &[col("tag")], &count).unwrap().num_rows(), 0);
        for (l, r) in [(&empty, &c), (&c, &empty), (&empty, &empty)] {
            let out = hash_join(l, r, &col("id"), &col("id")).unwrap();
            assert_eq!(out.num_rows(), 0);
            assert_eq!(out.names().len(), 6);
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
        let out = filter(&c, &pred).unwrap();
        assert_eq!(out.num_rows(), 2);
        // NULL AND FALSE => FALSE (not an error), nothing extra matches.
        let pred2 = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, col("score"), lit(0.5)),
            Expr::binary(BinOp::Eq, col("tag"), lit("nope")),
        );
        assert_eq!(filter(&c, &pred2).unwrap().num_rows(), 0);
    }

    #[test]
    fn like_and_is_null_are_three_valued() {
        let c = chunk();
        let like = |p: &str| Expr::Like { expr: Box::new(col("tag")), pattern: p.into() };
        assert_eq!(filter(&c, &like("%a")).unwrap().num_rows(), 4);
        assert_eq!(filter(&c, &Expr::Not(Box::new(like("a%")))).unwrap().num_rows(), 2);
        let null = Expr::IsNull { expr: Box::new(col("score")), negated: false };
        assert_eq!(filter(&c, &null).unwrap().row(0)[0], Value::Int(4));
        // LIKE on a number, and NOT on one, are type errors on both paths.
        let bad = Expr::Like { expr: Box::new(col("id")), pattern: "1".into() };
        let not_a_bool = Expr::Not(Box::new(col("id")));
        for pred in [bad, not_a_bool] {
            assert!(matches!(filter(&c, &pred), Err(DbError::TypeMismatch { .. })), "{pred:?}");
            assert!(matches!(filter_rowwise(&c, &pred), Err(DbError::TypeMismatch { .. })));
        }
    }

    #[test]
    fn scalar_functions() {
        let c = chunk();
        let out = project(
            &c,
            &[(Expr::Func { name: "UPPER".into(), args: vec![col("tag")] }, "u".into())],
        )
        .unwrap();
        assert_eq!(out.row(0)[0], Value::Str("ALPHA".into()));
        assert!(eval_scalar_func("NOPE", &[]).is_err());
        assert_eq!(eval_scalar_func("ABS", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(eval_scalar_func("SQRT", &[Value::Double(9.0)]).unwrap(), Value::Double(3.0));
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
        let sums = aggregate(&t, &[col("k")], &[sum]).unwrap();
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
