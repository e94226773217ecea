//! BAT-style typed columns with candidate-list selection.
//!
//! Following MonetDB's execution model, relational operators work
//! *column-at-a-time*: a selection produces a **candidate list** — a
//! sorted vector of row ids — that downstream operators use to gather
//! values. This keeps inner loops tight, type-specialized and free of
//! per-row interpretation overhead.

use crate::error::DbError;
use crate::value::{DataType, Value};
use crate::Result;
use std::cmp::Ordering;
use teleios_exec::{concat, WorkerPool};

/// Row identifier within a column/table.
pub type RowId = u32;

/// Minimum input size (rows) before the parallel kernels split work
/// across the pool; below this the sequential kernels win outright.
pub const PAR_ROW_THRESHOLD: usize = 4096;

/// Comparison operator for vectorized selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply to an `Ordering`.
    #[inline]
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A typed column. Nulls are tracked in a parallel validity vector
/// (`true` = present), kept only when at least one null exists.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// `None` means "no nulls"; otherwise `validity[i]` is false for NULL.
    validity: Option<Vec<bool>>,
}

/// One morsel of a selection's input: a run of row ids, or a piece of
/// a candidate list.
enum Span<'a> {
    Rows(std::ops::Range<usize>),
    Cands(&'a [RowId]),
}

#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
}

impl Column {
    /// Empty column of the given type.
    pub fn new(ty: DataType) -> Column {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        };
        Column { data, validity: None }
    }

    /// Column from integer data (no nulls).
    pub fn from_ints(v: Vec<i64>) -> Column {
        Column { data: ColumnData::Int(v), validity: None }
    }

    /// Column from double data (no nulls).
    pub fn from_doubles(v: Vec<f64>) -> Column {
        Column { data: ColumnData::Double(v), validity: None }
    }

    /// Column from string data (no nulls).
    pub fn from_strs(v: Vec<String>) -> Column {
        Column { data: ColumnData::Str(v), validity: None }
    }

    /// Column from bool data (no nulls).
    pub fn from_bools(v: Vec<bool>) -> Column {
        Column { data: ColumnData::Bool(v), validity: None }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Double(_) => DataType::Double,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` holds NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |v| v.iter().filter(|&&ok| !ok).count())
    }

    /// Append a value, coercing ints to double where needed.
    pub fn push(&mut self, value: Value) -> Result<()> {
        let value = match value {
            Value::Null => {
                let n = self.len();
                self.validity
                    .get_or_insert_with(|| vec![true; n])
                    .push(false);
                // Push a type-appropriate placeholder.
                match &mut self.data {
                    ColumnData::Int(v) => v.push(0),
                    ColumnData::Double(v) => v.push(0.0),
                    ColumnData::Str(v) => v.push(String::new()),
                    ColumnData::Bool(v) => v.push(false),
                }
                return Ok(());
            }
            other => other.coerce(self.data_type()).ok_or_else(|| DbError::TypeMismatch {
                expected: self.data_type().to_string(),
                found: "incompatible value".into(),
            })?,
        };
        if let Some(v) = &mut self.validity {
            v.push(true);
        }
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Double(v), Value::Double(x)) => v.push(x),
            (ColumnData::Str(v), Value::Str(x)) => v.push(x),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
            _ => unreachable!("coercion guarantees matching types"),
        }
        Ok(())
    }

    /// Value at row `i` (NULL-aware). Panics when out of bounds.
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Vectorized selection against a constant: returns the sorted row ids
    /// (from `cands` if given, else the whole column) whose value matches.
    /// NULL rows never match.
    ///
    /// The row space (or candidate list) is cut into `pool`'s ordered
    /// morsels — a single one under [`PAR_ROW_THRESHOLD`] rows or at
    /// one thread, run inline — and the per-morsel sorted RowId runs
    /// concatenate in morsel order. Morsels are disjoint ascending
    /// spans, so that concatenation *is* the k-way merge: the output
    /// is bit-identical at every thread count.
    pub fn select(
        &self,
        op: CmpOp,
        value: &Value,
        cands: Option<&[RowId]>,
        pool: &WorkerPool,
    ) -> Result<Vec<RowId>> {
        let n = cands.map_or(self.len(), <[RowId]>::len);
        let runs: Vec<Result<Vec<RowId>>> = pool.run(
            pool.morsels_for(n, PAR_ROW_THRESHOLD, 1)
                .into_iter()
                .map(|r| {
                    let span = match cands {
                        Some(list) => Span::Cands(&list[r]),
                        None => Span::Rows(r),
                    };
                    move || self.select_span(op, value, span)
                })
                .collect(),
        );
        Ok(concat(runs.into_iter().collect::<Result<_>>()?))
    }

    /// The selection kernel over one morsel.
    fn select_span(&self, op: CmpOp, value: &Value, span: Span<'_>) -> Result<Vec<RowId>> {
        let mismatch = || DbError::TypeMismatch {
            expected: self.data_type().to_string(),
            found: value.data_type().map_or("NULL".to_string(), |t| t.to_string()),
        };
        Ok(match &self.data {
            ColumnData::Int(data) => match *value {
                // Allow comparing an INT column against a DOUBLE constant.
                Value::Double(needle) => self.scan(data, span, |&v| {
                    (v as f64).partial_cmp(&needle).is_some_and(|o| op.matches(o))
                }),
                _ => {
                    let needle = value.as_i64().ok_or_else(mismatch)?;
                    self.scan(data, span, |v| op.matches(v.cmp(&needle)))
                }
            },
            ColumnData::Double(data) => {
                let needle = value.as_f64().ok_or_else(mismatch)?;
                self.scan(data, span, |v| v.partial_cmp(&needle).is_some_and(|o| op.matches(o)))
            }
            ColumnData::Str(data) => {
                let needle = value.as_str().ok_or_else(mismatch)?;
                self.scan(data, span, |v| op.matches(v.as_str().cmp(needle)))
            }
            ColumnData::Bool(data) => {
                let needle = value.as_bool().ok_or_else(mismatch)?;
                self.scan(data, span, |v| op.matches(v.cmp(&needle)))
            }
        })
    }

    /// Row ids of `span` whose value is non-NULL and passes `keep`,
    /// ascending.
    fn scan<T>(&self, data: &[T], span: Span<'_>, keep: impl Fn(&T) -> bool) -> Vec<RowId> {
        let mut out = Vec::new();
        match span {
            Span::Rows(r) => {
                let first = r.start;
                for (i, v) in data[r].iter().enumerate() {
                    if !self.is_null(first + i) && keep(v) {
                        out.push((first + i) as RowId);
                    }
                }
            }
            Span::Cands(list) => {
                for &rid in list {
                    if !self.is_null(rid as usize) && keep(&data[rid as usize]) {
                        out.push(rid);
                    }
                }
            }
        }
        out
    }

    /// Range selection `lo <= x <= hi` (both optional); NULLs excluded.
    pub fn select_range(
        &self,
        lo: Option<&Value>,
        hi: Option<&Value>,
        cands: Option<&[RowId]>,
        pool: &WorkerPool,
    ) -> Result<Vec<RowId>> {
        let mut result = match lo {
            Some(v) => self.select(CmpOp::Ge, v, cands, pool)?,
            None => match cands {
                Some(c) => c.to_vec(),
                None => (0..self.len() as RowId).collect(),
            },
        };
        if let Some(v) = hi {
            result = self.select(CmpOp::Le, v, Some(&result), pool)?;
        }
        Ok(result)
    }

    /// Gather the values at `rows` into a new column (positional join).
    pub fn gather(&self, rows: &[RowId]) -> Column {
        // Keep the validity vector only when a NULL is actually
        // gathered, matching `push`-based construction.
        let validity = self.validity.as_ref().and_then(|v| {
            let gathered: Vec<bool> =
                rows.iter().map(|&rid| v[rid as usize]).collect();
            if gathered.iter().all(|&ok| ok) {
                None
            } else {
                Some(gathered)
            }
        });
        let data = match &self.data {
            ColumnData::Int(v) => {
                ColumnData::Int(rows.iter().map(|&rid| v[rid as usize]).collect())
            }
            ColumnData::Double(v) => {
                ColumnData::Double(rows.iter().map(|&rid| v[rid as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(rows.iter().map(|&rid| v[rid as usize].clone()).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(rows.iter().map(|&rid| v[rid as usize]).collect())
            }
        };
        Column { data, validity }
    }

    /// Direct access to integer data for hot loops; `None` when the column
    /// is not an INT column or contains NULLs.
    pub fn as_int_slice(&self) -> Option<&[i64]> {
        match (&self.data, &self.validity) {
            (ColumnData::Int(v), None) => Some(v),
            _ => None,
        }
    }

    /// Direct access to double data; `None` for non-DOUBLE or nullable.
    pub fn as_double_slice(&self) -> Option<&[f64]> {
        match (&self.data, &self.validity) {
            (ColumnData::Double(v), None) => Some(v),
            _ => None,
        }
    }

    /// Minimum over candidates, SQL semantics (NULLs skipped).
    pub fn min(&self, cands: Option<&[RowId]>) -> Value {
        self.fold_cmp(cands, Ordering::Less)
    }

    /// Maximum over candidates, SQL semantics (NULLs skipped).
    pub fn max(&self, cands: Option<&[RowId]>) -> Value {
        self.fold_cmp(cands, Ordering::Greater)
    }

    fn fold_cmp(&self, cands: Option<&[RowId]>, want: Ordering) -> Value {
        let mut best = Value::Null;
        let mut consider = |v: Value| {
            if v.is_null() {
                return;
            }
            if best.is_null() || v.sql_cmp(&best) == Some(want) {
                best = v;
            }
        };
        match cands {
            Some(list) => {
                for &rid in list {
                    consider(self.get(rid as usize));
                }
            }
            None => {
                for i in 0..self.len() {
                    consider(self.get(i));
                }
            }
        }
        best
    }

    /// Sum over candidates (numeric columns; NULLs skipped). Integer
    /// columns sum to `Int`, doubles to `Double`; empty input sums to NULL.
    pub fn sum(&self, cands: Option<&[RowId]>) -> Result<Value> {
        match &self.data {
            ColumnData::Int(data) => {
                let mut acc: i64 = 0;
                let mut any = false;
                let mut add = |i: usize| {
                    if !self.is_null(i) {
                        acc = acc.wrapping_add(data[i]);
                        any = true;
                    }
                };
                match cands {
                    Some(list) => list.iter().for_each(|&r| add(r as usize)),
                    None => (0..data.len()).for_each(&mut add),
                }
                Ok(if any { Value::Int(acc) } else { Value::Null })
            }
            ColumnData::Double(data) => {
                let mut acc = 0.0;
                let mut any = false;
                let mut add = |i: usize| {
                    if !self.is_null(i) {
                        acc += data[i];
                        any = true;
                    }
                };
                match cands {
                    Some(list) => list.iter().for_each(|&r| add(r as usize)),
                    None => (0..data.len()).for_each(&mut add),
                }
                Ok(if any { Value::Double(acc) } else { Value::Null })
            }
            _ => Err(DbError::TypeMismatch {
                expected: "numeric column".into(),
                found: self.data_type().to_string(),
            }),
        }
    }

    /// Count of non-NULL values over candidates.
    pub fn count(&self, cands: Option<&[RowId]>) -> i64 {
        match cands {
            Some(list) => list
                .iter()
                .filter(|&&r| !self.is_null(r as usize))
                .count() as i64,
            None => (self.len() - self.null_count()) as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> WorkerPool {
        WorkerPool::with_threads(4)
    }

    fn int_col() -> Column {
        Column::from_ints(vec![5, 3, 8, 3, 9, 1])
    }

    #[test]
    fn push_and_get() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(3));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = Column::new(DataType::Int);
        assert!(c.push(Value::Str("x".into())).is_err());
    }

    #[test]
    fn push_int_into_double_coerces() {
        let mut c = Column::new(DataType::Double);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Double(3.0));
    }

    #[test]
    fn select_eq() {
        let c = int_col();
        assert_eq!(c.select(CmpOp::Eq, &Value::Int(3), None, &pool()).unwrap(), vec![1, 3]);
    }

    #[test]
    fn select_ops() {
        let c = int_col();
        assert_eq!(c.select(CmpOp::Lt, &Value::Int(4), None, &pool()).unwrap(), vec![1, 3, 5]);
        assert_eq!(c.select(CmpOp::Ge, &Value::Int(8), None, &pool()).unwrap(), vec![2, 4]);
        assert_eq!(c.select(CmpOp::Ne, &Value::Int(3), None, &pool()).unwrap(), vec![0, 2, 4, 5]);
    }

    #[test]
    fn select_with_candidates_narrows() {
        let c = int_col();
        let first = c.select(CmpOp::Gt, &Value::Int(2), None, &pool()).unwrap(); // 0,1,2,3,4
        let second = c.select(CmpOp::Lt, &Value::Int(6), Some(&first), &pool()).unwrap();
        assert_eq!(second, vec![0, 1, 3]);
    }

    #[test]
    fn select_nulls_never_match() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(1)).unwrap();
        assert_eq!(c.select(CmpOp::Eq, &Value::Int(1), None, &pool()).unwrap(), vec![0, 2]);
        assert_eq!(c.select(CmpOp::Ne, &Value::Int(0), None, &pool()).unwrap(), vec![0, 2]);
    }

    #[test]
    fn select_int_column_against_double_constant() {
        let c = int_col();
        assert_eq!(c.select(CmpOp::Gt, &Value::Double(7.5), None, &pool()).unwrap(), vec![2, 4]);
    }

    #[test]
    fn select_range_inclusive() {
        let c = int_col();
        let r = c
            .select_range(Some(&Value::Int(3)), Some(&Value::Int(8)), None, &pool())
            .unwrap();
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_type_error() {
        let c = int_col();
        assert!(c.select(CmpOp::Eq, &Value::Str("x".into()), None, &pool()).is_err());
        // A zero-row column still runs the kernel once, at any pool size.
        let empty = Column::new(DataType::Int);
        for threads in [1, 4] {
            let pool = WorkerPool::with_threads(threads);
            let err = empty.select(CmpOp::Eq, &Value::Str("x".into()), None, &pool);
            assert!(matches!(err, Err(DbError::TypeMismatch { .. })), "threads={threads}");
            let none = empty.select(CmpOp::Eq, &Value::Int(1), Some(&[]), &pool);
            assert_eq!(none.unwrap(), Vec::<RowId>::new(), "threads={threads}");
        }
    }

    #[test]
    fn gather_reorders() {
        let c = int_col();
        let g = c.gather(&[4, 0, 0]);
        assert_eq!(g.get(0), Value::Int(9));
        assert_eq!(g.get(1), Value::Int(5));
        assert_eq!(g.get(2), Value::Int(5));
    }

    #[test]
    fn aggregates() {
        let c = int_col();
        assert_eq!(c.sum(None).unwrap(), Value::Int(29));
        assert_eq!(c.min(None), Value::Int(1));
        assert_eq!(c.max(None), Value::Int(9));
        assert_eq!(c.count(None), 6);
        let cands = vec![0u32, 2];
        assert_eq!(c.sum(Some(&cands)).unwrap(), Value::Int(13));
        assert_eq!(c.count(Some(&cands)), 2);
    }

    #[test]
    fn aggregates_with_nulls() {
        let mut c = Column::new(DataType::Double);
        c.push(Value::Double(1.0)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Double(2.0)).unwrap();
        assert_eq!(c.sum(None).unwrap(), Value::Double(3.0));
        assert_eq!(c.count(None), 2);
        assert_eq!(c.min(None), Value::Double(1.0));
    }

    #[test]
    fn sum_of_empty_is_null() {
        let c = Column::new(DataType::Int);
        assert_eq!(c.sum(None).unwrap(), Value::Null);
        assert_eq!(c.min(None), Value::Null);
    }

    #[test]
    fn sum_of_string_errors() {
        let c = Column::from_strs(vec!["a".into()]);
        assert!(c.sum(None).is_err());
    }

    #[test]
    fn fast_slices_only_when_clean() {
        let c = int_col();
        assert!(c.as_int_slice().is_some());
        let mut n = Column::new(DataType::Int);
        n.push(Value::Null).unwrap();
        assert!(n.as_int_slice().is_none());
        assert!(c.as_double_slice().is_none());
    }

    #[test]
    fn string_selection() {
        let c = Column::from_strs(vec!["b".into(), "a".into(), "c".into(), "a".into()]);
        assert_eq!(c.select(CmpOp::Eq, &Value::Str("a".into()), None, &pool()).unwrap(), vec![1, 3]);
        assert_eq!(c.select(CmpOp::Gt, &Value::Str("a".into()), None, &pool()).unwrap(), vec![0, 2]);
    }

    #[test]
    fn bool_selection() {
        let c = Column::from_bools(vec![true, false, true]);
        assert_eq!(c.select(CmpOp::Eq, &Value::Bool(true), None, &pool()).unwrap(), vec![0, 2]);
    }
}
