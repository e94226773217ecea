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

/// Row identifier within a column/table.
pub(crate) type RowId = u32;

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

#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
}

impl Column {
    /// Empty column of the given type.
    pub(crate) fn new(ty: DataType) -> Column {
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

    /// The column's data type.
    pub(crate) fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Double(_) => DataType::Double,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when row `i` holds NULL.
    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Number of NULL rows.
    pub(crate) fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |v| v.iter().filter(|&&ok| !ok).count())
    }

    /// Append a value, coercing ints to double where needed.
    pub(crate) fn push(&mut self, value: Value) -> Result<()> {
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
    pub(crate) fn get(&self, i: usize) -> Value {
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
    /// NULL rows never match, and neither does a NULL constant: under
    /// three-valued logic `x op NULL` is unknown for every row.
    pub fn select(&self, op: CmpOp, value: &Value, cands: Option<&[RowId]>) -> Result<Vec<RowId>> {
        let Some(found) = value.data_type() else {
            return Ok(Vec::new());
        };
        let mismatch =
            || DbError::TypeMismatch { expected: self.data_type().to_string(), found: found.to_string() };
        Ok(match &self.data {
            ColumnData::Int(data) => match *value {
                // Allow comparing an INT column against a DOUBLE constant.
                Value::Double(needle) => self.scan(data, cands, |&v| {
                    (v as f64).partial_cmp(&needle).is_some_and(|o| op.matches(o))
                }),
                _ => {
                    let needle = value.as_i64().ok_or_else(mismatch)?;
                    self.scan(data, cands, |v| op.matches(v.cmp(&needle)))
                }
            },
            ColumnData::Double(data) => {
                let needle = value.as_f64().ok_or_else(mismatch)?;
                self.scan(data, cands, |v| v.partial_cmp(&needle).is_some_and(|o| op.matches(o)))
            }
            ColumnData::Str(data) => {
                let needle = value.as_str().ok_or_else(mismatch)?;
                self.scan(data, cands, |v| op.matches(v.as_str().cmp(needle)))
            }
            ColumnData::Bool(data) => {
                let needle = value.as_bool().ok_or_else(mismatch)?;
                self.scan(data, cands, |v| op.matches(v.cmp(&needle)))
            }
        })
    }

    /// Row ids of `cands` (or of the whole column) whose value is
    /// non-NULL and passes `keep`, ascending.
    fn scan<T>(&self, data: &[T], cands: Option<&[RowId]>, keep: impl Fn(&T) -> bool) -> Vec<RowId> {
        let pass = |rid: usize| !self.is_null(rid) && keep(&data[rid]);
        match cands {
            Some(list) => list.iter().copied().filter(|&rid| pass(rid as usize)).collect(),
            None => (0..data.len()).filter(|&rid| pass(rid)).map(|rid| rid as RowId).collect(),
        }
    }

    /// Gather the values at `rows` into a new column (positional join).
    pub(crate) fn gather(&self, rows: &[RowId]) -> Column {
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.select(CmpOp::Eq, &Value::Int(3), None).unwrap(), vec![1, 3]);
    }

    #[test]
    fn select_ops() {
        let c = int_col();
        assert_eq!(c.select(CmpOp::Lt, &Value::Int(4), None).unwrap(), vec![1, 3, 5]);
        assert_eq!(c.select(CmpOp::Ge, &Value::Int(8), None).unwrap(), vec![2, 4]);
        assert_eq!(c.select(CmpOp::Ne, &Value::Int(3), None).unwrap(), vec![0, 2, 4, 5]);
    }

    #[test]
    fn select_with_candidates_narrows() {
        let c = int_col();
        let first = c.select(CmpOp::Gt, &Value::Int(2), None).unwrap(); // 0,1,2,3,4
        let second = c.select(CmpOp::Lt, &Value::Int(6), Some(&first)).unwrap();
        assert_eq!(second, vec![0, 1, 3]);
    }

    #[test]
    fn select_nulls_never_match() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(1)).unwrap();
        assert_eq!(c.select(CmpOp::Eq, &Value::Int(1), None).unwrap(), vec![0, 2]);
        assert_eq!(c.select(CmpOp::Ne, &Value::Int(0), None).unwrap(), vec![0, 2]);
        // Nor does any row against a NULL constant.
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            assert!(c.select(op, &Value::Null, None).unwrap().is_empty());
            assert!(c.select(op, &Value::Null, Some(&[0, 1, 2])).unwrap().is_empty());
        }
    }

    #[test]
    fn select_int_column_against_double_constant() {
        let c = int_col();
        assert_eq!(c.select(CmpOp::Gt, &Value::Double(7.5), None).unwrap(), vec![2, 4]);
    }

    #[test]
    fn select_type_error() {
        let c = int_col();
        assert!(c.select(CmpOp::Eq, &Value::Str("x".into()), None).is_err());
        // A zero-row column still type-checks the needle.
        let empty = Column::new(DataType::Int);
        let err = empty.select(CmpOp::Eq, &Value::Str("x".into()), None);
        assert!(matches!(err, Err(DbError::TypeMismatch { .. })));
        assert_eq!(empty.select(CmpOp::Eq, &Value::Int(1), Some(&[])).unwrap(), Vec::<RowId>::new());
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
    fn string_selection() {
        let mut c = Column::new(DataType::Str);
        for s in ["b", "a", "c", "a"] {
            c.push(Value::Str(s.into())).unwrap();
        }
        assert_eq!(c.select(CmpOp::Eq, &Value::Str("a".into()), None).unwrap(), vec![1, 3]);
        assert_eq!(c.select(CmpOp::Gt, &Value::Str("a".into()), None).unwrap(), vec![0, 2]);
    }

    #[test]
    fn bool_selection() {
        let mut c = Column::new(DataType::Bool);
        for b in [true, false, true] {
            c.push(Value::Bool(b)).unwrap();
        }
        assert_eq!(c.select(CmpOp::Eq, &Value::Bool(true), None).unwrap(), vec![0, 2]);
    }
}
