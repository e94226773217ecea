//! Tables: named, typed column collections.

use crate::column::{Column, RowId};
use crate::error::DbError;
use crate::value::{DataType, Value};
use crate::Result;

/// A column definition in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-preserving; lookups are case-insensitive).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl ColumnDef {
    /// New column definition.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef { name: name.into(), ty }
    }
}

/// A table: a schema plus one [`Column`] per definition, all equal length.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Vec<ColumnDef>,
    columns: Vec<Column>,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Vec<ColumnDef>) -> Table {
        let columns = schema.iter().map(|d| Column::new(d.ty)).collect();
        Table { name: name.into(), schema, columns }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &[ColumnDef] {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema
            .iter()
            .position(|d| d.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Append one row.
    pub fn insert_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(DbError::ArityMismatch { expected: self.schema.len(), found: values.len() });
        }
        // Validate all values first so a failed row is not half-applied.
        let coerced: Vec<Value> = values
            .into_iter()
            .zip(&self.schema)
            .map(|(v, d)| {
                if v.is_null() {
                    Ok(Value::Null)
                } else {
                    v.clone().coerce(d.ty).ok_or_else(|| DbError::TypeMismatch {
                        expected: d.ty.to_string(),
                        found: v.data_type().map_or("NULL".to_string(), |t| t.to_string()),
                    })
                }
            })
            .collect::<Result<_>>()?;
        for (col, v) in self.columns.iter_mut().zip(coerced) {
            col.push(v)?; // cannot fail: validated above
        }
        Ok(())
    }

    /// Append many rows.
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<usize> {
        let n = rows.len();
        for row in rows {
            self.insert_row(row)?;
        }
        Ok(n)
    }

    /// Read one full row.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Delete the rows in `rids` (must be sorted ascending). Rebuilds the
    /// columns; row ids of surviving rows shift down.
    pub fn delete_rows(&mut self, rids: &[RowId]) {
        if rids.is_empty() {
            return;
        }
        let keep: Vec<RowId> = {
            let mut del = rids.iter().copied().peekable();
            (0..self.num_rows() as RowId)
                .filter(|i| {
                    if del.peek() == Some(i) {
                        del.next();
                        false
                    } else {
                        true
                    }
                })
                .collect()
        };
        for col in &mut self.columns {
            *col = col.gather(&keep);
        }
    }

    /// Apply per-row assignments: for every row id in `rows`, set the
    /// given columns to the supplied values (one value vector per row,
    /// parallel to `rows`). All values are validated before any write.
    pub fn update_rows(
        &mut self,
        rows: &[RowId],
        cols: &[usize],
        values: &[Vec<Value>],
    ) -> Result<()> {
        debug_assert_eq!(rows.len(), values.len());
        // Validate everything first so the update is atomic.
        let mut coerced: Vec<Vec<Value>> = Vec::with_capacity(values.len());
        for vals in values {
            let mut row_out = Vec::with_capacity(vals.len());
            for (&c, v) in cols.iter().zip(vals) {
                let d = &self.schema[c];
                let v = if v.is_null() {
                    Value::Null
                } else {
                    v.clone().coerce(d.ty).ok_or_else(|| DbError::TypeMismatch {
                        expected: d.ty.to_string(),
                        found: v.data_type().map_or("NULL".to_string(), |t| t.to_string()),
                    })?
                };
                row_out.push(v);
            }
            coerced.push(row_out);
        }
        // Rebuild each touched column once (column-store style).
        for (ci, &c) in cols.iter().enumerate() {
            let ty = self.schema[c].ty;
            let mut rebuilt = Column::new(ty);
            let mut patch: std::collections::HashMap<RowId, &Value> = std::collections::HashMap::new();
            for (ri, &rid) in rows.iter().enumerate() {
                patch.insert(rid, &coerced[ri][ci]);
            }
            for i in 0..self.num_rows() {
                let v = match patch.get(&(i as RowId)) {
                    Some(v) => (*v).clone(),
                    None => self.columns[c].get(i),
                };
                rebuilt.push(v)?; // cannot fail: validated above
            }
            self.columns[c] = rebuilt;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "products",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("level", DataType::Str),
                ColumnDef::new("cloud", DataType::Double),
            ],
        );
        t.insert_rows(vec![
            vec![1.into(), "L0".into(), 0.1.into()],
            vec![2.into(), "L1".into(), 0.5.into()],
            vec![3.into(), "L1".into(), Value::Null],
        ])
        .unwrap();
        t
    }

    #[test]
    fn schema_and_shape() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.schema()[1].name, "level");
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = sample();
        assert_eq!(t.column_index("CLOUD").unwrap(), 2);
        assert!(t.column_index("nope").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        assert!(matches!(
            t.insert_row(vec![4.into()]),
            Err(DbError::ArityMismatch { expected: 3, found: 1 })
        ));
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut t = sample();
        // Third value has the wrong type; nothing must be appended.
        let r = t.insert_row(vec![4.into(), "L2".into(), "oops".into()]);
        assert!(r.is_err());
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(0).len(), 3);
    }

    #[test]
    fn nulls_accepted() {
        let t = sample();
        assert_eq!(t.row(2)[2], Value::Null);
    }

    #[test]
    fn int_coerces_to_double_column() {
        let mut t = sample();
        t.insert_row(vec![4.into(), "L2".into(), Value::Int(1)]).unwrap();
        assert_eq!(t.row(3)[2], Value::Double(1.0));
    }

    #[test]
    fn delete_rows_shifts() {
        let mut t = sample();
        t.delete_rows(&[1]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0)[0], Value::Int(1));
        assert_eq!(t.row(1)[0], Value::Int(3));
    }

    #[test]
    fn delete_all() {
        let mut t = sample();
        t.delete_rows(&[0, 1, 2]);
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn delete_empty_noop() {
        let mut t = sample();
        t.delete_rows(&[]);
        assert_eq!(t.num_rows(), 3);
    }
}
