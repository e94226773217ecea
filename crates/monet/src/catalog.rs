//! The database catalog: named tables and arrays, plus the SQL entry point.

use crate::array::NdArray;
use crate::column::RowId;
use crate::error::DbError;
use crate::exec::{self, Chunk};
use crate::sql::ast::{Expr, Statement};
use crate::sql::parser::parse_statement;
use crate::sql::planner::{execute_select, TableProvider};
use crate::table::{ColumnDef, Table};
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Row tuples.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Empty result (used for DDL/DML statements).
    pub(crate) fn empty() -> ResultSet {
        ResultSet { columns: Vec::new(), rows: Vec::new() }
    }

    /// Result carrying a single "rows affected" count.
    pub(crate) fn affected(n: usize) -> ResultSet {
        ResultSet { columns: vec!["affected".into()], rows: vec![vec![Value::Int(n as i64)]] }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned text table (for examples and the portal).
    pub fn to_text(&self) -> String {
        if self.columns.is_empty() {
            return String::from("(empty)\n");
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Value::to_string).collect()).collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, name) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", name, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl From<Chunk> for ResultSet {
    fn from(chunk: Chunk) -> ResultSet {
        let rows = (0..chunk.num_rows()).map(|i| chunk.row(i)).collect();
        ResultSet { columns: chunk.names().to_vec(), rows }
    }
}

/// The catalog: a concurrent map of tables and arrays.
///
/// Cloning the catalog clones the *handle*; the underlying storage is
/// shared (`Arc`), matching how multiple TELEIOS tiers hold the same
/// MonetDB instance.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<CatalogInner>,
}

#[derive(Debug, Default)]
struct CatalogInner {
    tables: RwLock<HashMap<String, Table>>,
    arrays: RwLock<HashMap<String, NdArray>>,
}

// A holder that panicked leaves the maps structurally valid (at worst
// one table mid-`with_table_mut`), so poisoning is recovered from
// instead of failing every later query on the shared catalog.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    // ----- tables ----------------------------------------------------

    /// Create a table; errors when the name is taken.
    pub fn create_table(&self, name: &str, schema: Vec<ColumnDef>) -> Result<()> {
        let mut tables = write(&self.inner.tables);
        let key = Self::key(name);
        if tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_string()));
        }
        tables.insert(key, Table::new(name, schema));
        Ok(())
    }

    /// Drop a table; errors when absent.
    pub(crate) fn drop_table(&self, name: &str) -> Result<()> {
        write(&self.inner.tables)
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Table names, sorted.
    pub(crate) fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            read(&self.inner.tables).values().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// Snapshot (clone) of a table.
    pub fn table(&self, name: &str) -> Result<Table> {
        read(&self.inner.tables)
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Append rows to a table.
    pub fn insert(&self, name: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let mut tables = write(&self.inner.tables);
        let t = tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        t.insert_rows(rows)
    }

    /// Mutate a table in place under the write lock.
    pub(crate) fn with_table_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> R,
    ) -> Result<R> {
        let mut tables = write(&self.inner.tables);
        let t = tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        Ok(f(t))
    }

    // ----- arrays ----------------------------------------------------

    /// Register an array; errors when the name is taken.
    pub fn create_array(&self, name: &str, array: NdArray) -> Result<()> {
        let mut arrays = write(&self.inner.arrays);
        let key = Self::key(name);
        if arrays.contains_key(&key) {
            return Err(DbError::ArrayExists(name.to_string()));
        }
        arrays.insert(key, array);
        Ok(())
    }

    /// Replace (or create) an array.
    pub fn put_array(&self, name: &str, array: NdArray) {
        write(&self.inner.arrays).insert(Self::key(name), array);
    }

    /// Snapshot of an array: it shares the stored cells until either
    /// side writes (copy-on-write), so later catalog updates never show.
    pub fn array(&self, name: &str) -> Result<NdArray> {
        read(&self.inner.arrays)
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| DbError::UnknownArray(name.to_string()))
    }

    /// Drop an array; errors when absent.
    pub fn drop_array(&self, name: &str) -> Result<()> {
        write(&self.inner.arrays)
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownArray(name.to_string()))
    }

    /// True when the array exists.
    pub fn has_array(&self, name: &str) -> bool {
        read(&self.inner.arrays).contains_key(&Self::key(name))
    }

    // ----- SQL entry point -------------------------------------------

    /// Parse and execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        match parse_statement(sql)? {
            Statement::Select(select) => {
                Ok(execute_select(&CatalogProvider(self), &select)?.into())
            }
            Statement::CreateTable { name, columns } => {
                let schema = columns.into_iter().map(|(n, ty)| ColumnDef::new(n, ty)).collect();
                self.create_table(&name, schema)?;
                Ok(ResultSet::empty())
            }
            Statement::DropTable { name } => {
                self.drop_table(&name)?;
                Ok(ResultSet::empty())
            }
            Statement::Insert { table, columns, rows } => {
                let t = self.table(&table)?;
                let empty = Chunk::new(Vec::new(), Vec::new());
                let mut value_rows: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
                for row in rows {
                    let vals: Vec<Value> =
                        row.iter().map(|e| exec::eval_expr(&empty, 0, e)).collect::<Result<_>>()?;
                    let full = match &columns {
                        None => vals,
                        Some(cols) => {
                            if cols.len() != vals.len() {
                                return Err(DbError::ArityMismatch {
                                    expected: cols.len(),
                                    found: vals.len(),
                                });
                            }
                            // Reorder onto the full schema; absent => NULL.
                            let mut full = vec![Value::Null; t.schema().len()];
                            for (c, v) in cols.iter().zip(vals) {
                                let idx = t.column_index(c)?;
                                full[idx] = v;
                            }
                            full
                        }
                    };
                    value_rows.push(full);
                }
                let n = self.insert(&table, value_rows)?;
                Ok(ResultSet::affected(n))
            }
            Statement::Update { table, assignments, where_clause } => {
                let n = self.with_table_mut(&table, |t| -> Result<usize> {
                    let chunk = Chunk::from_table(t, t.name());
                    // Resolve target columns.
                    let cols: Vec<usize> = assignments
                        .iter()
                        .map(|(c, _)| t.column_index(c))
                        .collect::<Result<_>>()?;
                    let rids = rows_to_touch(&chunk, where_clause.as_ref())?;
                    // New values per row (expressions may reference columns).
                    let mut values: Vec<Vec<Value>> = Vec::with_capacity(rids.len());
                    for &rid in &rids {
                        let row_vals: Vec<Value> = assignments
                            .iter()
                            .map(|(_, e)| exec::eval_expr(&chunk, rid as usize, e))
                            .collect::<Result<_>>()?;
                        values.push(row_vals);
                    }
                    t.update_rows(&rids, &cols, &values)?;
                    Ok(rids.len())
                })??;
                Ok(ResultSet::affected(n))
            }
            Statement::Delete { table, where_clause } => {
                let n = self.with_table_mut(&table, |t| -> Result<usize> {
                    let chunk = Chunk::from_table(t, t.name());
                    let rids = rows_to_touch(&chunk, where_clause.as_ref())?;
                    let n = rids.len();
                    t.delete_rows(&rids);
                    Ok(n)
                })??;
                Ok(ResultSet::affected(n))
            }
        }
    }
}

/// The rows an UPDATE or DELETE touches: all of them, or those its
/// WHERE selects through the same selection as SELECT's.
fn rows_to_touch(chunk: &Chunk, where_clause: Option<&Expr>) -> Result<Vec<RowId>> {
    match where_clause {
        None => Ok((0..chunk.num_rows() as RowId).collect()),
        Some(pred) => exec::select_rows(chunk, pred),
    }
}

struct CatalogProvider<'a>(&'a Catalog);

impl TableProvider for CatalogProvider<'_> {
    fn table(&self, name: &str) -> Result<Table> {
        self.0.table(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Catalog {
        let cat = Catalog::new();
        cat.execute("CREATE TABLE products (id INT, level STRING, cloud DOUBLE, sat STRING)")
            .unwrap();
        cat.execute(
            "INSERT INTO products VALUES \
             (1, 'L0', 0.10, 'MSG2'), \
             (2, 'L1', 0.55, 'MSG2'), \
             (3, 'L1', 0.20, 'MSG1'), \
             (4, 'L2', NULL,  'MSG1'), \
             (5, 'L2', 0.80, 'MSG2')",
        )
        .unwrap();
        cat
    }

    #[test]
    fn create_insert_select() {
        let cat = setup();
        let rs = cat.execute("SELECT id, level FROM products WHERE cloud > 0.15").unwrap();
        assert_eq!(rs.columns, vec!["id", "level"]);
        assert_eq!(rs.num_rows(), 3);
    }

    #[test]
    fn select_star_strips_qualifiers() {
        let cat = setup();
        let rs = cat.execute("SELECT * FROM products LIMIT 1").unwrap();
        assert_eq!(rs.columns, vec!["id", "level", "cloud", "sat"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let cat = setup();
        assert!(matches!(
            cat.execute("CREATE TABLE products (x INT)"),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn drop_table_works() {
        let cat = setup();
        cat.execute("DROP TABLE products").unwrap();
        assert!(cat.execute("SELECT * FROM products").is_err());
    }

    #[test]
    fn insert_with_column_list_and_nulls() {
        let cat = setup();
        cat.execute("INSERT INTO products (id, sat) VALUES (6, 'MSG3')").unwrap();
        let rs = cat.execute("SELECT level, cloud FROM products WHERE id = 6").unwrap();
        assert_eq!(rs.rows[0], vec![Value::Null, Value::Null]);
    }

    /// `col op NULL` is unknown for every row under three-valued
    /// logic: SELECT keeps none, UPDATE and DELETE touch none.
    #[test]
    fn comparison_with_null_matches_no_row() {
        let cat = setup();
        for pred in ["id = NULL", "NULL = id", "cloud <> NULL", "level >= NULL", "id < NULL AND id > 1"] {
            let rs = cat.execute(&format!("SELECT id FROM products WHERE {pred}")).unwrap();
            assert_eq!(rs.num_rows(), 0, "{pred}");
        }
        cat.execute("UPDATE products SET level = 'L9' WHERE id = NULL").unwrap();
        cat.execute("DELETE FROM products WHERE sat <> NULL").unwrap();
        let rs = cat.execute("SELECT COUNT(*) FROM products WHERE level = 'L9'").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(cat.execute("SELECT id FROM products").unwrap().num_rows(), 5);
    }

    #[test]
    fn aggregates_group_by_having_order() {
        let cat = setup();
        let rs = cat
            .execute(
                "SELECT sat, COUNT(*) AS n, AVG(cloud) AS avg_cloud \
                 FROM products GROUP BY sat HAVING COUNT(*) >= 2 ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["sat", "n", "avg_cloud"]);
        assert_eq!(rs.num_rows(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("MSG2".into()));
        assert_eq!(rs.rows[0][1], Value::Int(3));
        // AVG skips the NULL cloud.
        let Value::Double(avg) = rs.rows[1][2] else { panic!() };
        assert!((avg - 0.20).abs() < 1e-12);
        // HAVING and ORDER BY compute the aggregates the SELECT list lacks.
        let rs = cat
            .execute(
                "SELECT sat FROM products GROUP BY sat \
                 HAVING CASE WHEN MAX(cloud) > 0.5 THEN 1 END = 1 OR COUNT(*) = 2 ORDER BY STDDEV(id)",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Str("MSG1".into())], vec![Value::Str("MSG2".into())]]);
    }

    #[test]
    fn aggregates_are_found_under_every_operator() {
        let cat = setup();
        let sats = |sql: &str| cat.execute(sql).unwrap().rows;
        let one = |s: &str| vec![vec![Value::Str(s.into())]];
        let q = "SELECT sat FROM products GROUP BY sat";
        assert_eq!(sats(&format!("{q} HAVING SUM(id) BETWEEN 6 AND 7")), one("MSG1"));
        assert_eq!(sats(&format!("{q} HAVING MAX(cloud) IN (0.8, 2)")), one("MSG2"));
        assert_eq!(sats(&format!("{q} HAVING ABS(SUM(id) - 8) = 0")), one("MSG2"));
        let rs = sats(&format!("{q} ORDER BY ABS(SUM(id) - 8)"));
        assert_eq!(rs, vec![vec![Value::Str("MSG2".into())], vec![Value::Str("MSG1".into())]]);
        let rs = sats(
            "SELECT level FROM products WHERE id <> 5 GROUP BY level HAVING MAX(cloud) IS NULL",
        );
        assert_eq!(rs, one("L2"));
    }

    #[test]
    fn join_via_where_uses_hash_join() {
        let cat = setup();
        cat.execute("CREATE TABLE sats (name STRING, agency STRING)").unwrap();
        cat.execute("INSERT INTO sats VALUES ('MSG1', 'EUMETSAT'), ('MSG2', 'EUMETSAT')").unwrap();
        let rs = cat
            .execute(
                "SELECT p.id, s.agency FROM products p, sats s \
                 WHERE p.sat = s.name AND p.cloud < 0.3 ORDER BY p.id",
            )
            .unwrap();
        assert_eq!(rs.num_rows(), 2);
        assert_eq!(rs.rows[0][0], Value::Int(1));
        assert_eq!(rs.rows[1][0], Value::Int(3));
    }

    #[test]
    fn explicit_join_on() {
        let cat = setup();
        cat.execute("CREATE TABLE sats (name STRING, agency STRING)").unwrap();
        cat.execute("INSERT INTO sats VALUES ('MSG1', 'EUMETSAT')").unwrap();
        let rs = cat
            .execute("SELECT p.id FROM products p JOIN sats s ON p.sat = s.name ORDER BY p.id")
            .unwrap();
        assert_eq!(rs.num_rows(), 2); // ids 3 and 4 are MSG1
    }

    #[test]
    fn delete_with_predicate() {
        let cat = setup();
        let rs = cat.execute("DELETE FROM products WHERE level = 'L1'").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
        let rs = cat.execute("SELECT COUNT(*) FROM products").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn delete_all() {
        let cat = setup();
        cat.execute("DELETE FROM products").unwrap();
        let rs = cat.execute("SELECT COUNT(*) AS n FROM products").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }

    #[test]
    fn distinct_and_order() {
        let cat = setup();
        let rs = cat.execute("SELECT DISTINCT level FROM products ORDER BY level").unwrap();
        assert_eq!(rs.num_rows(), 3);
        assert_eq!(rs.rows[0][0], Value::Str("L0".into()));
    }

    #[test]
    fn order_by_expression_alias() {
        let cat = setup();
        let rs = cat
            .execute("SELECT id, cloud * 100 AS pct FROM products WHERE cloud IS NOT NULL ORDER BY pct DESC LIMIT 2")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[1][0], Value::Int(2));
    }

    #[test]
    fn like_and_in_filters() {
        let cat = setup();
        let rs = cat
            .execute("SELECT id FROM products WHERE level LIKE 'L_' AND sat IN ('MSG1')")
            .unwrap();
        assert_eq!(rs.num_rows(), 2);
    }

    #[test]
    fn arrays_in_catalog() {
        let cat = Catalog::new();
        let a = NdArray::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        cat.create_array("img", a.clone()).unwrap();
        assert!(cat.has_array("IMG"));
        assert_eq!(cat.array("img").unwrap(), a);
        assert!(cat.create_array("img", a.clone()).is_err());
        cat.put_array("img", a.map(|v| v * 2.0));
        assert_eq!(cat.array("img").unwrap().sum(), 20.0);
        cat.drop_array("img").unwrap();
        assert!(cat.array("img").is_err());
    }

    #[test]
    fn array_snapshots_are_isolated_from_the_catalog_and_each_other() {
        let cat = Catalog::new();
        cat.create_array("img", NdArray::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()).unwrap();
        let (mut mine, theirs) = (cat.array("img").unwrap(), cat.array("img").unwrap());
        mine.set(&[0, 0], 9.0).unwrap();
        mine.data_mut()[3] = 8.0;
        assert_eq!(theirs.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cat.array("img").unwrap(), theirs);
        // Replacing the stored array leaves earlier snapshots as they were.
        cat.put_array("img", mine.clone());
        assert_eq!(theirs.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cat.array("img").unwrap().data(), &[9.0, 2.0, 3.0, 8.0]);
    }

    #[test]
    fn result_set_text_rendering() {
        let cat = setup();
        let rs = cat.execute("SELECT id, level FROM products LIMIT 2").unwrap();
        let text = rs.to_text();
        assert!(text.contains("id"));
        assert!(text.contains("L0"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn concurrent_handles_share_state() {
        let cat = setup();
        let cat2 = cat.clone();
        cat2.execute("INSERT INTO products VALUES (99, 'L9', 0.0, 'X')").unwrap();
        let rs = cat.execute("SELECT COUNT(*) FROM products").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(6));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let cat = setup();
        assert!(matches!(cat.execute("SELECT * FROM nope"), Err(DbError::UnknownTable(_))));
        assert!(cat.execute("SELECT nope FROM products").is_err());
    }

    #[test]
    fn update_statement() {
        let cat = setup();
        let rs = cat
            .execute("UPDATE products SET level = 'L9', cloud = cloud * 2 WHERE sat = 'MSG2'")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        let rs = cat.execute("SELECT id, level, cloud FROM products ORDER BY id").unwrap();
        assert_eq!(rs.rows[0][1], Value::Str("L9".into()));
        assert_eq!(rs.rows[0][2], Value::Double(0.2));
        // MSG1 rows untouched.
        assert_eq!(rs.rows[2][1], Value::Str("L1".into()));
        // NULL stays NULL through arithmetic.
        assert_eq!(rs.rows[3][2], Value::Null);
    }

    #[test]
    fn update_without_where_touches_all() {
        let cat = setup();
        let rs = cat.execute("UPDATE products SET cloud = 0.0").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
        let rs = cat.execute("SELECT SUM(cloud) AS s FROM products").unwrap();
        assert_eq!(rs.rows[0][0], Value::Double(0.0));
    }

    #[test]
    fn update_type_mismatch_is_atomic() {
        let cat = setup();
        let r = cat.execute("UPDATE products SET id = 'oops'");
        assert!(r.is_err());
        let rs = cat.execute("SELECT id FROM products WHERE id = 1").unwrap();
        assert_eq!(rs.num_rows(), 1);
    }

    #[test]
    fn update_unknown_column_errors() {
        let cat = setup();
        assert!(cat.execute("UPDATE products SET nope = 1").is_err());
    }

    #[test]
    fn count_star_in_order_by() {
        let cat = setup();
        let rs = cat
            .execute(
                "SELECT level, COUNT(*) FROM products GROUP BY level ORDER BY COUNT(*) DESC, level",
            )
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn global_aggregate_no_group() {
        let cat = setup();
        let rs = cat
            .execute("SELECT COUNT(*) AS n, MIN(cloud) AS lo, MAX(cloud) AS hi FROM products")
            .unwrap();
        assert_eq!(rs.rows[0], vec![Value::Int(5), Value::Double(0.1), Value::Double(0.8)]);
    }
}
