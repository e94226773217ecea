//! Generated SQL over seeded tables, checked two ways: every statement
//! — `SELECT … WHERE`, `GROUP BY`, join — answers identically at 1, 2,
//! 3 and 8 threads, and a single-table WHERE keeps exactly the rows
//! the row-at-a-time reference filter (`exec::filter_rowwise`) keeps
//! and, run as `DELETE … WHERE` on a copy of the table, leaves the
//! total minus `SELECT COUNT(*) … WHERE`. Predicates mix comparisons,
//! NULL tests, BETWEEN, IN, NOT, AND, OR and CASE.
//! Tables are either small or straddle the row-parallel threshold, and
//! their columns hold NULL, NaN, -0.0 and extreme integers. A failure
//! shrinks to its smallest table and statement and prints the seed
//! `check_seed` pins it with.

use teleios_check::{forall, Gen};
use teleios_exec::WorkerPool;
use teleios_monet::column::PAR_ROW_THRESHOLD;
use teleios_monet::exec::{filter_rowwise, Chunk};
use teleios_monet::sql::ast::{Select, Statement};
use teleios_monet::sql::parser::parse_statement;
use teleios_monet::sql::planner::{execute_select, TableProvider};
use teleios_monet::table::{ColumnDef, Table};
use teleios_monet::{Catalog, DataType, Value};

const THREADS: [usize; 4] = [1, 2, 3, 8];

struct Tables(Catalog);

impl TableProvider for Tables {
    fn table(&self, name: &str) -> teleios_monet::Result<Table> {
        self.0.table(name)
    }
}

fn int(g: &mut Gen) -> Value {
    match g.below(12) {
        0 => Value::Null,
        1 => Value::Int(i64::MAX),
        2 => Value::Int(i64::MIN),
        _ => Value::Int(g.int(-4..5)),
    }
}

fn double(g: &mut Gen) -> Value {
    match g.below(12) {
        0 => Value::Null,
        1 => Value::Double(f64::NAN),
        2 => Value::Double(-0.0),
        _ => Value::Double(g.int(-8..9) as f64 / 2.0),
    }
}

fn def(name: &str, ty: DataType) -> ColumnDef {
    ColumnDef { name: name.to_string(), ty }
}

fn t_schema() -> Vec<ColumnDef> {
    vec![def("k", DataType::Int), def("v", DataType::Double), def("n", DataType::Int)]
}

/// `t(k INT, v DOUBLE, n INT)`, either a handful of rows or just
/// around the row-parallel threshold, and a small `u(k INT, w DOUBLE)`
/// (a join probes the larger side, so `t` alone crosses the threshold).
fn tables(g: &mut Gen) -> Catalog {
    let catalog = Catalog::new();
    let t_rows = if g.bool() {
        g.size(PAR_ROW_THRESHOLD - 8..PAR_ROW_THRESHOLD + 64)
    } else {
        g.size(0..12)
    };
    let t: Vec<Vec<Value>> = (0..t_rows).map(|_| vec![int(g), double(g), int(g)]).collect();
    let u_rows = g.size(0..12);
    let u: Vec<Vec<Value>> = (0..u_rows).map(|_| vec![int(g), double(g)]).collect();
    catalog.create_table("t", t_schema()).unwrap();
    catalog.insert("t", t).unwrap();
    catalog.create_table("u", vec![def("k", DataType::Int), def("w", DataType::Double)]).unwrap();
    catalog.insert("u", u).unwrap();
    catalog
}

/// An INT literal, an integral DOUBLE literal (`2.0`, which equals INT
/// cells) or a half.
fn literal(g: &mut Gen) -> String {
    match g.below(3) {
        0 => format!("{}", g.int(-5..6)),
        1 => format!("{}.0", g.int(-5..6)),
        _ => format!("{:.1}", g.int(-11..12) as f64 / 2.0),
    }
}

/// One comparison-level predicate over `cols`.
fn atom(g: &mut Gen, cols: &[&str]) -> String {
    let c = cols[g.below(cols.len())];
    let op = ["=", "<>", "<", "<=", ">", ">="][g.below(6)];
    match g.below(9) {
        0 => format!("{} {op} {c}", literal(g)),
        1 => format!("{c} IS {}NULL", if g.bool() { "NOT " } else { "" }),
        2 => format!("{c} BETWEEN {} AND {}", literal(g), literal(g)),
        3 => {
            format!("{c} {}IN ({}, {})", if g.bool() { "NOT " } else { "" }, literal(g), literal(g))
        }
        4 => format!("{c} + {} {op} {}", literal(g), cols[g.below(cols.len())]),
        // A value-level CASE: a NULL condition skips its arm, and with
        // no ELSE an untaken CASE is NULL.
        5 => {
            let when = format!("{} {op} {}", cols[g.below(cols.len())], literal(g));
            let otherwise = if g.bool() { format!(" ELSE {}", literal(g)) } else { String::new() };
            format!(
                "CASE WHEN {when} THEN {c}{otherwise} END {} {}",
                ["=", "<", ">="][g.below(3)],
                literal(g)
            )
        }
        _ => format!("{c} {op} {}", literal(g)),
    }
}

fn predicate(g: &mut Gen, cols: &[&str], depth: usize) -> String {
    if depth == 0 || g.below(3) == 0 {
        return atom(g, cols);
    }
    match g.below(4) {
        0 => format!("NOT ({})", predicate(g, cols, depth - 1)),
        // A CASE whose arms are predicates is one too.
        1 => format!(
            "CASE WHEN {} THEN {} ELSE {} END",
            predicate(g, cols, depth - 1),
            predicate(g, cols, depth - 1),
            predicate(g, cols, depth - 1)
        ),
        2 => format!("({}) OR ({})", predicate(g, cols, depth - 1), predicate(g, cols, depth - 1)),
        _ => format!("{} AND {}", predicate(g, cols, depth - 1), predicate(g, cols, depth - 1)),
    }
}

fn statement(g: &mut Gen) -> String {
    const T: [&str; 3] = ["t.k", "t.v", "t.n"];
    const TU: [&str; 4] = ["t.k", "t.v", "t.n", "u.w"];
    match g.below(4) {
        0 | 1 => format!("SELECT * FROM t WHERE {}", predicate(g, &T, 2)),
        2 => format!(
            "SELECT t.k, COUNT(*) AS c, SUM(t.v) AS s, MIN(t.n) AS lo, MAX(t.v) AS hi, AVG(t.n) AS m \
             FROM t WHERE {} GROUP BY t.k",
            predicate(g, &T, 2)
        ),
        _ if g.bool() => format!(
            "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k WHERE {}",
            predicate(g, &TU, 1)
        ),
        _ => format!(
            "SELECT t.n, u.w FROM t, u WHERE t.k = u.k AND {}",
            predicate(g, &TU, 1)
        ),
    }
}

type Answer = Result<Vec<String>, String>;

/// A chunk's rows as text, NaN and -0.0 included, so two answers
/// compare exactly.
fn rows(chunk: teleios_monet::Result<Chunk>) -> Answer {
    let chunk = chunk.map_err(|e| e.to_string())?;
    Ok((0..chunk.num_rows()).map(|i| format!("{:?}", chunk.row(i))).collect())
}

/// Fail with the first place two answers part, not both whole answers.
fn assert_same(got: &Answer, want: &Answer, what: &str) {
    let (Ok(g), Ok(w)) = (got, want) else {
        assert_eq!(
            got.is_ok(),
            want.is_ok(),
            "{what}: {:?} vs {:?}",
            got.as_ref().err(),
            want.as_ref().err()
        );
        return;
    };
    if let Some(i) = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)) {
        panic!(
            "{what}: {} vs {} rows, first difference at row {i}: {:?} vs {:?}",
            g.len(),
            w.len(),
            g.get(i),
            w.get(i)
        );
    }
}

fn select(sql: &str) -> Select {
    match parse_statement(sql) {
        Ok(Statement::Select(s)) => s,
        other => panic!("{sql} did not parse as a SELECT: {other:?}"),
    }
}

/// Run `sql` at every thread count (and, for a single-table WHERE,
/// through the reference filter); all answers must agree. Returns the
/// one-thread answer.
fn agree(tables: &Tables, sql: &str) -> Answer {
    let select = select(sql);
    let answer =
        |threads| rows(execute_select(&WorkerPool::with_threads(threads), tables, &select));
    let one = answer(1);
    for threads in &THREADS[1..] {
        assert_same(&answer(*threads), &one, &format!("{sql} at {threads} threads vs 1"));
    }
    if let Some(predicate) = sql.strip_prefix("SELECT * FROM t WHERE ") {
        let table = tables.0.table("t").unwrap();
        let t = Chunk::from_table(&table, "t");
        let reference = rows(filter_rowwise(&t, select.where_clause.as_ref().unwrap()));
        assert_same(&one, &reference, &format!("{sql} vs the row-at-a-time reference"));
        // DELETE picks its rows through the same selection as SELECT.
        let copy = Catalog::new();
        copy.create_table("t", t_schema()).unwrap();
        copy.insert("t", (0..t.num_rows()).map(|i| t.row(i)).collect()).unwrap();
        let deleted = copy.execute(&format!("DELETE FROM t WHERE {predicate}"));
        let counted = tables.0.execute(&format!("SELECT COUNT(*) FROM t WHERE {predicate}"));
        match (deleted, counted) {
            (Ok(_), Ok(counted)) => {
                let left = copy.table("t").unwrap().num_rows() as i64;
                let removed = Value::Int(t.num_rows() as i64 - left);
                assert_eq!(removed, counted.rows[0][0], "DELETE FROM t WHERE {predicate}");
            }
            (deleted, counted) => {
                assert_eq!(deleted.is_ok(), counted.is_ok(), "DELETE vs COUNT WHERE {predicate}")
            }
        }
    }
    one
}

#[test]
fn generated_sql_agrees_across_threads_and_with_the_rowwise_filter() {
    forall(
        |g| (tables(g), statement(g)),
        |(catalog, sql)| {
            let _checked = agree(&Tables(catalog), &sql);
        },
    );
}

/// Shrunk from the generator's first failure (seed 92): a NaN cell
/// made the row-at-a-time filter fail `0 <= t.v` with a type error
/// while the columnar select skipped the row. NaN against a number is
/// now unknown on both paths, whichever way round it is written.
#[test]
fn nan_against_a_number_is_unknown_on_both_paths() {
    let catalog = Catalog::new();
    catalog.create_table("t", t_schema()).unwrap();
    let row = |k, v| vec![Value::Int(k), Value::Double(v), Value::Int(k)];
    catalog.insert("t", vec![row(1, f64::NAN), row(2, 0.5)]).unwrap();
    let tables = Tables(catalog);
    for sql in [
        "SELECT * FROM t WHERE 0 <= t.v",
        "SELECT * FROM t WHERE t.v <> 0",
        "SELECT * FROM t WHERE NOT (t.v = 0)",
        "SELECT * FROM t WHERE t.v + 2 > t.k",
    ] {
        let kept = agree(&tables, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(kept, vec![format!("{:?}", row(2, 0.5))], "{sql}");
    }
}
