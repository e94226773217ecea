//! Property-based tests for the column store, SQL layer and arrays.

use teleios_check::{forall, Gen};
use teleios_exec::WorkerPool;
use teleios_monet::array::NdArray;
use teleios_monet::catalog::Catalog;
use teleios_monet::column::{CmpOp, Column};
use teleios_monet::value::Value;

fn values(g: &mut Gen) -> Vec<i64> {
    g.vec(0..200, |g| g.int(-1000..1000))
}

/// A one-column table `t (v INT)` holding `vals`.
fn table_of(vals: &[i64]) -> Catalog {
    let cat = Catalog::new();
    cat.execute("CREATE TABLE t (v INT)").unwrap();
    cat.insert("t", vals.iter().map(|&v| vec![Value::Int(v)]).collect()).unwrap();
    cat
}

#[test]
fn column_select_matches_linear_scan() {
    forall(
        |g| (values(g), g.int(-1000..1000)),
        |(vals, needle)| {
            let col = Column::from_ints(vals.clone());
            for (op, pred) in [
                (CmpOp::Eq, Box::new(|v: i64| v == needle) as Box<dyn Fn(i64) -> bool>),
                (CmpOp::Ne, Box::new(move |v| v != needle)),
                (CmpOp::Lt, Box::new(move |v| v < needle)),
                (CmpOp::Le, Box::new(move |v| v <= needle)),
                (CmpOp::Gt, Box::new(move |v| v > needle)),
                (CmpOp::Ge, Box::new(move |v| v >= needle)),
            ] {
                let got = col.select(op, &Value::Int(needle), None, &WorkerPool::default()).unwrap();
                let expect: Vec<u32> = vals
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| pred(v))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, expect);
            }
        },
    );
}

#[test]
fn column_candidates_compose() {
    forall(
        |g| (values(g), g.int(-500..0), g.int(0..500)),
        |(vals, lo, hi)| {
            let col = Column::from_ints(vals);
            // select(ge lo) then select(le hi) over candidates == range select.
            let pool = WorkerPool::default();
            let first = col.select(CmpOp::Ge, &Value::Int(lo), None, &pool).unwrap();
            let narrowed = col.select(CmpOp::Le, &Value::Int(hi), Some(&first), &pool).unwrap();
            let range = col
                .select_range(Some(&Value::Int(lo)), Some(&Value::Int(hi)), None, &pool)
                .unwrap();
            assert_eq!(narrowed, range);
        },
    );
}

#[test]
fn column_aggregates_match_reference() {
    forall(values, |vals| {
        let col = Column::from_ints(vals.clone());
        if vals.is_empty() {
            assert_eq!(col.sum(None).unwrap(), Value::Null);
        } else {
            assert_eq!(col.sum(None).unwrap(), Value::Int(vals.iter().sum()));
            assert_eq!(col.min(None), Value::Int(*vals.iter().min().unwrap()));
            assert_eq!(col.max(None), Value::Int(*vals.iter().max().unwrap()));
        }
        assert_eq!(col.count(None), vals.len() as i64);
    });
}

#[test]
fn sql_where_matches_reference() {
    forall(
        |g| (values(g), g.int(-1000..1000)),
        |(vals, threshold)| {
            let rs = table_of(&vals)
                .execute(&format!("SELECT COUNT(*) AS n FROM t WHERE v > {threshold}"))
                .unwrap();
            let expect = vals.iter().filter(|&&v| v > threshold).count() as i64;
            assert_eq!(rs.rows[0][0].clone(), Value::Int(expect));
        },
    );
}

#[test]
fn sql_order_by_sorts() {
    forall(values, |vals| {
        let rs = table_of(&vals).execute("SELECT v FROM t ORDER BY v").unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut expect = vals;
        expect.sort_unstable();
        assert_eq!(got, expect);
    });
}

#[test]
fn sql_group_by_partitions() {
    forall(
        |g| g.vec(1..200, |g| g.int(0..10)),
        |vals| {
            let rs = table_of(&vals)
                .execute("SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY v")
                .unwrap();
            // Group counts sum to the row count, and each count is correct.
            let mut total = 0i64;
            for row in &rs.rows {
                let key = row[0].as_i64().unwrap();
                let n = row[1].as_i64().unwrap();
                assert_eq!(n, vals.iter().filter(|&&v| v == key).count() as i64);
                total += n;
            }
            assert_eq!(total, vals.len() as i64);
        },
    );
}

#[test]
fn array_slice_then_sum_is_partial_sum() {
    forall(
        |g| (g.size(1..12), g.size(1..12), g.size(0..12), g.size(0..12)),
        |(rows, cols, r0, c0)| {
            let a = NdArray::matrix(rows, cols, (0..rows * cols).map(|v| v as f64).collect()).unwrap();
            let r0 = r0 % rows;
            let c0 = c0 % cols;
            let s = a.slice(&[(r0, rows), (c0, cols)]).unwrap();
            let mut expect = 0.0;
            for r in r0..rows {
                for c in c0..cols {
                    expect += a.get(&[r, c]).unwrap();
                }
            }
            assert!((s.sum() - expect).abs() < 1e-9);
        },
    );
}

#[test]
fn array_tiles_partition_sum() {
    forall(
        |g| (g.size(1..8), g.size(1..8), g.size(1..4)),
        |(rows, cols, t)| {
            let a = NdArray::matrix(rows, cols, (0..rows * cols).map(|v| (v % 7) as f64).collect())
                .unwrap();
            if rows % t == 0 && cols % t == 0 {
                let tiles = a.tiles(&[t, t]).unwrap();
                let total: f64 = tiles.iter().map(|(_, tile)| tile.sum()).sum();
                assert!((total - a.sum()).abs() < 1e-9);
            }
        },
    );
}

#[test]
fn array_map_preserves_shape_and_inverts() {
    forall(
        |g| g.vec(1..64, |g| g.float(-100.0..100.0)),
        |data| {
            let a = NdArray::matrix(1, data.len(), data).unwrap();
            let doubled = a.map(|v| v * 2.0);
            let back = doubled.map(|v| v / 2.0);
            assert_eq!(back.shape(), a.shape());
            for (x, y) in back.data().iter().zip(a.data()) {
                assert!((x - y).abs() < 1e-12);
            }
        },
    );
}

#[test]
fn sql_delete_complements_select() {
    forall(
        |g| (values(g), g.int(-1000..1000)),
        |(vals, threshold)| {
            let cat = table_of(&vals);
            let keep = vals.iter().filter(|&&v| v <= threshold).count();
            cat.execute(&format!("DELETE FROM t WHERE v > {threshold}")).unwrap();
            let rs = cat.execute("SELECT COUNT(*) AS n FROM t").unwrap();
            assert_eq!(rs.rows[0][0].clone(), Value::Int(keep as i64));
        },
    );
}
