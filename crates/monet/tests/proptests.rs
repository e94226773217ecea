//! Property-based tests for the column store, SQL layer and arrays.

use proptest::prelude::*;
use teleios_monet::array::NdArray;
use teleios_monet::catalog::Catalog;
use teleios_monet::column::{CmpOp, Column};
use teleios_monet::value::Value;
use teleios_exec::WorkerPool;

fn values_strategy() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1000i64..1000, 0..200)
}

proptest! {
    #[test]
    fn column_select_matches_linear_scan(vals in values_strategy(), needle in -1000i64..1000) {
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
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn column_candidates_compose(vals in values_strategy(), lo in -500i64..0, hi in 0i64..500) {
        let col = Column::from_ints(vals.clone());
        // select(ge lo) then select(le hi) over candidates == range select.
        let pool = WorkerPool::default();
        let first = col.select(CmpOp::Ge, &Value::Int(lo), None, &pool).unwrap();
        let narrowed = col.select(CmpOp::Le, &Value::Int(hi), Some(&first), &pool).unwrap();
        let range = col
            .select_range(Some(&Value::Int(lo)), Some(&Value::Int(hi)), None, &pool)
            .unwrap();
        prop_assert_eq!(narrowed, range);
    }

    #[test]
    fn column_aggregates_match_reference(vals in values_strategy()) {
        let col = Column::from_ints(vals.clone());
        if vals.is_empty() {
            prop_assert_eq!(col.sum(None).unwrap(), Value::Null);
        } else {
            prop_assert_eq!(col.sum(None).unwrap(), Value::Int(vals.iter().sum()));
            prop_assert_eq!(col.min(None), Value::Int(*vals.iter().min().unwrap()));
            prop_assert_eq!(col.max(None), Value::Int(*vals.iter().max().unwrap()));
        }
        prop_assert_eq!(col.count(None), vals.len() as i64);
    }

    #[test]
    fn sql_where_matches_reference(vals in values_strategy(), threshold in -1000i64..1000) {
        let cat = Catalog::new();
        cat.execute("CREATE TABLE t (v INT)").unwrap();
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        cat.insert("t", rows).unwrap();
        let rs = cat
            .execute(&format!("SELECT COUNT(*) AS n FROM t WHERE v > {threshold}"))
            .unwrap();
        let expect = vals.iter().filter(|&&v| v > threshold).count() as i64;
        prop_assert_eq!(rs.rows[0][0].clone(), Value::Int(expect));
    }

    #[test]
    fn sql_order_by_sorts(vals in values_strategy()) {
        let cat = Catalog::new();
        cat.execute("CREATE TABLE t (v INT)").unwrap();
        cat.insert("t", vals.iter().map(|&v| vec![Value::Int(v)]).collect()).unwrap();
        let rs = cat.execute("SELECT v FROM t ORDER BY v").unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut expect = vals.clone();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn sql_group_by_partitions(vals in proptest::collection::vec(0i64..10, 1..200)) {
        let cat = Catalog::new();
        cat.execute("CREATE TABLE t (v INT)").unwrap();
        cat.insert("t", vals.iter().map(|&v| vec![Value::Int(v)]).collect()).unwrap();
        let rs = cat
            .execute("SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY v")
            .unwrap();
        // Group counts sum to the row count, and each count is correct.
        let mut total = 0i64;
        for row in &rs.rows {
            let key = row[0].as_i64().unwrap();
            let n = row[1].as_i64().unwrap();
            prop_assert_eq!(n, vals.iter().filter(|&&v| v == key).count() as i64);
            total += n;
        }
        prop_assert_eq!(total, vals.len() as i64);
    }

    #[test]
    fn array_slice_then_sum_is_partial_sum(
        rows in 1usize..12, cols in 1usize..12,
        r0 in 0usize..12, c0 in 0usize..12,
    ) {
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
        prop_assert!((s.sum() - expect).abs() < 1e-9);
    }

    #[test]
    fn array_tiles_partition_sum(rows in 1usize..8, cols in 1usize..8, t in 1usize..4) {
        let a = NdArray::matrix(rows, cols, (0..rows * cols).map(|v| (v % 7) as f64).collect())
            .unwrap();
        if rows % t == 0 && cols % t == 0 {
            let tiles = a.tiles(&[t, t]).unwrap();
            let total: f64 = tiles.iter().map(|(_, tile)| tile.sum()).sum();
            prop_assert!((total - a.sum()).abs() < 1e-9);
        }
    }

    #[test]
    fn array_map_preserves_shape_and_inverts(data in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        let a = NdArray::matrix(1, data.len(), data.clone()).unwrap();
        let doubled = a.map(|v| v * 2.0);
        let back = doubled.map(|v| v / 2.0);
        prop_assert_eq!(back.shape(), a.shape());
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sql_delete_complements_select(vals in values_strategy(), threshold in -1000i64..1000) {
        let cat = Catalog::new();
        cat.execute("CREATE TABLE t (v INT)").unwrap();
        cat.insert("t", vals.iter().map(|&v| vec![Value::Int(v)]).collect()).unwrap();
        let keep = vals.iter().filter(|&&v| v <= threshold).count();
        cat.execute(&format!("DELETE FROM t WHERE v > {threshold}")).unwrap();
        let rs = cat.execute("SELECT COUNT(*) AS n FROM t").unwrap();
        prop_assert_eq!(rs.rows[0][0].clone(), Value::Int(keep as i64));
    }
}
