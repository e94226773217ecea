//! Property-based tests for the column store, SQL layer and arrays.

use teleios_check::{forall, Gen};
use teleios_exec::WorkerPool;
use teleios_monet::array::{Dim, NdArray};
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
            let col = Column::from_ints(vals.clone());
            // select(ge lo) then select(le hi) over its candidates == range scan.
            let pool = WorkerPool::default();
            let first = col.select(CmpOp::Ge, &Value::Int(lo), None, &pool).unwrap();
            let narrowed = col.select(CmpOp::Le, &Value::Int(hi), Some(&first), &pool).unwrap();
            let expect: Vec<u32> = vals
                .iter()
                .enumerate()
                .filter(|(_, &v)| lo <= v && v <= hi)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(narrowed, expect);
        },
    );
}

/// Integers clustered where doubles and i64 run out of room: around
/// ±2⁵³ (the last exact double) and ±`i64::MAX`, plus small values.
fn edge_values(g: &mut Gen) -> Vec<i64> {
    const EXACT: i64 = 1 << 53;
    g.vec(0..12, |g| match g.below(5) {
        0 => g.int(-1000..1000),
        1 => EXACT + g.int(-4..5),
        2 => -EXACT + g.int(-4..5),
        3 => i64::MAX - g.int(0..4),
        _ => i64::MIN + g.int(0..4),
    })
}

#[test]
fn sql_aggregates_match_reference() {
    forall(edge_values, |vals| {
        let rs = table_of(&vals)
            .execute("SELECT SUM(v), MIN(v), MAX(v), COUNT(v), COUNT(*) FROM t")
            .unwrap();
        let row = &rs.rows[0];
        // SUM adds in table order the way `+` does: exact while every
        // partial sum fits in i64, in doubles from the first overflow on.
        let mut partial = 0i128;
        let mut overflows = false;
        for &v in &vals {
            partial += i128::from(v);
            overflows |= i64::try_from(partial).is_err();
        }
        match (&row[0], vals.is_empty(), overflows) {
            (Value::Null, true, _) => {}
            (Value::Int(sum), false, false) => assert_eq!(i128::from(*sum), partial),
            (Value::Double(sum), false, true) => {
                let magnitude: f64 = vals.iter().map(|&v| (v as f64).abs()).sum();
                let bound = (vals.len() + 1) as f64 * f64::EPSILON * magnitude;
                assert!((sum - partial as f64).abs() <= bound, "SUM {sum} vs exact {partial}");
            }
            (got, _, _) => panic!("SUM gave {got:?} for {vals:?}"),
        }
        let (min, max) = match (vals.iter().min(), vals.iter().max()) {
            (Some(&lo), Some(&hi)) => (Value::Int(lo), Value::Int(hi)),
            _ => (Value::Null, Value::Null),
        };
        assert_eq!(row[1], min);
        assert_eq!(row[2], max);
        assert_eq!(row[3], Value::Int(vals.len() as i64));
        assert_eq!(row[4], Value::Int(vals.len() as i64));
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

/// A rank 1–4 array of distinct cells (a misplaced cell always shows)
/// and, per dimension, a range that is empty, full, a prefix or interior.
fn array_and_ranges(g: &mut Gen) -> (Vec<usize>, Vec<(usize, usize)>) {
    let shape = g.vec(1..5, |g| g.size(1..6));
    let ranges = shape
        .iter()
        .map(|&size| match g.below(4) {
            0 => (0, size),
            1 => (0, g.size(0..size + 1)),
            2 => {
                let at = g.size(0..size + 1);
                (at, at)
            }
            _ => {
                let start = g.size(0..size);
                (start, g.size(start..size + 1))
            }
        })
        .collect();
    (shape, ranges)
}

fn ramp(shape: &[usize]) -> NdArray {
    let dims = shape.iter().enumerate().map(|(i, &n)| Dim::new(format!("d{i}"), n)).collect();
    NdArray::from_vec(dims, (0..shape.iter().product::<usize>()).map(|v| v as f64).collect()).unwrap()
}

/// The cell-at-a-time reference the run walker replaced: every
/// coordinate of `ranges` in row-major order.
fn coordinates(ranges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    ranges.iter().fold(vec![Vec::new()], |prefixes, &(start, end)| {
        prefixes
            .iter()
            .flat_map(|p| (start..end).map(move |i| p.iter().copied().chain([i]).collect()))
            .collect()
    })
}

fn slice_by_cells(a: &NdArray, ranges: &[(usize, usize)]) -> Vec<f64> {
    coordinates(ranges).iter().map(|c| a.get(c).unwrap()).collect()
}

#[test]
fn array_slice_matches_cell_at_a_time_reference() {
    forall(array_and_ranges, |(shape, ranges)| {
        let a = ramp(&shape);
        let s = a.slice(&ranges).unwrap();
        assert_eq!(s.shape(), ranges.iter().map(|(start, end)| end - start).collect::<Vec<_>>());
        assert_eq!(s.data(), slice_by_cells(&a, &ranges));
        assert!(s.dims().iter().zip(a.dims()).all(|(x, y)| x.name == y.name));
        // `walk_rows` visits the same cells, with their coordinates.
        let mut walked = Vec::new();
        a.walk_rows(&ranges, |start, offset, len| {
            assert_eq!(a.linear_index(start).unwrap(), offset);
            walked.extend_from_slice(&a.data()[offset..offset + len]);
            Ok(())
        })
        .unwrap();
        assert_eq!(walked, s.data());
    });
}

#[test]
fn array_tiles_match_cell_at_a_time_reference() {
    forall(
        |g| {
            let (shape, _) = array_and_ranges(g);
            let tile = shape.iter().map(|&size| g.size(1..size + 2)).collect::<Vec<_>>();
            (shape, tile)
        },
        |(shape, tile)| {
            let a = ramp(&shape);
            let grid: Vec<(usize, usize)> = shape.iter().zip(&tile).map(|(&n, &t)| (0, n / t)).collect();
            let expect: Vec<(Vec<usize>, Vec<f64>)> = coordinates(&grid)
                .into_iter()
                .map(|at| {
                    let origin: Vec<usize> = at.iter().zip(&tile).map(|(&i, &t)| i * t).collect();
                    let ranges: Vec<_> = origin.iter().zip(&tile).map(|(&o, &t)| (o, o + t)).collect();
                    let cells = slice_by_cells(&a, &ranges);
                    (origin, cells)
                })
                .collect();
            let got = a.tiles(&tile).unwrap();
            assert!(got.iter().all(|(_, t)| t.shape() == tile));
            let got: Vec<_> = got.into_iter().map(|(origin, t)| (origin, t.data().to_vec())).collect();
            assert_eq!(got, expect);
        },
    );
}

/// Clones share one buffer; a write through any holder is seen by no other.
#[test]
fn array_clones_are_isolated_by_copy_on_write() {
    forall(array_and_ranges, |(shape, ranges)| {
        let a = ramp(&shape);
        let before = a.data().to_vec();
        let (mut by_clone, mut by_slice) = (a.clone(), a.slice(&ranges).unwrap());
        by_clone.data_mut().iter_mut().for_each(|v| *v = -1.0);
        by_slice.data_mut().iter_mut().for_each(|v| *v = -2.0);
        let mut by_set = a.clone();
        by_set.set(&vec![0; shape.len()], -3.0).unwrap();
        assert_eq!(a.data(), before);
        assert!(by_clone.data().iter().all(|&v| v == -1.0));
        assert_eq!(by_set.data()[1..], before[1..]);
    });
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

/// The SQL statements monet's tests run: every clause and literal form.
const SQL_SEEDS: [&str; 14] = [
    "CREATE TABLE products (id INT, level STRING, cloud DOUBLE, sat STRING)",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
    "INSERT INTO t VALUES (-1, -2.5), ('it''s', .5), ('Πελοπόννησος', 1e3)",
    "DELETE FROM products WHERE level = 'L1'",
    "DROP TABLE products",
    "UPDATE products SET level = 'L9', cloud = cloud * 2 WHERE sat = 'MSG2'",
    "SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w",
    "SELECT * FROM a INNER JOIN b ON a.x = b.y, d -- trailing comment",
    "SELECT * FROM t WHERE a IS NOT NULL AND b BETWEEN 1 AND 5 AND c IN (1, 2) AND d LIKE 'x%' AND e NOT IN (3)",
    "SELECT ABS(a), UPPER(b) FROM t WHERE SQRT(a) > 2 OR NOT flag = TRUE",
    "SELECT DISTINCT a FROM t ORDER BY a DESC, b LIMIT 10;",
    "SELECT id, cloud * 100 AS pct FROM products WHERE cloud IS NOT NULL ORDER BY pct DESC LIMIT 2",
    "SELECT level, COUNT(*) FROM products GROUP BY level HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC, level",
    "SELECT p.id FROM products p JOIN sats s ON p.sat = s.name WHERE (p.id + 1) % 2 <> 0 AND p.id <= 3 - -1",
];

#[test]
fn sql_answers_every_mangled_statement_with_ok_or_err() {
    for seed in SQL_SEEDS {
        teleios_monet::sql::parser::parse_statement(seed).unwrap();
    }
    teleios_check::fuzz_text(&SQL_SEEDS, teleios_monet::sql::parser::parse_statement);
}

#[test]
fn deeply_nested_sql_is_rejected_not_overflowed() {
    const DEEP: usize = 100_000;
    for bomb in [
        format!("SELECT {}1 FROM t", "(".repeat(DEEP)),
        format!("SELECT a FROM t WHERE {}TRUE", "NOT ".repeat(DEEP)),
        format!("SELECT {}1 FROM t", "- ".repeat(DEEP)),
        format!("SELECT a FROM t WHERE a IN {}1", "(a IN ".repeat(DEEP)),
    ] {
        let parsed = std::thread::spawn(move || teleios_monet::sql::parser::parse_statement(&bomb).is_ok())
            .join()
            .expect("the parser returns instead of overflowing its stack");
        assert!(!parsed);
    }
    assert!(teleios_monet::sql::parser::parse_statement(&format!("SELECT {}1{} FROM t", "(".repeat(60), ")".repeat(60))).is_ok());
}
