//! Thread-count equivalence tests.
//!
//! Every kernel is one range body cut along the pool's morsels, so
//! its output must be *bit-identical* at any thread count. These tests
//! compare pools of 1–8 threads against each other (and `select`
//! against a linear scan) on inputs straddling each threshold
//! (`PAR_ROW_THRESHOLD`, `PAR_CELL_THRESHOLD`, `DEFAULT_MORSEL_CELLS`),
//! empty input included.

use teleios_check::{forall, SplitMix64};
use teleios_exec::{WorkerPool, DEFAULT_MORSEL_CELLS};
use teleios_monet::array::{NdArray, PAR_CELL_THRESHOLD};
use teleios_monet::column::{CmpOp, Column, PAR_ROW_THRESHOLD};
use teleios_monet::exec::{aggregate, filter, hash_join, AggSpec, Chunk};
use teleios_monet::sql::ast::{AggFunc, BinOp, Expr};
use teleios_monet::value::Value;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// Fixture values in `[-1000, 1000)` at millesimal steps.
fn double(rng: &mut SplitMix64) -> f64 {
    rng.below(2_000_000) as f64 / 1000.0 - 1000.0
}

fn chunks_equal(a: &Chunk, b: &Chunk) -> bool {
    a.names() == b.names()
        && a.num_rows() == b.num_rows()
        && (0..a.num_rows()).all(|i| a.row(i) == b.row(i))
}

fn col(name: &str) -> Expr {
    Expr::Column(name.into())
}

fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// A two-column chunk (int key, double value) big enough to cross the
/// row-parallel threshold.
fn big_chunk(seed: u64, rows: usize, key_range: usize) -> Chunk {
    let mut rng = SplitMix64::new(seed);
    let keys: Vec<i64> = (0..rows).map(|_| rng.below(key_range) as i64).collect();
    let vals: Vec<f64> = (0..rows).map(|_| double(&mut rng)).collect();
    Chunk::new(
        vec!["t.k".into(), "t.v".into()],
        vec![Column::from_ints(keys), Column::from_doubles(vals)],
    )
}

/// Sizes on both sides of a threshold `t`, plus the empty input.
fn straddle(t: usize) -> [usize; 5] {
    [0, t - 1, t, t + 1, 2 * t + 123]
}

#[test]
fn select_matches_a_linear_scan_at_all_thread_counts() {
    let needle = 0.0;
    for n in straddle(PAR_ROW_THRESHOLD) {
        let mut rng = SplitMix64::new(7);
        let vals: Vec<f64> = (0..n).map(|_| double(&mut rng)).collect();
        let column = Column::from_doubles(vals.clone());
        // Narrowing candidates: every third row.
        let cands: Vec<u32> = (0..n as u32).step_by(3).collect();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let keep = |i: &u32| vals[*i as usize].partial_cmp(&needle).is_some_and(|o| op.matches(o));
            let expect: Vec<u32> = (0..n as u32).filter(keep).collect();
            let expect_narrowed: Vec<u32> = cands.iter().copied().filter(keep).collect();
            for t in THREAD_COUNTS {
                let pool = WorkerPool::with_threads(t);
                assert_eq!(
                    column.select(op, &Value::Double(needle), None, &pool).unwrap(),
                    expect,
                    "op {op:?} over {n} rows at {t} threads"
                );
                assert_eq!(
                    column.select(op, &Value::Double(needle), Some(&cands), &pool).unwrap(),
                    expect_narrowed,
                    "op {op:?} with candidates over {n} rows at {t} threads"
                );
            }
        }
    }
}

#[test]
fn filter_is_identical_at_all_thread_counts() {
    let pred = Expr::binary(
        BinOp::And,
        Expr::binary(BinOp::Gt, col("v"), lit(-250.0)),
        Expr::binary(BinOp::Lt, col("k"), lit(48i64)),
    );
    for rows in straddle(PAR_ROW_THRESHOLD) {
        let chunk = big_chunk(11, rows, 64);
        let one = filter(&WorkerPool::with_threads(1), &chunk, &pred).unwrap();
        assert_eq!(one.num_rows() > 0, rows > 0);
        for t in THREAD_COUNTS {
            let many = filter(&WorkerPool::with_threads(t), &chunk, &pred).unwrap();
            assert!(chunks_equal(&one, &many), "filter of {rows} rows diverged at {t} threads");
        }
    }
}

#[test]
fn hash_join_is_identical_at_all_thread_counts() {
    // The build side is the smaller one, so both phases cross the
    // threshold independently.
    for (left_rows, right_rows) in [
        (0, PAR_ROW_THRESHOLD + 500),
        (PAR_ROW_THRESHOLD - 1, PAR_ROW_THRESHOLD),
        (PAR_ROW_THRESHOLD + 1, 300),
        (PAR_ROW_THRESHOLD + 1000, PAR_ROW_THRESHOLD + 500),
    ] {
        let left = big_chunk(21, left_rows, 500);
        let right = {
            let mut rng = SplitMix64::new(22);
            let keys: Vec<i64> = (0..right_rows).map(|_| rng.below(500) as i64).collect();
            let vals: Vec<f64> = (0..right_rows).map(|_| double(&mut rng)).collect();
            Chunk::new(
                vec!["r.k".into(), "r.w".into()],
                vec![Column::from_ints(keys), Column::from_doubles(vals)],
            )
        };
        let join = |t| {
            hash_join(&WorkerPool::with_threads(t), &left, &right, &col("t.k"), &col("r.k")).unwrap()
        };
        let one = join(1);
        assert_eq!(one.num_rows() > 0, left_rows > 0);
        for t in THREAD_COUNTS {
            assert!(
                chunks_equal(&one, &join(t)),
                "join {left_rows}x{right_rows} diverged at {t} threads"
            );
        }
    }
}

#[test]
fn aggregate_is_identical_at_all_thread_counts() {
    let aggs = vec![
        AggSpec { func: AggFunc::Count, expr: None, name: "n".into() },
        AggSpec { func: AggFunc::Sum, expr: Some(col("v")), name: "s".into() },
        AggSpec { func: AggFunc::Min, expr: Some(col("v")), name: "lo".into() },
        AggSpec { func: AggFunc::Max, expr: Some(col("v")), name: "hi".into() },
        AggSpec { func: AggFunc::Avg, expr: Some(col("v")), name: "m".into() },
    ];
    for rows in straddle(PAR_ROW_THRESHOLD) {
        let chunk = big_chunk(31, rows, 64);
        // Grouped (bit-identical includes the first-encounter group
        // order) and global (one row even over zero rows).
        for (group_by, groups) in [(vec![col("k")], 64.min(rows)), (vec![], 1)] {
            let one = aggregate(&WorkerPool::with_threads(1), &chunk, &group_by, &aggs).unwrap();
            assert_eq!(one.num_rows(), groups);
            for t in THREAD_COUNTS {
                let many =
                    aggregate(&WorkerPool::with_threads(t), &chunk, &group_by, &aggs).unwrap();
                assert!(
                    chunks_equal(&one, &many),
                    "aggregate of {rows} rows into {groups} group(s) diverged at {t} threads"
                );
            }
        }
    }
}

fn big_array(seed: u64, cells: usize) -> NdArray {
    let mut rng = SplitMix64::new(seed);
    let data: Vec<f64> = (0..cells).map(|_| double(&mut rng)).collect();
    NdArray::matrix(1, cells, data).unwrap()
}

#[test]
fn array_map_and_zip_map_are_identical_at_all_thread_counts() {
    for cells in straddle(PAR_CELL_THRESHOLD) {
        let a = big_array(51, cells);
        let b = big_array(52, cells);
        let expect_map: Vec<f64> = a.data().iter().map(|v| v * 0.5 + 1.0).collect();
        let expect_zip: Vec<f64> =
            a.data().iter().zip(b.data()).map(|(x, y)| x.max(*y) - x * y).collect();
        for t in THREAD_COUNTS {
            let pool = WorkerPool::with_threads(t);
            let map = a.map_with(&pool, |v| v * 0.5 + 1.0);
            assert_eq!(map.shape(), a.shape());
            assert_eq!(map.data(), expect_map, "map of {cells} cells diverged at {t} threads");
            let zip = a.zip_map_with(&pool, &b, |x, y| x.max(y) - x * y).unwrap();
            assert_eq!(zip.data(), expect_zip, "zip_map of {cells} cells diverged at {t} threads");
        }
    }
}

#[test]
fn array_reductions_are_identical_at_all_thread_counts() {
    for cells in straddle(DEFAULT_MORSEL_CELLS) {
        let a = big_array(61, cells);
        let pool1 = WorkerPool::with_threads(1);
        let (sum, min, max) = (a.sum_with(&pool1), a.min_with(&pool1), a.max_with(&pool1));
        assert_eq!(min.is_some(), cells > 0);
        if cells <= DEFAULT_MORSEL_CELLS {
            // One chunk is the plain left fold.
            assert_eq!(sum.to_bits(), a.data().iter().sum::<f64>().to_bits());
        }
        for t in THREAD_COUNTS {
            let pool = WorkerPool::with_threads(t);
            // to_bits: the sums must agree exactly, not just approximately.
            assert_eq!(a.sum_with(&pool).to_bits(), sum.to_bits(), "sum of {cells} at {t} threads");
            assert_eq!(a.min_with(&pool), min, "min of {cells} at {t} threads");
            assert_eq!(a.max_with(&pool), max, "max of {cells} at {t} threads");
        }
    }
}

// Randomized small inputs, below the thresholds: the inline side of
// the fork at every pool size.
#[test]
fn prop_select_matches() {
    forall(
        |g| (g.vec(0..300, |g| g.int(-100..100)), g.int(-100..100), g.size(1..9)),
        |(vals, needle, threads)| {
            let column = Column::from_ints(vals);
            let pool = WorkerPool::with_threads(threads);
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
                let v = Value::Int(needle);
                assert_eq!(
                    column.select(op, &v, None, &pool).unwrap(),
                    column.select(op, &v, None, &WorkerPool::with_threads(1)).unwrap()
                );
            }
        },
    );
}

#[test]
fn prop_array_kernels_match() {
    forall(
        |g| (g.vec(1..256, |g| g.float(-100.0..100.0)), g.size(1..9)),
        |(data, threads)| {
            let a = NdArray::matrix(1, data.len(), data).unwrap();
            let pool = WorkerPool::with_threads(threads);
            let pool1 = WorkerPool::with_threads(1);
            assert_eq!(a.map_with(&pool, |v| v * 3.0).data(), a.map_with(&pool1, |v| v * 3.0).data());
            assert_eq!(a.sum_with(&pool).to_bits(), a.sum_with(&pool1).to_bits());
            assert_eq!(a.min_with(&pool), a.min_with(&pool1));
            assert_eq!(a.max_with(&pool), a.max_with(&pool1));
            let z = a.zip_map_with(&pool, &a, |x, y| x + y).unwrap();
            let z1 = a.zip_map_with(&pool1, &a, |x, y| x + y).unwrap();
            assert_eq!(z.data(), z1.data());
        },
    );
}
