//! E13 — morsel-driven parallel execution: threads × input-size sweep.
//!
//! Measures the worker-pool speedup of the morsel kernels over the
//! same kernels on a one-thread pool (`WorkerPool::with_threads(1)`,
//! the inline baseline), which are bit-identical by construction (see
//! `crates/monet/tests/parallel_equivalence.rs`):
//!
//! * monet candidate-list selection (`Column::select`),
//! * monet group-by aggregation (`exec::aggregate`),
//! * monet hash join (`exec::hash_join`),
//! * SciQL/NdArray reduce (`NdArray::sum_with`) and map
//!   (`NdArray::map_with`) — the kernels under every per-pixel NOA
//!   chain stage.
//!
//! Speedups only materialize when the host exposes real cores: the
//! harness prints the machine's available parallelism so a ~1.0×
//! result on a single-core container reads as expected, not broken.

use teleios_bench::report::{self, Align, Table};
use teleios_bench::{fmt_duration, time_avg};
use teleios_exec::WorkerPool;
use teleios_geo::SplitMix64;
use teleios_monet::array::NdArray;
use teleios_monet::column::{CmpOp, Column};
use teleios_monet::exec::{aggregate, hash_join, AggSpec, Chunk};
use teleios_monet::sql::ast::{AggFunc, Expr};
use teleios_monet::value::Value;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Fixture values in `[-1000, 1000)` at millesimal steps.
fn double(rng: &mut SplitMix64) -> f64 {
    rng.below(2_000_000) as f64 / 1000.0 - 1000.0
}

fn doubles(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| double(&mut rng)).collect()
}

struct Row {
    kernel: &'static str,
    size: usize,
    times: Vec<std::time::Duration>,
}

impl Row {
    fn print(&self, table: &Table) {
        let t1 = self.times[0].as_secs_f64();
        let mut cells = vec![self.kernel.to_string(), self.size.to_string()];
        cells.extend(self.times.iter().map(|t| fmt_duration(*t)));
        cells.push(format!("{:.2}x", t1 / self.times[2].as_secs_f64()));
        table.row(&cells);
    }
}

fn sweep(kernel: &'static str, size: usize, reps: usize, mut f: impl FnMut(&WorkerPool)) -> Row {
    let times = THREADS
        .iter()
        .map(|&t| {
            let pool = WorkerPool::with_threads(t);
            time_avg(reps, || f(&pool))
        })
        .collect();
    Row { kernel, size, times }
}

fn main() {
    let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    report::title("E13: morsel-driven parallel speedup (threads 1/2/4/8)");
    report::note(&format!(
        "machine parallelism: {machine} (speedups flatten at this bound; \
         a 1-core host shows ~1.0x everywhere)\n"
    ));
    let table = Table::new(&[
        ("kernel", 16, Align::Left),
        ("rows", 9, Align::Right),
        ("t=1", 10, Align::Right),
        ("t=2", 10, Align::Right),
        ("t=4", 10, Align::Right),
        ("t=8", 10, Align::Right),
        ("x@4", 10, Align::Right),
    ]);
    table.header();

    let mut rows: Vec<Row> = Vec::new();

    // --- monet: candidate-list selection -----------------------------
    for n in [262_144usize, 1_048_576, 4_194_304] {
        let column = Column::from_doubles(doubles(1, n));
        let needle = Value::Double(0.0);
        let expect = column
            .select(CmpOp::Gt, &needle, None, &WorkerPool::with_threads(1))
            .expect("select");
        let reps = if n >= 4_194_304 { 3 } else { 5 };
        rows.push(sweep("select", n, reps, |pool| {
            let got = column.select(CmpOp::Gt, &needle, None, pool).expect("select");
            assert_eq!(got.len(), expect.len());
        }));
        rows.last().expect("row").print(&table);
    }

    // --- monet: group-by aggregation ---------------------------------
    for n in [262_144usize, 1_048_576, 4_194_304] {
        let mut rng = SplitMix64::new(2);
        let keys: Vec<i64> = (0..n).map(|_| rng.below(64) as i64).collect();
        let vals: Vec<f64> = (0..n).map(|_| double(&mut rng)).collect();
        let chunk = Chunk::new(
            vec!["t.k".into(), "t.v".into()],
            vec![Column::from_ints(keys), Column::from_doubles(vals)],
        );
        let group_by = [Expr::Column("k".into())];
        let aggs = [
            AggSpec { func: AggFunc::Count, expr: None, name: "n".into() },
            AggSpec { func: AggFunc::Sum, expr: Some(Expr::Column("v".into())), name: "s".into() },
        ];
        let reps = if n >= 4_194_304 { 3 } else { 5 };
        rows.push(sweep("group-by", n, reps, |pool| {
            let out = aggregate(pool, &chunk, &group_by, &aggs).expect("aggregate");
            assert_eq!(out.num_rows(), 64);
        }));
        rows.last().expect("row").print(&table);
    }

    // --- monet: hash join --------------------------------------------
    for n in [131_072usize, 524_288] {
        let mut rng = SplitMix64::new(3);
        let build: Vec<i64> = (0..n).map(|_| rng.below(n / 4) as i64).collect();
        let probe: Vec<i64> = (0..n).map(|_| rng.below(n / 4) as i64).collect();
        let left = Chunk::new(vec!["l.k".into()], vec![Column::from_ints(build)]);
        let right = Chunk::new(vec!["r.k".into()], vec![Column::from_ints(probe)]);
        let lk = Expr::Column("l.k".into());
        let rk = Expr::Column("r.k".into());
        rows.push(sweep("hash-join", n, 3, |pool| {
            let out = hash_join(pool, &left, &right, &lk, &rk).expect("join");
            assert!(out.num_rows() >= n); // ~4 matches per probe row
        }));
        rows.last().expect("row").print(&table);
    }

    // --- SciQL / NdArray: reduce and map -----------------------------
    for side in [512usize, 1024, 2048] {
        let n = side * side;
        let img = NdArray::matrix(side, side, doubles(4, n)).expect("image");
        let expect = img.sum_with(&WorkerPool::with_threads(1));
        let reps = if side >= 2048 { 3 } else { 5 };
        rows.push(sweep("sciql-reduce", n, reps, |pool| {
            assert_eq!(img.sum_with(pool).to_bits(), expect.to_bits());
        }));
        rows.last().expect("row").print(&table);
        rows.push(sweep("sciql-map", n, reps, |pool| {
            // The NOA calibration kernel: scale + offset per pixel.
            let out = img.map_with(pool, |v| v * 1.02 + 1.5);
            assert_eq!(out.len(), n);
        }));
        rows.last().expect("row").print(&table);
    }

    // --- summary ------------------------------------------------------
    report::blank();
    for kernel in ["select", "group-by", "sciql-reduce"] {
        let best = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .max_by_key(|r| r.size)
            .expect("kernel rows");
        let speedup4 = best.times[0].as_secs_f64() / best.times[2].as_secs_f64();
        report::note(&format!(
            "largest {kernel} input ({} rows): {:.2}x at 4 threads (acceptance: >=2x on >=4 cores)",
            best.size, speedup4
        ));
    }
    report::note(
        "\nAll parallel operators are bit-identical to their sequential twins \
         (asserted above and property-tested in parallel_equivalence.rs).",
    );
}
