//! E11 (ablation) — column-at-a-time candidate-list execution vs the
//! row-at-a-time reference evaluator, the design choice MonetDB embodies
//! and the paper's database tier inherits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teleios_exec::WorkerPool;
use teleios_monet::exec::{filter, filter_rowwise, Chunk};
use teleios_monet::sql::ast::{BinOp, Expr};
use teleios_monet::table::{ColumnDef, Table};
use teleios_monet::value::{DataType, Value};

fn chunk(n: usize) -> Chunk {
    let mut t = Table::new(
        "m",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("temp", DataType::Double),
            ColumnDef::new("band", DataType::Int),
        ],
    );
    // Deterministic pseudo-random temperatures.
    let mut state = 99u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        290.0 + (state % 400) as f64 / 10.0
    };
    for i in 0..n {
        t.insert_row(vec![
            Value::Int(i as i64),
            Value::Double(next()),
            Value::Int((i % 3) as i64),
        ])
        .expect("insert");
    }
    Chunk::from_table(&t, "m")
}

fn predicate() -> Expr {
    // temp > 318 AND band = 1  — two candidate-narrowing passes.
    Expr::binary(
        BinOp::And,
        Expr::binary(
            BinOp::Gt,
            Expr::Column("temp".into()),
            Expr::Literal(Value::Double(318.0)),
        ),
        Expr::binary(
            BinOp::Eq,
            Expr::Column("band".into()),
            Expr::Literal(Value::Int(1)),
        ),
    )
}

fn bench_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11_column_vs_row");
    group.sample_size(10);
    let pred = predicate();
    let pool = WorkerPool::default();
    for n in [100_000usize, 1_000_000] {
        let data = chunk(n);
        // Both paths agree.
        assert_eq!(
            filter(&pool, &data, &pred).expect("columnar").num_rows(),
            filter_rowwise(&data, &pred).expect("rowwise").num_rows()
        );
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |b, _| {
            b.iter(|| filter(&pool, &data, &pred).expect("filter"));
        });
        group.bench_with_input(BenchmarkId::new("rowwise", n), &n, |b, _| {
            b.iter(|| filter_rowwise(&data, &pred).expect("filter"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
