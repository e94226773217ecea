//! E11 (ablation) — column-at-a-time candidate-list execution vs the
//! row-at-a-time reference evaluator, the design choice MonetDB embodies
//! and the paper's database tier inherits.

use teleios_bench::report::{self, Align, Table};
use teleios_bench::{fmt_duration, time_avg};
use teleios_geo::SplitMix64;
use teleios_monet::column::Column;
use teleios_monet::exec::{filter, filter_rowwise, Chunk};
use teleios_monet::sql::ast::{BinOp, Expr};
use teleios_monet::value::Value;

fn chunk(n: usize) -> Chunk {
    let mut rng = SplitMix64::new(99);
    let temps = (0..n).map(|_| 290.0 + rng.below(400) as f64 / 10.0).collect();
    Chunk::new(
        vec!["m.id".into(), "m.temp".into(), "m.band".into()],
        vec![
            Column::from_ints((0..n as i64).collect()),
            Column::from_doubles(temps),
            Column::from_ints((0..n as i64).map(|i| i % 3).collect()),
        ],
    )
}

/// `temp > 318 AND band = 1` — two candidate-narrowing passes.
fn predicate() -> Expr {
    let cmp = |op, column: &str, v: Value| {
        Expr::binary(op, Expr::Column(column.into()), Expr::Literal(v))
    };
    Expr::binary(
        BinOp::And,
        cmp(BinOp::Gt, "temp", Value::Double(318.0)),
        cmp(BinOp::Eq, "band", Value::Int(1)),
    )
}

fn main() {
    report::title("E11: columnar candidate lists vs row-at-a-time filter (same rows checked)");
    let table = Table::new(&[
        ("rows", 10, Align::Right),
        ("columnar", 12, Align::Right),
        ("row-wise", 12, Align::Right),
        ("speedup", 9, Align::Right),
    ]);
    table.header();
    let pred = predicate();
    for n in [100_000usize, 1_000_000] {
        let data = chunk(n);
        assert_eq!(
            filter(&data, &pred).expect("columnar").num_rows(),
            filter_rowwise(&data, &pred).expect("rowwise").num_rows(),
            "both paths must keep the same rows"
        );
        let columnar = time_avg(5, || {
            std::hint::black_box(filter(&data, &pred).expect("filter"));
        });
        let rowwise = time_avg(5, || {
            std::hint::black_box(filter_rowwise(&data, &pred).expect("filter"));
        });
        table.row(&[
            n.to_string(),
            fmt_duration(columnar),
            fmt_duration(rowwise),
            format!("{:.1}x", rowwise.as_secs_f64() / columnar.as_secs_f64()),
        ]);
    }
}
