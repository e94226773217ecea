//! E11 (ablation) — column-at-a-time candidate-list execution vs the
//! row-at-a-time reference evaluator, the design choice MonetDB embodies
//! and the paper's database tier inherits: a conjunction of column
//! comparisons, and a predicate with arithmetic under an OR.

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

fn cmp(op: BinOp, left: Expr, v: Value) -> Expr {
    Expr::binary(op, left, Expr::Literal(v))
}

fn column(name: &str) -> Expr {
    Expr::Column(name.into())
}

/// `temp > 318 AND band = 1` — two candidate-narrowing passes.
fn conjunction() -> Expr {
    let hot = cmp(BinOp::Gt, column("temp"), Value::Double(318.0));
    Expr::binary(BinOp::And, hot, cmp(BinOp::Eq, column("band"), Value::Int(1)))
}

/// `temp * 1.8 - 459.67 > 112 OR band = 1` — a Fahrenheit reading
/// computed for every row, then the rows it leaves to the OR's right.
fn fahrenheit_or_band() -> Expr {
    let scaled = Expr::binary(BinOp::Mul, column("temp"), Expr::Literal(Value::Double(1.8)));
    let fahrenheit = Expr::binary(BinOp::Sub, scaled, Expr::Literal(Value::Double(459.67)));
    let hot = cmp(BinOp::Gt, fahrenheit, Value::Double(112.0));
    Expr::binary(BinOp::Or, hot, cmp(BinOp::Eq, column("band"), Value::Int(1)))
}

fn main() {
    report::title("E11: columnar candidate lists vs row-at-a-time filter (same rows checked)");
    let table = Table::new(&[
        ("predicate", 18, Align::Left),
        ("rows", 10, Align::Right),
        ("columnar", 12, Align::Right),
        ("row-wise", 12, Align::Right),
        ("speedup", 9, Align::Right),
    ]);
    table.header();
    for (name, pred) in [("conjunctive", conjunction()), ("arithmetic OR", fahrenheit_or_band())] {
        for n in [100_000usize, 1_000_000] {
            let data = chunk(n);
            let (columnar, rowwise) = (
                filter(&data, &pred).expect("columnar"),
                filter_rowwise(&data, &pred).expect("rowwise"),
            );
            assert_eq!(
                (0..columnar.num_rows()).map(|i| columnar.row(i)).collect::<Vec<_>>(),
                (0..rowwise.num_rows()).map(|i| rowwise.row(i)).collect::<Vec<_>>(),
                "both paths must keep the same rows"
            );
            let columnar = time_avg(5, || {
                std::hint::black_box(filter(&data, &pred).expect("filter"));
            });
            let rowwise = time_avg(5, || {
                std::hint::black_box(filter_rowwise(&data, &pred).expect("filter"));
            });
            table.row(&[
                name.to_string(),
                n.to_string(),
                fmt_duration(columnar),
                fmt_duration(rowwise),
                format!("{:.1}x", rowwise.as_secs_f64() / columnar.as_secs_f64()),
            ]);
        }
    }
}
