#![forbid(unsafe_code)]
//! # teleios-sciql — a SciQL-style array query language
//!
//! SciQL (Zhang, Kersten, Ivanova, Nes — IDEAS 2011) extends SQL with
//! arrays as first-class citizens so that low-level image processing and
//! image content analysis run *inside* the DBMS as declarative queries.
//! This crate implements that surface over the
//! [`teleios_monet`] array store:
//!
//! * `CREATE ARRAY name (y INT DIMENSION [256], x INT DIMENSION [256], v DOUBLE DEFAULT 0)`
//! * `SELECT <expr> FROM name[ranges]` — element-wise computation over an
//!   optional rectangular slice, yielding a new array,
//! * `SELECT <agg>(<expr>) FROM name[ranges]` — full reduction to a scalar,
//! * `SELECT <agg>(v) FROM name GROUP BY TILES [ty, tx]` — SciQL's
//!   structural group-by: non-overlapping tiles aggregate into a
//!   downsampled array (the primitive behind patch feature extraction),
//! * `UPDATE name[ranges] SET v = <expr>` — in-place transformation,
//! * `DROP ARRAY name`.
//!
//! Cell expressions may reference the cell value `v`, the dimension
//! variables (e.g. `x`, `y`), arithmetic, comparisons, `AND`/`OR`,
//! `CASE WHEN … THEN … ELSE … END` and math functions — enough to
//! express the NOA processing-chain stages (cropping, calibration,
//! classification) declaratively, as the paper demonstrates. They are
//! parsed by `teleios_monet`'s SQL expression grammar and bound to the
//! array once per statement; a name other than `v` or a dimension, an
//! unknown function, and a form only SQL has (strings, `NULL`, `NOT`,
//! `IN`, …) are errors before any cell is read. The aggregates are
//! SQL's (`SUM`, `AVG`, `MIN`, `MAX`, `COUNT`, `STDDEV`).
//!
//! ## Example
//!
//! ```
//! use teleios_monet::Catalog;
//! use teleios_sciql::{execute, SciqlResult};
//!
//! let cat = Catalog::new();
//! execute(&cat, "CREATE ARRAY img (y INT DIMENSION [4], x INT DIMENSION [4], v DOUBLE DEFAULT 1.5)").unwrap();
//! match execute(&cat, "SELECT SUM(v) FROM img").unwrap() {
//!     SciqlResult::Scalar(s) => assert_eq!(s, 24.0),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

pub mod ast;
pub mod eval;
pub mod ops;
pub mod parser;

pub use eval::{execute, SciqlResult};
