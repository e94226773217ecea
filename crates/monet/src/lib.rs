#![forbid(unsafe_code)]
//! # teleios-monet — a column-store database engine with arrays
//!
//! A from-scratch analogue of the MonetDB column store that the TELEIOS
//! Virtual Earth Observatory builds on. It provides:
//!
//! * BAT-style typed [`column::Column`]s with candidate-list (row-id)
//!   selection, executed column-at-a-time,
//! * [`table::Table`]s and a concurrent [`catalog::Catalog`],
//! * a relational executor ([`exec`]) — scan, select, project, hash join,
//!   group-by aggregation, sort, limit,
//! * a SQL subset ([`sql`]) compiled onto the executor,
//! * first-class n-dimensional [`array::NdArray`]s, the storage substrate
//!   for SciQL (`teleios-sciql`) and the Data Vault (`teleios-vault`).
//!
//! ## Example
//!
//! ```
//! use teleios_monet::catalog::Catalog;
//!
//! let cat = Catalog::new();
//! cat.execute("CREATE TABLE t (a INT, b DOUBLE, c STRING)").unwrap();
//! cat.execute("INSERT INTO t VALUES (1, 2.5, 'x'), (2, 5.0, 'y')").unwrap();
//! let rs = cat.execute("SELECT a, b FROM t WHERE b > 3.0").unwrap();
//! assert_eq!(rs.num_rows(), 1);
//! ```

pub mod array;
pub mod catalog;
pub mod column;
pub mod error;
pub mod exec;
pub mod persist;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use error::DbError;
pub use value::{DataType, Value};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DbError>;
