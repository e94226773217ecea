//! SciQL abstract syntax tree. Cell expressions are SQL expressions,
//! parsed by monet's SQL grammar; the evaluator binds each one to an
//! array before it runs.

use teleios_monet::array::Dim;
use teleios_monet::sql::ast::{AggFunc, Expr};

/// An optional slice range over one dimension (`lo:hi`, half-open).
pub(crate) type SliceRange = Option<(usize, usize)>;

/// A SciQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SciqlStmt {
    /// `CREATE ARRAY name (dims..., v DOUBLE DEFAULT d)`.
    CreateArray {
        /// Array name.
        name: String,
        /// Dimension declarations in storage order.
        dims: Vec<Dim>,
        /// Fill value.
        default: f64,
    },
    /// `DROP ARRAY name`.
    DropArray {
        /// Array name.
        name: String,
    },
    /// `SELECT expr FROM name[ranges]` — element-wise map.
    Map {
        /// Source array.
        array: String,
        /// Per-dimension slice (missing = full extent).
        slices: Vec<SliceRange>,
        /// Cell expression.
        expr: Expr,
    },
    /// `SELECT agg(expr) FROM name[ranges] [WHERE cond]` — scalar
    /// reduction over the cells satisfying `cond`.
    Reduce {
        /// Source array.
        array: String,
        /// Per-dimension slice.
        slices: Vec<SliceRange>,
        /// Aggregate.
        agg: AggFunc,
        /// Argument expression.
        expr: Expr,
        /// Optional cell predicate.
        condition: Option<Expr>,
    },
    /// `SELECT agg(expr) FROM name GROUP BY TILES [t...]` — structural
    /// group-by producing a downsampled array.
    TileReduce {
        /// Source array.
        array: String,
        /// Aggregate.
        agg: AggFunc,
        /// Argument expression.
        expr: Expr,
        /// Tile extent per dimension.
        tile: Vec<usize>,
    },
    /// `UPDATE name[ranges] SET v = expr [WHERE cond]` — in-place
    /// transformation of the cells satisfying `cond`.
    Update {
        /// Target array.
        array: String,
        /// Per-dimension slice.
        slices: Vec<SliceRange>,
        /// New cell expression.
        expr: Expr,
        /// Optional cell predicate.
        condition: Option<Expr>,
    },
}
