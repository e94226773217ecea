//! SciQL abstract syntax tree.

/// Cell-level expression over array values and dimension variables.
#[derive(Debug, Clone, PartialEq)]
pub enum CellExpr {
    /// Numeric literal.
    Number(f64),
    /// The cell value attribute (`v`) or a dimension variable (`x`, `y`).
    Var(String),
    /// Binary arithmetic / comparison. Comparisons yield 1.0 / 0.0.
    Binary {
        /// Operator.
        op: CellOp,
        /// Left operand.
        left: Box<CellExpr>,
        /// Right operand.
        right: Box<CellExpr>,
    },
    /// Unary minus.
    Neg(Box<CellExpr>),
    /// `CASE WHEN cond THEN a [WHEN …]* [ELSE b] END`; a missing ELSE
    /// yields 0.0.
    Case {
        /// (condition, result) arms, tested in order.
        arms: Vec<(CellExpr, CellExpr)>,
        /// ELSE result.
        otherwise: Option<Box<CellExpr>>,
    },
    /// Math function call (`ABS`, `SQRT`, `EXP`, `LN`, `LOG10`, `FLOOR`,
    /// `CEIL`, `MIN`, `MAX`, `POW`).
    Func {
        /// Upper-cased name.
        name: String,
        /// Arguments.
        args: Vec<CellExpr>,
    },
}

/// Binary operators on cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=` (1.0 / 0.0)
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND` (non-zero = true)
    And,
    /// `OR`
    Or,
}

/// Aggregate function over cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellAgg {
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Cell count.
    Count,
    /// Population standard deviation.
    StdDev,
}

impl CellAgg {
    /// Parse an aggregate name.
    pub(crate) fn parse(name: &str) -> Option<CellAgg> {
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Some(CellAgg::Sum),
            "AVG" => Some(CellAgg::Avg),
            "MIN" => Some(CellAgg::Min),
            "MAX" => Some(CellAgg::Max),
            "COUNT" => Some(CellAgg::Count),
            "STDDEV" | "STDEV" | "STDDEV_POP" => Some(CellAgg::StdDev),
            _ => None,
        }
    }
}

/// A dimension declaration in CREATE ARRAY.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimDecl {
    /// Dimension name.
    pub name: String,
    /// Extent.
    pub size: usize,
}

/// An optional slice range over one dimension (`lo:hi`, half-open).
pub(crate) type SliceRange = Option<(usize, usize)>;

/// A SciQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SciqlStmt {
    /// `CREATE ARRAY name (dims..., value DOUBLE DEFAULT d)`.
    CreateArray {
        /// Array name.
        name: String,
        /// Dimension declarations in storage order.
        dims: Vec<DimDecl>,
        /// Value attribute name (usually `v`).
        value_name: String,
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
        expr: CellExpr,
    },
    /// `SELECT agg(expr) FROM name[ranges] [WHERE cond]` — scalar
    /// reduction over the cells satisfying `cond`.
    Reduce {
        /// Source array.
        array: String,
        /// Per-dimension slice.
        slices: Vec<SliceRange>,
        /// Aggregate.
        agg: CellAgg,
        /// Argument expression.
        expr: CellExpr,
        /// Optional cell predicate.
        condition: Option<CellExpr>,
    },
    /// `SELECT agg(expr) FROM name GROUP BY TILES [t...]` — structural
    /// group-by producing a downsampled array.
    TileReduce {
        /// Source array.
        array: String,
        /// Aggregate.
        agg: CellAgg,
        /// Argument expression.
        expr: CellExpr,
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
        expr: CellExpr,
        /// Optional cell predicate.
        condition: Option<CellExpr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_parse() {
        assert_eq!(CellAgg::parse("avg"), Some(CellAgg::Avg));
        assert_eq!(CellAgg::parse("STDDEV"), Some(CellAgg::StdDev));
        assert_eq!(CellAgg::parse("MEDIAN"), None);
    }
}
