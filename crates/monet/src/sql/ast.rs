//! SQL abstract syntax tree.

use crate::value::{DataType, Value};

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Literal(Value),
    /// A (possibly `table.`-qualified) column reference.
    Column(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
    },
    /// `CASE WHEN c THEN r [WHEN …]* [ELSE e] END`: the first arm whose
    /// condition is TRUE gives the value (a NULL or FALSE condition
    /// skips its arm); with no arm taken and no ELSE, NULL.
    Case {
        /// (condition, result) arms, tested in order.
        arms: Vec<(Expr, Expr)>,
        /// ELSE result.
        otherwise: Option<Box<Expr>>,
    },
    /// Function call, name upper-cased: a scalar function
    /// (`exec::scalar_function` lists them), or in HAVING and ORDER BY
    /// an aggregate's name.
    Func {
        /// Upper-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Shorthand for a binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }
}

/// Aggregate function in a SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` or `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `STDDEV(expr)` (also `STDEV`, `STDDEV_POP`): population standard
    /// deviation.
    StdDev,
}

impl AggFunc {
    /// Parse a function name as an aggregate.
    pub(crate) fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "STDDEV" | "STDEV" | "STDDEV_POP" => Some(AggFunc::StdDev),
            _ => None,
        }
    }
}

/// One item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// A scalar expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
    /// An aggregate call with an optional alias. `expr` is `None` for
    /// `COUNT(*)`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument (`None` = `*`).
        expr: Option<Expr>,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table reference in FROM, with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// True for DESC.
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// True for SELECT DISTINCT.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (comma join when more than one).
    pub from: Vec<TableRef>,
    /// Explicit `JOIN ... ON` clauses, applied left-to-right after `from[0]`.
    pub joins: Vec<(TableRef, Expr)>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate (evaluated over aggregate output).
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select(Select),
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// INSERT INTO ... VALUES.
    Insert {
        /// Target table.
        table: String,
        /// Optional column list.
        columns: Option<Vec<String>>,
        /// Row tuples.
        rows: Vec<Vec<Expr>>,
    },
    /// DELETE FROM ... \[WHERE\].
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        where_clause: Option<Expr>,
    },
    /// UPDATE ... SET ... \[WHERE\].
    Update {
        /// Target table.
        table: String,
        /// (column, new value expression) assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional predicate.
        where_clause: Option<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggfunc_parse() {
        assert_eq!(AggFunc::parse("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("stddev_pop"), Some(AggFunc::StdDev));
        assert_eq!(AggFunc::parse("CONCAT"), None);
    }
}
