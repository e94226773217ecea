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
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
    },
    /// Scalar function call (`ABS`, `SQRT`, `LOWER`, `UPPER`, `LENGTH`).
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

    /// Collect referenced column names into `out`.
    pub fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Column(c) => out.push(c.clone()),
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Neg(e) | Expr::Not(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, lo, hi } => {
                expr.collect_columns(out);
                lo.collect_columns(out);
                hi.collect_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
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
}

impl AggFunc {
    /// Parse a function name as an aggregate.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
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
    fn collect_columns_walks_tree() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, Expr::Column("a".into()), Expr::Literal(Value::Int(1))),
            Expr::IsNull { expr: Box::new(Expr::Column("b".into())), negated: true },
        );
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn aggfunc_parse() {
        assert_eq!(AggFunc::parse("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("CONCAT"), None);
    }
}
