//! stSPARQL abstract syntax tree.

use teleios_rdf::term::Term;

/// A variable or a constant term in a pattern position.
#[derive(Debug, Clone, PartialEq)]
pub enum VarOrTerm {
    /// A `?name` variable.
    Var(String),
    /// A constant RDF term.
    Term(Term),
}

impl From<Term> for VarOrTerm {
    fn from(t: Term) -> Self {
        VarOrTerm::Term(t)
    }
}

impl VarOrTerm {
    /// The variable name, if a variable.
    pub(crate) fn var(&self) -> Option<&str> {
        match self {
            VarOrTerm::Var(v) => Some(v),
            VarOrTerm::Term(_) => None,
        }
    }
}

/// A triple pattern of a WHERE clause, or a template or ground triple
/// of an update.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternTriple {
    /// Subject position.
    pub s: VarOrTerm,
    /// Predicate position.
    pub p: VarOrTerm,
    /// Object position.
    pub o: VarOrTerm,
}

/// An stSPARQL expression (FILTER / BIND / SELECT expressions).
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference.
    Var(String),
    /// A constant term (IRI or literal).
    Const(Term),
    /// `!e`.
    Not(Box<Expression>),
    /// `-e`.
    Neg(Box<Expression>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expression>,
        /// Right operand.
        right: Box<Expression>,
    },
    /// Function call — builtins (`BOUND`, `REGEX`, `STR`, …) and the
    /// stRDF spatial extension functions (`strdf:intersects`, …), with
    /// the function identified by its full IRI or upper-case builtin name.
    Call {
        /// Resolved function name (IRI for prefixed calls).
        name: String,
        /// Arguments.
        args: Vec<Expression>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// One element of a group graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElement {
    /// A triple pattern.
    Triple(PatternTriple),
    /// `FILTER(expr)`.
    Filter(Expression),
    /// `OPTIONAL { ... }`.
    Optional(GroupPattern),
    /// `{ A } UNION { B }` (n-way).
    Union(Vec<GroupPattern>),
    /// `BIND(expr AS ?v)`.
    Bind {
        /// The expression.
        expr: Expression,
        /// Target variable.
        var: String,
    },
    /// `MINUS { ... }`.
    Minus(GroupPattern),
    /// `FILTER EXISTS { ... }` / `FILTER NOT EXISTS { ... }`.
    FilterExists {
        /// The tested pattern.
        group: GroupPattern,
        /// True for NOT EXISTS.
        negated: bool,
    },
}

/// A `{ ... }` group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPattern {
    /// The elements in syntactic order.
    pub elements: Vec<PatternElement>,
}

/// Projection of a SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`.
    All,
    /// `SELECT ?a ?b (expr AS ?c)`.
    Vars(Vec<ProjectionItem>),
}

/// One projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionItem {
    /// Plain variable.
    Var(String),
    /// `(expr AS ?v)`.
    Expr {
        /// The expression.
        expr: Expression,
        /// Output variable.
        var: String,
    },
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Ordering expression.
    pub expr: Expression,
    /// True for DESC.
    pub desc: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// True for SELECT DISTINCT.
    pub distinct: bool,
    /// Projection.
    pub projection: Projection,
    /// WHERE clause.
    pub where_clause: GroupPattern,
    /// GROUP BY variables.
    pub group_by: Vec<String>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: usize,
}

/// An ASK query.
#[derive(Debug, Clone, PartialEq)]
pub struct AskQuery {
    /// WHERE clause.
    pub where_clause: GroupPattern,
}

/// A CONSTRUCT query: derive new triples from matched patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructQuery {
    /// The triples to instantiate per solution.
    pub template: Vec<PatternTriple>,
    /// WHERE clause.
    pub where_clause: GroupPattern,
}

/// Any read query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// SELECT.
    Select(SelectQuery),
    /// ASK.
    Ask(AskQuery),
    /// CONSTRUCT.
    Construct(ConstructQuery),
}

/// An stSPARQL update request.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// `INSERT DATA { ground triples }`.
    InsertData(Vec<PatternTriple>),
    /// `DELETE DATA { ground triples }`.
    DeleteData(Vec<PatternTriple>),
    /// `DELETE WHERE { patterns }` (delete every instantiation).
    DeleteWhere(Vec<PatternTriple>),
    /// `DELETE { t } INSERT { t } WHERE { p }` (either template optional).
    Modify {
        /// Triples to delete per solution.
        delete: Vec<PatternTriple>,
        /// Triples to insert per solution.
        insert: Vec<PatternTriple>,
        /// The solution-producing pattern.
        where_clause: GroupPattern,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_or_term_accessor() {
        assert_eq!(VarOrTerm::Var("x".into()).var(), Some("x"));
        assert_eq!(VarOrTerm::Term(Term::iri("http://x/")).var(), None);
    }
}
