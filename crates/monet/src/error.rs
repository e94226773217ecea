//! Error type for the column-store engine.

use std::fmt;

/// Errors produced by the database engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// SQL or SciQL text failed to parse.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Column in characters (1-based).
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// An array with this name already exists.
    ArrayExists(String),
    /// A referenced array does not exist.
    UnknownArray(String),
    /// A value had the wrong type for the target column or operation.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it received.
        found: String,
    },
    /// Row arity didn't match the table schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// Array shape/index errors.
    ShapeMismatch(String),
    /// Any other execution failure.
    Execution(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse { line, column, message } => {
                write!(f, "parse error at line {line}, column {column}: {message}")
            }
            DbError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            DbError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::ArrayExists(a) => write!(f, "array already exists: {a}"),
            DbError::UnknownArray(a) => write!(f, "unknown array: {a}"),
            DbError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            DbError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected} values, found {found}")
            }
            DbError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            DbError::Execution(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// A parse error at byte `offset` of `text`, located by line and
    /// column (both 1-based, the column in characters).
    pub(crate) fn parse(text: &str, offset: usize, message: impl Into<String>) -> DbError {
        let before = text.get(..offset).unwrap_or(text);
        let line_start = before.rfind('\n').map_or(0, |nl| nl + 1);
        DbError::Parse {
            line: before.matches('\n').count() + 1,
            column: before[line_start..].chars().count() + 1,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(DbError::UnknownTable("t".into()).to_string(), "unknown table: t");
        assert_eq!(
            DbError::TypeMismatch { expected: "INT".into(), found: "STRING".into() }.to_string(),
            "type mismatch: expected INT, found STRING"
        );
        assert_eq!(
            DbError::ArityMismatch { expected: 3, found: 2 }.to_string(),
            "arity mismatch: expected 3 values, found 2"
        );
    }
}
