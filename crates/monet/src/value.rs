//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;

/// The type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Double,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "STRING"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

impl DataType {
    /// Parse a SQL type name (several aliases accepted).
    pub(crate) fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" => Some(DataType::Int),
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Some(DataType::Double),
            "STRING" | "VARCHAR" | "TEXT" | "CHAR" | "CLOB" => Some(DataType::Str),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            _ => None,
        }
    }
}

/// A scalar value, including SQL NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Double.
    Double(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's type; `None` for NULL.
    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True when the value is NULL.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to double); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view; `None` for non-booleans.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Coerce into `ty` when a lossless/standard SQL coercion exists
    /// (ints to double; anything stays NULL).
    pub(crate) fn coerce(self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (v @ Value::Int(_), DataType::Int) => Some(v),
            (Value::Int(i), DataType::Double) => Some(Value::Double(i as f64)),
            (v @ Value::Double(_), DataType::Double) => Some(v),
            (v @ Value::Str(_), DataType::Str) => Some(v),
            (v @ Value::Bool(_), DataType::Bool) => Some(v),
            _ => None,
        }
    }

    /// SQL comparison. NULL compares as unknown (`None`); numeric types
    /// compare cross-type.
    pub(crate) fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Ordering for ORDER BY: NULLs first, then by value; NaNs last.
    pub(crate) fn order_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_parse_aliases() {
        assert_eq!(DataType::parse("integer"), Some(DataType::Int));
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Str));
        assert_eq!(DataType::parse("real"), Some(DataType::Double));
        assert_eq!(DataType::parse("boolean"), Some(DataType::Bool));
        assert_eq!(DataType::parse("GEOMETRY"), None);
    }

    #[test]
    fn value_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_f64(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn coercion() {
        assert_eq!(Value::Int(3).coerce(DataType::Double), Some(Value::Double(3.0)));
        assert_eq!(Value::Double(3.5).coerce(DataType::Int), None);
        assert_eq!(Value::Null.coerce(DataType::Str), Some(Value::Null));
        assert_eq!(Value::Str("a".into()).coerce(DataType::Int), None);
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Double(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Double(1.5)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Str("b".into()).sql_cmp(&Value::Str("a".into())), Some(Ordering::Greater));
    }

    #[test]
    fn order_cmp_nulls_first() {
        assert_eq!(Value::Null.order_cmp(&Value::Int(1)), Ordering::Less);
        assert_eq!(Value::Int(1).order_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.order_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
