//! Error type for the geometry substrate.

use std::fmt;

/// Errors produced while parsing, validating or operating on geometries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeoError {
    /// The WKT text could not be parsed; carries position and message.
    WktParse {
        /// Byte offset in the input where the error was detected.
        position: usize,
        /// Human-readable description of what went wrong.
        message: String,
    },
    /// A geometry failed a structural invariant (e.g. an unclosed ring).
    InvalidGeometry(String),
    /// An operation was applied to a geometry type it does not support.
    UnsupportedOperation(String),
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::WktParse { position, message } => {
                write!(f, "WKT parse error at byte {position}: {message}")
            }
            GeoError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            GeoError::UnsupportedOperation(msg) => write!(f, "unsupported operation: {msg}"),
        }
    }
}

impl std::error::Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_wkt_parse() {
        let e = GeoError::WktParse {
            position: 7,
            message: "expected number".into(),
        };
        assert_eq!(e.to_string(), "WKT parse error at byte 7: expected number");
    }

    #[test]
    fn error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(GeoError::InvalidGeometry("x".into()));
        assert!(e.to_string().contains("invalid geometry"));
    }
}
