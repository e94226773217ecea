#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # teleios-rdf — RDF model and store with stRDF extensions
//!
//! The semantic substrate of the TELEIOS Virtual Earth Observatory:
//! satellite-image metadata, knowledge extracted by the image-mining
//! pipeline, and auxiliary open geospatial datasets are all represented
//! in RDF and queried through stSPARQL (`teleios-strabon`).
//!
//! Components:
//!
//! * [`term::Term`] — IRIs, blank nodes, plain/typed/tagged literals,
//! * [`dictionary::Dictionary`] — interning of terms to dense `u32` ids
//!   (the dictionary encoding Strabon gets from its column-store backend),
//! * [`store::TripleStore`] — a triple store with SPO/POS/OSP orderings
//!   for index-backed pattern matching,
//! * [`strdf`] — the stRDF extension: geometries as `strdf:WKT` typed
//!   literals (with CRS), valid-time periods as `strdf:period` literals,
//! * [`syntax`] — the tokenizer, cursor, term reader and triples loop
//!   Turtle and stSPARQL share,
//! * [`turtle`] — a Turtle subset reader/writer for dataset exchange,
//! * [`vocab`] — namespace constants (rdf, rdfs, xsd, strdf, noa, …).
//!
//! ## Example
//!
//! ```
//! use teleios_rdf::store::TripleStore;
//! use teleios_rdf::term::Term;
//!
//! let mut store = TripleStore::new();
//! store.insert_terms(
//!     &Term::iri("http://example.org/img1"),
//!     &Term::iri("http://example.org/hasCloudCover"),
//!     &Term::typed_literal("0.25", "http://www.w3.org/2001/XMLSchema#double"),
//! );
//! assert_eq!(store.len(), 1);
//! ```

pub mod dictionary;
pub mod store;
pub mod strdf;
pub mod persist;
pub mod syntax;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod vocab;

pub use dictionary::{Dictionary, TermId};
pub use store::TripleStore;
pub use term::Term;
pub use triple::{Triple, TriplePattern};

/// Errors for RDF parsing and store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// Turtle or stSPARQL text failed to parse.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Column in characters (1-based).
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix(String),
    /// A literal could not be interpreted under its datatype.
    BadLiteral(String),
}

impl std::fmt::Display for RdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdfError::Parse { line, column, message } => {
                write!(f, "parse error at line {line}, column {column}: {message}")
            }
            RdfError::UnknownPrefix(p) => write!(f, "unknown prefix: {p}"),
            RdfError::BadLiteral(m) => write!(f, "bad literal: {m}"),
        }
    }
}

impl std::error::Error for RdfError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RdfError>;
