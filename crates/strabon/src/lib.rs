#![forbid(unsafe_code)]
//! # teleios-strabon — the Strabon semantic geospatial database engine
//!
//! Strabon is the stRDF/stSPARQL system of the TELEIOS Virtual Earth
//! Observatory: a semantic geospatial database that stores linked
//! geospatial data expressed in stRDF and answers stSPARQL queries —
//! SPARQL 1.1 extended with the `strdf:` spatial functions over WKT
//! literals. This crate implements it over the dictionary-encoded
//! [`teleios_rdf::TripleStore`], with:
//!
//! * a SPARQL subset: `SELECT` / `ASK` / `CONSTRUCT`, BGPs, `FILTER`, `OPTIONAL`,
//!   `UNION`, `MINUS`, `BIND`, `FILTER [NOT] EXISTS`, `DISTINCT`,
//!   `ORDER BY`, `LIMIT/OFFSET`, aggregates
//!   (`COUNT/SUM/AVG/MIN/MAX/SAMPLE`) with `GROUP BY`,
//! * SPARQL Update: `INSERT DATA`, `DELETE DATA`, `DELETE WHERE`, and
//!   `DELETE/INSERT ... WHERE` (the refinement step of demo scenario 2),
//! * spatial extension functions: `strdf:intersects`, `strdf:contains`,
//!   `strdf:within`, `strdf:disjoint`, `strdf:touches`, `strdf:equals`,
//!   `strdf:distance`, `strdf:area`, `strdf:buffer`, `strdf:envelope`,
//!   `strdf:intersection`, `strdf:union2`, `strdf:difference`,
//! * a selectivity-based BGP join-order optimizer (toggleable — E4),
//! * an R-tree spatial sidecar that pre-filters spatial FILTERs against
//!   constants and pushes candidates into the BGP scan (toggleable — E3),
//! * optional RDFS subsumption: `?x rdf:type C` patterns expand over the
//!   in-store `rdfs:subClassOf` closure.
//!
//! ## Example
//!
//! ```
//! use teleios_strabon::Strabon;
//!
//! let mut db = Strabon::new();
//! db.load_turtle(r#"
//!     @prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
//!     @prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
//!     <http://x/h1> a noa:Hotspot ;
//!         strdf:hasGeometry "POINT (23.5 38.0)"^^strdf:WKT .
//! "#).unwrap();
//! let sols = db.query(r#"
//!     PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>
//!     PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
//!     SELECT ?h WHERE {
//!         ?h a noa:Hotspot ; strdf:hasGeometry ?g .
//!         FILTER(strdf:intersects(?g, "POLYGON ((23 37, 24 37, 24 39, 23 39, 23 37))"^^strdf:WKT))
//!     }
//! "#).unwrap();
//! assert_eq!(sols.len(), 1);
//! ```

pub mod ast;
pub mod eval;
pub mod expr;
pub mod parser;
pub mod spatial;
pub mod update;

use teleios_exec::WorkerPool;
use teleios_rdf::store::TripleStore;
use teleios_rdf::term::Term;
use teleios_rdf::RdfError;

/// Errors from parsing or evaluating stSPARQL.
#[derive(Debug, Clone, PartialEq)]
pub enum StrabonError {
    /// Query or Turtle text failed to parse.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Column in characters (1-based).
        column: usize,
        /// Description.
        message: String,
    },
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix(String),
    /// Expression evaluation failed fatally (type errors inside FILTER
    /// are not fatal — they make the filter false, per SPARQL).
    Eval(String),
}

impl std::fmt::Display for StrabonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrabonError::Parse { line, column, message } => {
                write!(f, "parse error at line {line}, column {column}: {message}")
            }
            StrabonError::UnknownPrefix(p) => write!(f, "unknown prefix: {p}"),
            StrabonError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for StrabonError {}

/// The RDF reader's errors, from stSPARQL text and Turtle alike.
impl From<RdfError> for StrabonError {
    fn from(e: RdfError) -> Self {
        match e {
            RdfError::Parse { line, column, message } => StrabonError::Parse { line, column, message },
            RdfError::UnknownPrefix(p) => StrabonError::UnknownPrefix(p),
            RdfError::BadLiteral(m) => StrabonError::Eval(m),
        }
    }
}

/// Result alias.
pub(crate) type Result<T> = std::result::Result<T, StrabonError>;

/// Engine configuration toggles (the ablation knobs of E3/E4, plus
/// the thread count of E13).
#[derive(Debug, Clone, Copy)]
pub struct StrabonConfig {
    /// Reorder BGP triple patterns by estimated selectivity.
    pub optimize_bgp: bool,
    /// Use the R-tree sidecar to pre-filter spatial FILTERs.
    pub use_spatial_index: bool,
    /// Expand `?x rdf:type C` patterns over the `rdfs:subClassOf`
    /// closure of `C` (RDFS subsumption over the in-store ontology).
    pub rdfs_inference: bool,
    /// Worker threads for BGP probing, spatial-filter evaluation and
    /// the R-tree sidecar build: `0` = the `TELEIOS_THREADS` /
    /// available-parallelism default, `1` = the exact sequential
    /// path. Results are identical at every setting (morsel-order
    /// concatenation — see `teleios-exec`'s determinism contract).
    pub threads: usize,
}

impl Default for StrabonConfig {
    fn default() -> Self {
        StrabonConfig {
            optimize_bgp: true,
            use_spatial_index: true,
            rdfs_inference: false,
            threads: 0,
        }
    }
}

/// A set of query solutions.
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    /// Projected variable names, in order.
    pub vars: Vec<String>,
    /// Rows; `None` = unbound.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The binding of `var` in row `row`.
    pub fn get(&self, row: usize, var: &str) -> Option<&Term> {
        let i = self.vars.iter().position(|v| v == var)?;
        self.rows.get(row)?.get(i)?.as_ref()
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.vars.iter().map(|v| v.len() + 1).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|t| t.as_ref().map_or(String::new(), |t| t.to_string()))
                    .collect()
            })
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            out.push_str(&format!("?{:<w$}  ", v, w = widths[i].saturating_sub(1)));
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// The Strabon engine: a triple store plus spatial sidecar and config.
#[derive(Debug, Default)]
pub struct Strabon {
    pub(crate) store: TripleStore,
    pub(crate) config: StrabonConfig,
    pub(crate) spatial: spatial::SpatialSidecar,
}

impl Strabon {
    /// Empty engine with default configuration.
    pub fn new() -> Strabon {
        Strabon::default()
    }

    /// Empty engine with explicit configuration.
    pub fn with_config(config: StrabonConfig) -> Strabon {
        Strabon { config, ..Strabon::default() }
    }

    /// Current configuration.
    pub fn config(&self) -> StrabonConfig {
        self.config
    }

    /// The worker pool evaluation runs on, sized by
    /// [`StrabonConfig::threads`].
    pub(crate) fn pool(&self) -> WorkerPool {
        match self.config.threads {
            0 => WorkerPool::default(),
            n => WorkerPool::with_threads(n),
        }
    }

    /// Change configuration (the sidecar does not depend on it).
    pub fn set_config(&mut self, config: StrabonConfig) {
        self.config = config;
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Mutable access to the store. Writes through it need no notice:
    /// the next statement's sidecar catch-up reads the ids they
    /// interned, and a store replaced through the reference (recovery
    /// does `*db.store_mut() = recovered`) carries another dictionary,
    /// which the sidecar tells apart by identity and reads from scratch.
    pub fn store_mut(&mut self) -> &mut TripleStore {
        &mut self.store
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Load Turtle data. Returns the number of new triples.
    pub fn load_turtle(&mut self, turtle: &str) -> Result<usize> {
        Ok(teleios_rdf::turtle::parse_into(turtle, &mut self.store)?)
    }

    /// Insert one triple of terms. Returns false when it already existed.
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        self.store.insert_terms(s, p, o)
    }

    /// Run a SELECT or ASK query.
    pub fn query(&mut self, text: &str) -> Result<Solutions> {
        let query = parser::parse_query(text)?;
        eval::evaluate_query(self, &query)
    }

    /// Run an update. Returns the number of triples added plus removed.
    pub fn update(&mut self, text: &str) -> Result<usize> {
        let upd = parser::parse_update(text)?;
        update::execute_update(self, &upd)
    }

    /// Run a CONSTRUCT query, returning the derived triples (deduplicated,
    /// sorted). `Strabon::insert` them back, or into another store, to
    /// materialize the derivation.
    pub fn construct(&mut self, text: &str) -> Result<Vec<(Term, Term, Term)>> {
        match parser::parse_query(text)? {
            ast::Query::Construct(q) => eval::evaluate_construct(self, &q),
            _ => Err(StrabonError::Eval("construct() expects a CONSTRUCT query".into())),
        }
    }

    /// Render the plan the evaluator would walk, without walking it:
    /// spatial push-down candidate counts and every step in execution
    /// order, nested groups included, scans with their selectivity
    /// estimates.
    pub fn explain(&mut self, text: &str) -> Result<String> {
        let query = parser::parse_query(text)?;
        eval::explain_query(self, &query)
    }
}
