#![forbid(unsafe_code)]
//! # teleios-noa — the NOA fire-monitoring application
//!
//! The National Observatory of Athens real-time fire hotspot detection
//! service, the driving application of the TELEIOS demo (paper §4). The
//! processing chain has five modules: *(a)* ingestion, *(b)* cropping,
//! *(c)* georeferencing, *(d)* classification, *(e)* generation of
//! shapefiles containing the geometries of hotspots — implemented here
//! over the array store, with a post-processing **refinement** step that
//! improves the thematic accuracy of the products by comparing them with
//! geospatial linked data through stSPARQL updates (demo scenario 2),
//! and a **rapid-mapping** service that assembles fire maps enriched
//! with linked open data.
//!
//! Modules:
//!
//! * [`hotspot`] — classification submodules (fixed threshold,
//!   adaptive threshold, contextual) — the interchangeable module (d),
//! * [`shapefile`] — connected-component dissolve and exact rectilinear
//!   polygonization of hotspot masks — module (e),
//! * [`chain`] — the orchestrated five-module chain with per-stage
//!   timings (experiment E1),
//! * [`refine`] — the stSPARQL refinement of scenario 2 (experiment E7),
//! * [`burnt`] — burnt-area (fire scar) products accumulated over an
//!   event, with stRDF valid-time periods,
//! * [`accuracy`] — precision / recall / F1 scoring against ground truth,
//! * [`firemap`] — fire-map generation from linked-data layers (E10).

pub mod accuracy;
pub mod burnt;
pub mod chain;
pub mod firemap;
pub mod hotspot;
pub mod refine;
pub mod shapefile;

pub use chain::{ChainOutput, ChainStage, ProcessingChain, StageHook};
pub use hotspot::HotspotClassifier;
