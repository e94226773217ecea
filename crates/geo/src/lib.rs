#![forbid(unsafe_code)]
//! # teleios-geo — OGC Simple Features geometry substrate
//!
//! From-scratch geometry engine used by every spatial component of the
//! TELEIOS Virtual Earth Observatory: the stRDF spatial literals, the
//! stSPARQL `strdf:*` extension functions, the hotspot shapefile
//! generation of the NOA fire-monitoring chain, and the rapid-mapping
//! service.
//!
//! The crate provides:
//!
//! * a [`Geometry`] model covering the seven OGC Simple Features types,
//! * a Well-Known Text reader/writer ([`wkt`]),
//! * topological predicates, overlay (intersection / union / difference),
//!   distance, area, centroid, convex hull, simplification and buffering
//!   ([`algorithm`]),
//! * an STR-packed, dynamically insertable R-tree ([`index::rtree`]),
//! * coordinate reference system support for EPSG:4326 and EPSG:3857
//!   ([`crs`]),
//! * the seeded generator behind every synthetic dataset ([`rng`]).
//!
//! ## Example
//!
//! ```
//! use teleios_geo::wkt;
//! use teleios_geo::algorithm::predicates::intersects;
//!
//! let a = wkt::parse("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))").unwrap();
//! let b = wkt::parse("POINT (5 5)").unwrap();
//! assert!(intersects(&a, &b));
//! ```

pub mod algorithm;
pub mod coord;
pub mod crs;
pub mod error;
pub mod geometry;
pub mod index;
pub mod rng;
pub mod wkt;

pub use coord::{Coord, Envelope};
pub use error::GeoError;
pub use geometry::{Geometry, LineString, Point, Polygon};
pub use rng::SplitMix64;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GeoError>;
