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
//!   distance, area, centroid, convex hull and buffering ([`algorithm`]),
//! * an STR bulk-loaded R-tree ([`index::rtree`]),
//! * local-projection areas in square metres of WGS 84 geometries
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
pub(crate) use error::GeoError;
pub use geometry::{Geometry, LineString, Point, Polygon};
pub use rng::SplitMix64;

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, GeoError>;
