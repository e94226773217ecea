#![forbid(unsafe_code)]
//! # teleios-linked — synthetic linked open geospatial data
//!
//! TELEIOS joins EO product annotations against auxiliary open
//! geospatial datasets — GeoNames, LinkedGeoData, DBpedia, CORINE land
//! cover, coastline data. Those datasets are external services; this
//! crate generates deterministic, seeded stand-ins with the same *shape*:
//!
//! * a [`world::World`] — a coastline (land polygon), land-cover
//!   polygons, populated places, archaeological sites and a road
//!   network over a configurable geographic window,
//! * per-dataset emitters ([`emit`]) that publish the world as stRDF
//!   triples under GeoNames/LGD/CORINE-like namespaces, ready to load
//!   into Strabon.
//!
//! Everything is reproducible from a `u64` seed.

pub mod emit;
pub mod world;
