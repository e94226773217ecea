#![forbid(unsafe_code)]
//! # teleios-ingest — the ingestion tier
//!
//! Components that transform original satellite data into database
//! representations (paper §3, tier 1):
//!
//! * [`raster::GeoRaster`] — a georeferenced multiband raster: the
//!   database-side image representation, with pixel ↔ geographic
//!   coordinate mapping,
//! * [`seviri`] — a deterministic synthetic MSG/SEVIRI scene generator
//!   (the paper's proprietary satellite feed is simulated; the generator
//!   reproduces the properties the demo depends on: a thermal band with
//!   fire anomalies, coarse spatial resolution, sensor noise, clouds,
//!   and warm false-positive artifacts near/over the sea),
//! * [`georef`] — cropping to an area of interest and georeferencing to
//!   a target grid,
//! * [`features`] — patch cutting and feature-vector extraction (the
//!   content-extraction components),
//! * [`metadata`] — product metadata as stRDF triples.

pub mod features;
pub mod georef;
pub mod metadata;
pub mod raster;
pub mod seviri;
