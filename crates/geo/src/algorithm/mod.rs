//! Geometric algorithms: predicates, measures, overlay, hulls, buffers.

pub mod area;
pub mod buffer;
pub mod clip;
pub mod convex_hull;
pub mod distance;
pub mod predicates;
pub mod segment;
