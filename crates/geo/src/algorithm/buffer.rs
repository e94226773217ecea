//! Positive buffering (dilation) of geometries.
//!
//! Buffers are approximated with sampled circular arcs (default 32
//! segments per full circle, the same default as PostGIS' `quad_segs=8`).
//! For lines and polygons the buffer is computed as the convex-hull union
//! of per-segment capsules; this is exact for convex inputs and a
//! conservative (slightly larger near reflex vertices) approximation for
//! concave inputs — adequate for the `strdf:buffer` use in stSPARQL
//! proximity queries, and documented as such.

use crate::algorithm::convex_hull::convex_hull_coords;
use crate::coord::Coord;
use crate::geometry::{Geometry, LineString, Polygon};

/// Number of segments used to approximate a full circle.
pub const DEFAULT_CIRCLE_SEGMENTS: usize = 32;

/// Sample `n` points on the circle of radius `r` around `center`.
fn circle_points(center: Coord, r: f64, n: usize) -> Vec<Coord> {
    (0..n)
        .map(|i| {
            let theta = (i as f64) * std::f64::consts::TAU / (n as f64);
            Coord::new(center.x + r * theta.cos(), center.y + r * theta.sin())
        })
        .collect()
}

/// Buffer a single point: a sampled circle polygon.
pub(crate) fn buffer_point(center: Coord, radius: f64, segments: usize) -> Polygon {
    let mut pts = circle_points(center, radius, segments.max(8));
    let first = pts[0];
    pts.push(first);
    let mut p = Polygon::new(LineString(pts), vec![]);
    p.normalize();
    p
}

/// Buffer a segment: a capsule (rectangle plus end caps), returned as the
/// convex hull of sampled end circles.
fn buffer_segment(a: Coord, b: Coord, radius: f64, segments: usize) -> Polygon {
    let mut pts = circle_points(a, radius, segments.max(8));
    pts.extend(circle_points(b, radius, segments.max(8)));
    match convex_hull_coords(&pts) {
        Some(Geometry::Polygon(p)) => p,
        _ => buffer_point(a, radius, segments),
    }
}

/// Buffer a geometry by `radius` (must be positive), producing a
/// `MultiPolygon` of per-piece buffers.
///
/// The result is a *covering* of the true buffer: every point within
/// `radius` of the input is inside some result polygon. Pieces may
/// overlap; callers that need a measure should use
/// [`crate::algorithm::clip::overlay`] to dissolve, or use
/// [`crate::algorithm::distance::within_distance`] for predicates, which
/// is exact.
pub fn buffer(g: &Geometry, radius: f64, segments: usize) -> Geometry {
    assert!(radius > 0.0, "buffer radius must be positive");
    let mut parts: Vec<Polygon> = Vec::new();
    collect_buffers(g, radius, segments, &mut parts);
    Geometry::MultiPolygon(parts)
}

fn collect_buffers(g: &Geometry, radius: f64, segments: usize, out: &mut Vec<Polygon>) {
    match g {
        Geometry::Point(p) => out.push(buffer_point(p.0, radius, segments)),
        Geometry::LineString(l) => {
            if l.len() == 1 {
                out.push(buffer_point(l.coords()[0], radius, segments));
            }
            for (a, b) in l.segments() {
                out.push(buffer_segment(a, b, radius, segments));
            }
        }
        Geometry::Polygon(p) => {
            // The polygon interior plus a band around its boundary.
            out.push(p.clone());
            for (a, b) in p.exterior.segments() {
                out.push(buffer_segment(a, b, radius, segments));
            }
        }
        Geometry::MultiPoint(ps) => {
            for p in ps {
                out.push(buffer_point(p.0, radius, segments));
            }
        }
        Geometry::MultiLineString(ls) => {
            for l in ls {
                collect_buffers(&Geometry::LineString(l.clone()), radius, segments, out);
            }
        }
        Geometry::MultiPolygon(ps) => {
            for p in ps {
                collect_buffers(&Geometry::Polygon(p.clone()), radius, segments, out);
            }
        }
        Geometry::GeometryCollection(gs) => {
            for g in gs {
                collect_buffers(g, radius, segments, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::predicates::intersects;
    use crate::geometry::Point;
    use crate::wkt::parse;

    #[test]
    fn point_buffer_area_approximates_circle() {
        let p = buffer_point(Coord::new(0.0, 0.0), 1.0, 64);
        let area = p.area();
        assert!((area - std::f64::consts::PI).abs() < 0.01, "area {area}");
    }

    #[test]
    fn point_buffer_contains_center_and_excludes_far() {
        let b = buffer(&Geometry::Point(Point::new(5.0, 5.0)), 2.0, 32);
        assert!(intersects(&b, &parse("POINT (5 5)").unwrap()));
        assert!(intersects(&b, &parse("POINT (6.9 5)").unwrap()));
        assert!(!intersects(&b, &parse("POINT (7.5 5)").unwrap()));
    }

    #[test]
    fn segment_buffer_covers_band() {
        let l = parse("LINESTRING (0 0, 10 0)").unwrap();
        let b = buffer(&l, 1.0, 32);
        assert!(intersects(&b, &parse("POINT (5 0.9)").unwrap()));
        assert!(intersects(&b, &parse("POINT (-0.9 0)").unwrap())); // end cap
        assert!(!intersects(&b, &parse("POINT (5 1.5)").unwrap()));
    }

    #[test]
    fn polygon_buffer_covers_expansion() {
        let p = parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        let b = buffer(&p, 1.0, 32);
        assert!(intersects(&b, &parse("POINT (2 2)").unwrap())); // interior
        assert!(intersects(&b, &parse("POINT (4.9 2)").unwrap())); // band
        assert!(!intersects(&b, &parse("POINT (6 2)").unwrap()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_radius_panics() {
        buffer(&parse("POINT (0 0)").unwrap(), -1.0, 16);
    }

    #[test]
    fn multigeometry_buffer_piece_count() {
        let mp = parse("MULTIPOINT ((0 0), (10 10))").unwrap();
        let b = buffer(&mp, 1.0, 16);
        match b {
            Geometry::MultiPolygon(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected multipolygon, got {other:?}"),
        }
    }
}
