//! Minimum distance between geometries.

use crate::algorithm::predicates::{meets, polygon_covers_coord};
use crate::algorithm::segment::{point_segment_distance, segment_segment_distance};
use crate::coord::Coord;
use crate::geometry::{Geometry, LineString, Polygon};

fn point_line_distance(p: Coord, l: &LineString) -> f64 {
    if l.len() == 1 {
        return p.distance(&l.coords()[0]);
    }
    l.segments()
        .map(|(a, b)| point_segment_distance(a, b, p))
        .fold(f64::INFINITY, f64::min)
}

fn point_polygon_distance(p: Coord, poly: &Polygon) -> f64 {
    if polygon_covers_coord(poly, p) {
        return 0.0;
    }
    std::iter::once(&poly.exterior)
        .chain(poly.interiors.iter())
        .map(|r| point_line_distance(p, r))
        .fold(f64::INFINITY, f64::min)
}

fn line_line_distance(a: &LineString, b: &LineString) -> f64 {
    let mut best = f64::INFINITY;
    for (p1, p2) in a.segments() {
        for (q1, q2) in b.segments() {
            best = best.min(segment_segment_distance(p1, p2, q1, q2));
            if best == 0.0 {
                return 0.0;
            }
        }
    }
    if best.is_infinite() {
        // One of the lines has a single vertex.
        match (a.coords().first(), b.coords().first()) {
            (Some(&pa), _) if b.len() >= 2 => best = point_line_distance(pa, b),
            (_, Some(&pb)) if a.len() >= 2 => best = point_line_distance(pb, a),
            (Some(&pa), Some(&pb)) => best = pa.distance(&pb),
            _ => {}
        }
    }
    best
}

fn line_polygon_distance(l: &LineString, p: &Polygon) -> f64 {
    if l.coords().iter().any(|&c| polygon_covers_coord(p, c)) {
        return 0.0;
    }
    std::iter::once(&p.exterior)
        .chain(p.interiors.iter())
        .map(|r| line_line_distance(l, r))
        .fold(f64::INFINITY, f64::min)
}

fn polygon_polygon_distance(a: &Polygon, b: &Polygon) -> f64 {
    if a.exterior.coords().first().is_some_and(|&c| polygon_covers_coord(b, c))
        || b.exterior.coords().first().is_some_and(|&c| polygon_covers_coord(a, c))
    {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for ra in std::iter::once(&a.exterior).chain(a.interiors.iter()) {
        for rb in std::iter::once(&b.exterior).chain(b.interiors.iter()) {
            best = best.min(line_line_distance(ra, rb));
            if best == 0.0 {
                return 0.0;
            }
        }
    }
    best
}

/// Minimum Euclidean distance between two geometries (0 when they
/// intersect). Units are those of the coordinates.
pub fn distance(a: &Geometry, b: &Geometry) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    use Geometry::*;
    match (a, b) {
        (Point(p), Point(q)) => p.0.distance(&q.0),
        (Point(p), LineString(l)) | (LineString(l), Point(p)) => point_line_distance(p.0, l),
        (Point(p), Polygon(poly)) | (Polygon(poly), Point(p)) => point_polygon_distance(p.0, poly),
        (LineString(l1), LineString(l2)) => line_line_distance(l1, l2),
        (LineString(l), Polygon(p)) | (Polygon(p), LineString(l)) => line_polygon_distance(l, p),
        (Polygon(p1), Polygon(p2)) => polygon_polygon_distance(p1, p2),
        (MultiPoint(_) | MultiLineString(_) | MultiPolygon(_) | GeometryCollection(_), _) => a
            .primitives()
            .iter()
            .map(|pa| distance(pa, b))
            .fold(f64::INFINITY, f64::min),
        (_, MultiPoint(_) | MultiLineString(_) | MultiPolygon(_) | GeometryCollection(_)) => b
            .primitives()
            .iter()
            .map(|pb| distance(a, pb))
            .fold(f64::INFINITY, f64::min),
    }
}

/// True when the geometries lie within `d` of each other.
///
/// This is the primitive behind stSPARQL's `strdf:distance(g1, g2) < d`
/// filters; it short-circuits on envelope distance before doing exact
/// work, computing each envelope once.
pub fn within_distance(a: &Geometry, b: &Geometry, d: f64) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let (ea, eb) = (a.envelope(), b.envelope());
    if ea.distance(&eb) > d {
        return false;
    }
    if meets(a, &ea, b, &eb) {
        return true;
    }
    distance(a, b) <= d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse;

    fn g(s: &str) -> Geometry {
        parse(s).unwrap()
    }

    #[test]
    fn point_point() {
        assert_eq!(distance(&g("POINT (0 0)"), &g("POINT (3 4)")), 5.0);
    }

    #[test]
    fn point_line() {
        assert_eq!(distance(&g("POINT (5 3)"), &g("LINESTRING (0 0, 10 0)")), 3.0);
        assert_eq!(distance(&g("POINT (-3 4)"), &g("LINESTRING (0 0, 10 0)")), 5.0);
    }

    #[test]
    fn point_polygon_inside_is_zero() {
        let poly = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        assert_eq!(distance(&g("POINT (5 5)"), &poly), 0.0);
        assert_eq!(distance(&g("POINT (15 5)"), &poly), 5.0);
    }

    #[test]
    fn point_in_hole_distance_to_hole_boundary() {
        let d = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))");
        assert_eq!(distance(&g("POINT (5 5)"), &d), 1.0);
    }

    #[test]
    fn line_line_parallel() {
        assert_eq!(
            distance(&g("LINESTRING (0 0, 10 0)"), &g("LINESTRING (0 2, 10 2)")),
            2.0
        );
    }

    #[test]
    fn line_crossing_polygon_is_zero() {
        let poly = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        assert_eq!(distance(&g("LINESTRING (-5 5, 15 5)"), &poly), 0.0);
    }

    #[test]
    fn polygon_polygon_gap() {
        let a = g("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        let b = g("POLYGON ((3 0, 4 0, 4 1, 3 1, 3 0))");
        assert_eq!(distance(&a, &b), 2.0);
    }

    #[test]
    fn nested_polygons_zero() {
        let a = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = g("POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))");
        assert_eq!(distance(&a, &b), 0.0);
    }

    #[test]
    fn multipoint_min_distance() {
        let mp = g("MULTIPOINT ((100 100), (0 3))");
        assert_eq!(distance(&mp, &g("POINT (0 0)")), 3.0);
    }

    #[test]
    fn within_distance_filters() {
        let a = g("POINT (0 0)");
        let b = g("POINT (3 4)");
        assert!(within_distance(&a, &b, 5.0));
        assert!(within_distance(&a, &b, 5.5));
        assert!(!within_distance(&a, &b, 4.9));
    }

    #[test]
    fn within_distance_envelope_shortcut() {
        let a = g("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        let b = g("POINT (100 100)");
        assert!(!within_distance(&a, &b, 10.0));
    }

    #[test]
    fn empty_geometry_distance_infinite() {
        assert!(distance(&Geometry::MultiPoint(vec![]), &g("POINT (0 0)")).is_infinite());
    }
}
