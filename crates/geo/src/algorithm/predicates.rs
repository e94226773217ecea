//! Topological predicates: intersects, contains, within, disjoint, touches.
//!
//! The predicates follow OGC Simple Features semantics for the geometry
//! combinations that arise in an Earth-Observation workload (point/line/
//! polygon and their multi variants). `touches` is implemented for the
//! area/area and point/area cases used by stSPARQL.

use crate::algorithm::segment::{segments_intersect, SegmentIntersection};
use crate::coord::{Coord, Envelope};
use crate::geometry::{Geometry, LineString, Polygon};

/// Where a point lies relative to a ring or polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLocation {
    /// Strictly inside.
    Inside,
    /// On the boundary.
    Boundary,
    /// Strictly outside.
    Outside,
}

/// Locate `p` relative to a closed ring using a crossing-number walk that
/// reports boundary exactly.
pub fn locate_point_in_ring(p: Coord, ring: &LineString) -> PointLocation {
    let coords = ring.coords();
    if coords.len() < 4 {
        return PointLocation::Outside;
    }
    let mut inside = false;
    for w in coords.windows(2) {
        let (a, b) = (w[0], w[1]);
        // Boundary check first: point on segment.
        if crate::algorithm::segment::point_segment_distance(a, b, p) < 1e-12 {
            return PointLocation::Boundary;
        }
        // Ray casting to the right.
        if (a.y > p.y) != (b.y > p.y) {
            let x_int = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_int {
                inside = !inside;
            }
        }
    }
    if inside {
        PointLocation::Inside
    } else {
        PointLocation::Outside
    }
}

/// Locate `p` relative to a polygon (exterior minus holes).
pub fn locate_point_in_polygon(p: Coord, poly: &Polygon) -> PointLocation {
    match locate_point_in_ring(p, &poly.exterior) {
        PointLocation::Outside => PointLocation::Outside,
        PointLocation::Boundary => PointLocation::Boundary,
        PointLocation::Inside => {
            for hole in &poly.interiors {
                match locate_point_in_ring(p, hole) {
                    PointLocation::Inside => return PointLocation::Outside,
                    PointLocation::Boundary => return PointLocation::Boundary,
                    PointLocation::Outside => {}
                }
            }
            PointLocation::Inside
        }
    }
}

/// True when point `p` is inside or on the boundary of `poly`.
pub fn polygon_covers_coord(poly: &Polygon, p: Coord) -> bool {
    locate_point_in_polygon(p, poly) != PointLocation::Outside
}

fn ring_segments(r: &LineString) -> impl Iterator<Item = (Coord, Coord)> + '_ {
    r.segments()
}

fn polygon_rings(p: &Polygon) -> impl Iterator<Item = &LineString> {
    std::iter::once(&p.exterior).chain(p.interiors.iter())
}

/// Whether any segment of `a` meets any segment of `b`.
fn segments_meet(a: &LineString, b: &LineString) -> bool {
    a.segments().any(|(p1, p2)| b.segments().any(|(q1, q2)| segments_intersect(p1, p2, q1, q2)))
}

/// Whether `l`, whose envelope is `el`, meets polygon `p`.
fn line_polygon_intersects(l: &LineString, el: &Envelope, p: &Polygon) -> bool {
    if l.coords().iter().any(|&c| polygon_covers_coord(p, c)) {
        return true;
    }
    polygon_rings(p).any(|ring| ring.envelope().intersects(el) && segments_meet(l, ring))
}

fn polygon_polygon_intersects(a: &Polygon, b: &Polygon) -> bool {
    // Any boundary crossing, or one fully inside the other; each ring's
    // envelope is computed once.
    let rings_b: Vec<(&LineString, Envelope)> = polygon_rings(b).map(|r| (r, r.envelope())).collect();
    for ra in polygon_rings(a) {
        let ea = ra.envelope();
        if rings_b.iter().any(|(rb, eb)| ea.intersects(eb) && segments_meet(ra, rb)) {
            return true;
        }
    }
    a.exterior.coords().first().is_some_and(|&c| polygon_covers_coord(b, c))
        || b.exterior.coords().first().is_some_and(|&c| polygon_covers_coord(a, c))
}

/// True when `g` is an axis-aligned rectangle: a polygon without holes
/// whose exterior is five coordinates, closed, each edge moving along
/// one axis and the next along the other. Such a polygon covers every
/// point of its envelope.
fn is_rectangle(g: &Geometry) -> bool {
    let Geometry::Polygon(p) = g else { return false };
    let c = p.exterior.coords();
    let along_x = |i: usize| c[i].y == c[i + 1].y && c[i].x != c[i + 1].x;
    let along_y = |i: usize| c[i].x == c[i + 1].x && c[i].y != c[i + 1].y;
    p.interiors.is_empty()
        && c.len() == 5
        && c[0] == c[4]
        && ((along_x(0) && along_y(1) && along_x(2) && along_y(3))
            || (along_y(0) && along_x(1) && along_y(2) && along_x(3)))
}

/// OGC `Intersects`: the geometries share at least one point.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    meets(a, &a.envelope(), b, &b.envelope())
}

/// [`intersects`] with each side's envelope computed by the caller, once.
pub(crate) fn meets(a: &Geometry, ea: &Envelope, b: &Geometry, eb: &Envelope) -> bool {
    if a.is_empty() || b.is_empty() || !ea.intersects(eb) {
        return false;
    }
    // A rectangle covers its envelope, so it meets another rectangle
    // whose envelope meets its own, and whatever has a vertex in its
    // envelope: no segment tests (every fire-map layer and region query
    // is such a window).
    let vertex_in = |g: &Geometry, e: &Envelope| {
        let mut found = false;
        g.for_each_coord(&mut |c| found |= e.contains_coord(c));
        found
    };
    let (ra, rb) = (is_rectangle(a), is_rectangle(b));
    if (rb && (ra || vertex_in(a, eb))) || (ra && vertex_in(b, ea)) {
        return true;
    }
    use Geometry::*;
    match (a, b) {
        (Point(p), Point(q)) => p.0.distance(&q.0) < 1e-12,
        (Point(p), LineString(l)) | (LineString(l), Point(p)) => ring_segments(l)
            .any(|(s, e)| crate::algorithm::segment::point_segment_distance(s, e, p.0) < 1e-12),
        (Point(p), Polygon(poly)) | (Polygon(poly), Point(p)) => polygon_covers_coord(poly, p.0),
        (LineString(l1), LineString(l2)) => segments_meet(l1, l2),
        (LineString(l), Polygon(p)) => line_polygon_intersects(l, ea, p),
        (Polygon(p), LineString(l)) => line_polygon_intersects(l, eb, p),
        (Polygon(p1), Polygon(p2)) => polygon_polygon_intersects(p1, p2),
        // Multi/collection cases: decompose the multi side.
        (MultiPoint(_) | MultiLineString(_) | MultiPolygon(_) | GeometryCollection(_), _) => {
            a.primitives().iter().any(|pa| meets(pa, &pa.envelope(), b, eb))
        }
        (_, MultiPoint(_) | MultiLineString(_) | MultiPolygon(_) | GeometryCollection(_)) => {
            b.primitives().iter().any(|pb| meets(a, ea, pb, &pb.envelope()))
        }
    }
}

/// OGC `Disjoint`: the geometries share no point.
pub fn disjoint(a: &Geometry, b: &Geometry) -> bool {
    !intersects(a, b)
}

fn polygon_contains_line(p: &Polygon, l: &LineString) -> bool {
    // Every vertex covered and no crossing through the exterior.
    if !l.coords().iter().all(|&c| polygon_covers_coord(p, c)) {
        return false;
    }
    // Check midpoints of segments too (a segment may leave and re-enter
    // through the boundary even with both endpoints covered).
    l.segments().all(|(a, b)| polygon_covers_coord(p, a.lerp(&b, 0.5)))
}

fn polygon_contains_polygon(outer: &Polygon, inner: &Polygon) -> bool {
    if !outer.envelope().contains_envelope(&inner.envelope()) {
        return false;
    }
    // All inner exterior vertices covered by outer...
    if !inner.exterior.coords().iter().all(|&c| polygon_covers_coord(outer, c)) {
        return false;
    }
    // ...and the inner boundary does not cross the outer boundary properly.
    for ro in polygon_rings(outer) {
        for (q1, q2) in ro.segments() {
            for (p1, p2) in inner.exterior.segments() {
                if let SegmentIntersection::Point(x) =
                    crate::algorithm::segment::segment_intersection(p1, p2, q1, q2)
                {
                    // A touch at a shared vertex is fine; a proper crossing
                    // is not. Test a point slightly past the intersection.
                    let dir = p2 - p1;
                    let probe = x + dir * 1e-9;
                    let probe2 = x + dir * -1e-9;
                    if !polygon_covers_coord(outer, probe) && !polygon_covers_coord(outer, probe2) {
                        return false;
                    }
                }
            }
        }
    }
    // Inner must not sit inside one of outer's holes.
    if let Some(&c) = inner.exterior.coords().first() {
        if locate_point_in_polygon(c, outer) == PointLocation::Outside {
            return false;
        }
    }
    true
}

/// OGC `Contains` (approximated as *covers* for boundary cases): every
/// point of `b` lies in `a`.
pub fn contains(a: &Geometry, b: &Geometry) -> bool {
    if a.is_empty() || b.is_empty() || !a.envelope().contains_envelope(&b.envelope()) {
        return false;
    }
    use Geometry::*;
    match (a, b) {
        (Point(p), Point(q)) => p.0.distance(&q.0) < 1e-12,
        (LineString(l), Point(p)) => ring_segments(l)
            .any(|(s, e)| crate::algorithm::segment::point_segment_distance(s, e, p.0) < 1e-12),
        (Polygon(poly), Point(p)) => polygon_covers_coord(poly, p.0),
        (Polygon(poly), LineString(l)) => polygon_contains_line(poly, l),
        (Polygon(p1), Polygon(p2)) => polygon_contains_polygon(p1, p2),
        (LineString(l1), LineString(l2)) => {
            // Coarse containment: every vertex and midpoint of l2 on l1.
            l2.coords().iter().all(|&c| {
                ring_segments(l1)
                    .any(|(s, e)| crate::algorithm::segment::point_segment_distance(s, e, c) < 1e-12)
            })
        }
        (_, MultiPoint(_) | MultiLineString(_) | MultiPolygon(_) | GeometryCollection(_)) => {
            b.primitives().iter().all(|pb| contains(a, pb))
        }
        (MultiPolygon(_) | GeometryCollection(_), _) => {
            a.primitives().iter().any(|pa| contains(pa, b))
        }
        _ => false,
    }
}

/// OGC `Within`: inverse of [`contains`].
pub fn within(a: &Geometry, b: &Geometry) -> bool {
    contains(b, a)
}

/// OGC `Touches`: the geometries intersect but their interiors do not.
///
/// Implemented for the point/area, line/area and area/area cases.
pub fn touches(a: &Geometry, b: &Geometry) -> bool {
    if !intersects(a, b) {
        return false;
    }
    use Geometry::*;
    match (a, b) {
        (Point(p), Polygon(poly)) | (Polygon(poly), Point(p)) => {
            locate_point_in_polygon(p.0, poly) == PointLocation::Boundary
        }
        (Polygon(p1), Polygon(p2)) => !interiors_overlap(p1, p2),
        (LineString(l), Polygon(p)) | (Polygon(p), LineString(l)) => {
            // Touches when no line point is strictly inside.
            !l.coords().iter().any(|&c| locate_point_in_polygon(c, p) == PointLocation::Inside)
                && !l.segments().any(|(s, e)| {
                    locate_point_in_polygon(s.lerp(&e, 0.5), p) == PointLocation::Inside
                })
        }
        _ => false,
    }
}

fn interiors_overlap(a: &Polygon, b: &Polygon) -> bool {
    // Interiors overlap if a boundary crossing is proper, or a vertex of
    // one is strictly inside the other.
    if a.exterior.coords().iter().any(|&c| locate_point_in_polygon(c, b) == PointLocation::Inside) {
        return true;
    }
    if b.exterior.coords().iter().any(|&c| locate_point_in_polygon(c, a) == PointLocation::Inside) {
        return true;
    }
    // Check midpoints of intersected boundary pieces.
    for (p1, p2) in a.exterior.segments() {
        for (q1, q2) in b.exterior.segments() {
            if let SegmentIntersection::Point(x) =
                crate::algorithm::segment::segment_intersection(p1, p2, q1, q2)
            {
                let dir = p2 - p1;
                for probe in [x + dir * 1e-9, x - dir * 1e-9] {
                    if locate_point_in_polygon(probe, b) == PointLocation::Inside
                        && locate_point_in_polygon(probe, a) != PointLocation::Outside
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// OGC `Equals` (coordinate-wise, tolerant): same type, same coordinates.
pub fn equals(a: &Geometry, b: &Geometry) -> bool {
    fn coords_eq(a: &Geometry, b: &Geometry) -> bool {
        let mut va = Vec::new();
        let mut vb = Vec::new();
        a.for_each_coord(&mut |c| va.push(c));
        b.for_each_coord(&mut |c| vb.push(c));
        va.len() == vb.len()
            && va.iter().zip(&vb).all(|(x, y)| x.distance(y) < 1e-12)
    }
    a.type_name() == b.type_name() && coords_eq(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse;

    fn g(s: &str) -> Geometry {
        parse(s).unwrap()
    }

    #[test]
    fn point_in_ring_locations() {
        let sq = LineString::from(vec![(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]);
        assert_eq!(locate_point_in_ring(Coord::new(2.0, 2.0), &sq), PointLocation::Inside);
        assert_eq!(locate_point_in_ring(Coord::new(4.0, 2.0), &sq), PointLocation::Boundary);
        assert_eq!(locate_point_in_ring(Coord::new(0.0, 0.0), &sq), PointLocation::Boundary);
        assert_eq!(locate_point_in_ring(Coord::new(5.0, 2.0), &sq), PointLocation::Outside);
        assert_eq!(locate_point_in_ring(Coord::new(-1.0, 2.0), &sq), PointLocation::Outside);
    }

    #[test]
    fn point_in_concave_ring() {
        // A "U" shape: the notch is outside.
        let u = LineString::from(vec![
            (0.0, 0.0),
            (6.0, 0.0),
            (6.0, 4.0),
            (4.0, 4.0),
            (4.0, 2.0),
            (2.0, 2.0),
            (2.0, 4.0),
            (0.0, 4.0),
            (0.0, 0.0),
        ]);
        assert_eq!(locate_point_in_ring(Coord::new(3.0, 3.0), &u), PointLocation::Outside);
        assert_eq!(locate_point_in_ring(Coord::new(1.0, 1.0), &u), PointLocation::Inside);
        assert_eq!(locate_point_in_ring(Coord::new(5.0, 3.0), &u), PointLocation::Inside);
    }

    #[test]
    fn point_in_polygon_with_hole() {
        let p = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))");
        let Geometry::Polygon(poly) = &p else { panic!() };
        assert_eq!(locate_point_in_polygon(Coord::new(5.0, 5.0), poly), PointLocation::Outside);
        assert_eq!(locate_point_in_polygon(Coord::new(1.0, 1.0), poly), PointLocation::Inside);
        assert_eq!(locate_point_in_polygon(Coord::new(3.0, 5.0), poly), PointLocation::Boundary);
    }

    #[test]
    fn intersects_point_polygon() {
        let poly = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        assert!(intersects(&poly, &g("POINT (5 5)")));
        assert!(intersects(&poly, &g("POINT (10 5)"))); // boundary
        assert!(!intersects(&poly, &g("POINT (11 5)")));
    }

    #[test]
    fn intersects_line_line() {
        assert!(intersects(&g("LINESTRING (0 0, 10 10)"), &g("LINESTRING (0 10, 10 0)")));
        assert!(!intersects(&g("LINESTRING (0 0, 1 1)"), &g("LINESTRING (2 2, 3 3)")));
    }

    #[test]
    fn intersects_line_polygon_line_fully_inside() {
        let poly = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        assert!(intersects(&poly, &g("LINESTRING (2 2, 3 3)")));
    }

    #[test]
    fn intersects_polygon_polygon_overlap_and_containment() {
        let a = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
        let c = g("POLYGON ((2 2, 3 2, 3 3, 2 3, 2 2))");
        let d = g("POLYGON ((20 20, 30 20, 30 30, 20 30, 20 20))");
        assert!(intersects(&a, &b));
        assert!(intersects(&a, &c)); // containment, no boundary crossing
        assert!(!intersects(&a, &d));
    }

    #[test]
    fn contains_cases() {
        let a = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        assert!(contains(&a, &g("POINT (5 5)")));
        assert!(contains(&a, &g("POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))")));
        assert!(!contains(&a, &g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")));
        assert!(contains(&a, &g("LINESTRING (1 1, 9 9)")));
        assert!(!contains(&a, &g("LINESTRING (1 1, 11 11)")));
    }

    #[test]
    fn contains_rejects_polygon_in_hole() {
        let donut = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (3 3, 7 3, 7 7, 3 7, 3 3))");
        let inner = g("POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))");
        assert!(!contains(&donut, &inner));
    }

    #[test]
    fn within_is_inverse_of_contains() {
        let a = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = g("POINT (1 1)");
        assert!(within(&b, &a));
        assert!(!within(&a, &b));
    }

    #[test]
    fn touches_adjacent_squares() {
        let a = g("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        let b = g("POLYGON ((1 0, 2 0, 2 1, 1 1, 1 0))");
        assert!(touches(&a, &b));
        let c = g("POLYGON ((0.5 0, 1.5 0, 1.5 1, 0.5 1, 0.5 0))");
        assert!(!touches(&a, &c)); // overlapping interiors
    }

    #[test]
    fn touches_point_on_boundary() {
        let a = g("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        assert!(touches(&a, &g("POINT (1 0.5)")));
        assert!(!touches(&a, &g("POINT (0.5 0.5)")));
    }

    #[test]
    fn equals_tolerant() {
        let a = g("POINT (1 2)");
        let b = g("POINT (1.0000000000001 2)");
        assert!(equals(&a, &b));
        assert!(!equals(&a, &g("POINT (1.1 2)")));
        assert!(!equals(&a, &g("LINESTRING (1 2, 3 4)")));
    }

    #[test]
    fn multi_geometry_decomposition() {
        let mp = g("MULTIPOINT ((1 1), (20 20))");
        let poly = g("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
        assert!(intersects(&mp, &poly));
        assert!(!contains(&poly, &mp)); // (20,20) outside
    }
}
