//! Line-segment primitives: intersection tests and closest points.

use crate::coord::{orient2d, Coord, Orientation};

/// Result of intersecting two line segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SegmentIntersection {
    /// The segments do not meet.
    None,
    /// The segments meet in exactly one point.
    Point(Coord),
    /// The segments overlap along a collinear sub-segment.
    Overlap(Coord, Coord),
}

/// True when `c` lies on the closed segment (a, b), assuming collinearity.
fn on_segment(a: Coord, b: Coord, c: Coord) -> bool {
    c.x >= a.x.min(b.x) - f64::EPSILON
        && c.x <= a.x.max(b.x) + f64::EPSILON
        && c.y >= a.y.min(b.y) - f64::EPSILON
        && c.y <= a.y.max(b.y) + f64::EPSILON
}

/// True when the closed segments (p1, p2) and (q1, q2) share any point.
pub(crate) fn segments_intersect(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> bool {
    let o1 = orient2d(p1, p2, q1);
    let o2 = orient2d(p1, p2, q2);
    let o3 = orient2d(q1, q2, p1);
    let o4 = orient2d(q1, q2, p2);

    if o1 != o2 && o3 != o4 {
        return true;
    }
    (o1 == Orientation::Collinear && on_segment(p1, p2, q1))
        || (o2 == Orientation::Collinear && on_segment(p1, p2, q2))
        || (o3 == Orientation::Collinear && on_segment(q1, q2, p1))
        || (o4 == Orientation::Collinear && on_segment(q1, q2, p2))
}

/// Compute the intersection of two closed segments.
pub(crate) fn segment_intersection(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> SegmentIntersection {
    let r = p2 - p1;
    let s = q2 - q1;
    let denom = r.cross(&s);
    let qp = q1 - p1;

    if denom.abs() > 1e-18 {
        let t = qp.cross(&s) / denom;
        let u = qp.cross(&r) / denom;
        let eps = 1e-12;
        if t >= -eps && t <= 1.0 + eps && u >= -eps && u <= 1.0 + eps {
            return SegmentIntersection::Point(p1 + r * t.clamp(0.0, 1.0));
        }
        return SegmentIntersection::None;
    }

    // Parallel. Check collinearity.
    if qp.cross(&r).abs() > 1e-9 * (1.0 + r.norm() * qp.norm()) {
        return SegmentIntersection::None;
    }
    // Collinear: project onto r to find the overlap interval.
    let rr = r.dot(&r);
    if rr == 0.0 {
        // p is a single point.
        if on_segment(q1, q2, p1) {
            return SegmentIntersection::Point(p1);
        }
        return SegmentIntersection::None;
    }
    let t0 = qp.dot(&r) / rr;
    let t1 = (q2 - p1).dot(&r) / rr;
    let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
    let lo = lo.max(0.0);
    let hi = hi.min(1.0);
    if lo > hi {
        return SegmentIntersection::None;
    }
    let a = p1 + r * lo;
    let b = p1 + r * hi;
    if lo == hi {
        SegmentIntersection::Point(a)
    } else {
        SegmentIntersection::Overlap(a, b)
    }
}

/// Closest point on the closed segment (a, b) to point `p`.
pub(crate) fn closest_point_on_segment(a: Coord, b: Coord, p: Coord) -> Coord {
    let ab = b - a;
    let len2 = ab.dot(&ab);
    if len2 == 0.0 {
        return a;
    }
    let t = ((p - a).dot(&ab) / len2).clamp(0.0, 1.0);
    a + ab * t
}

/// Distance from point `p` to the closed segment (a, b).
pub(crate) fn point_segment_distance(a: Coord, b: Coord, p: Coord) -> f64 {
    p.distance(&closest_point_on_segment(a, b, p))
}

/// Minimum distance between two closed segments.
pub(crate) fn segment_segment_distance(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> f64 {
    if segments_intersect(p1, p2, q1, q2) {
        return 0.0;
    }
    point_segment_distance(p1, p2, q1)
        .min(point_segment_distance(p1, p2, q2))
        .min(point_segment_distance(q1, q2, p1))
        .min(point_segment_distance(q1, q2, p2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: f64, y: f64) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn crossing_segments() {
        assert!(segments_intersect(c(0.0, 0.0), c(2.0, 2.0), c(0.0, 2.0), c(2.0, 0.0)));
        match segment_intersection(c(0.0, 0.0), c(2.0, 2.0), c(0.0, 2.0), c(2.0, 0.0)) {
            SegmentIntersection::Point(p) => {
                assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12)
            }
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_segments() {
        assert!(!segments_intersect(c(0.0, 0.0), c(1.0, 0.0), c(0.0, 1.0), c(1.0, 1.0)));
        assert_eq!(
            segment_intersection(c(0.0, 0.0), c(1.0, 0.0), c(0.0, 1.0), c(1.0, 1.0)),
            SegmentIntersection::None
        );
    }

    #[test]
    fn touching_at_endpoint() {
        assert!(segments_intersect(c(0.0, 0.0), c(1.0, 1.0), c(1.0, 1.0), c(2.0, 0.0)));
        match segment_intersection(c(0.0, 0.0), c(1.0, 1.0), c(1.0, 1.0), c(2.0, 0.0)) {
            SegmentIntersection::Point(p) => assert_eq!(p, c(1.0, 1.0)),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn t_junction() {
        // q's endpoint lies in the interior of p.
        assert!(segments_intersect(c(0.0, 0.0), c(2.0, 0.0), c(1.0, 0.0), c(1.0, 5.0)));
    }

    #[test]
    fn collinear_overlap() {
        match segment_intersection(c(0.0, 0.0), c(3.0, 0.0), c(1.0, 0.0), c(5.0, 0.0)) {
            SegmentIntersection::Overlap(a, b) => {
                assert_eq!(a, c(1.0, 0.0));
                assert_eq!(b, c(3.0, 0.0));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn collinear_disjoint() {
        assert_eq!(
            segment_intersection(c(0.0, 0.0), c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)),
            SegmentIntersection::None
        );
        assert!(!segments_intersect(c(0.0, 0.0), c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)));
    }

    #[test]
    fn collinear_touching_single_point() {
        match segment_intersection(c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(2.0, 0.0)) {
            SegmentIntersection::Point(p) => assert_eq!(p, c(1.0, 0.0)),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn parallel_non_collinear() {
        assert_eq!(
            segment_intersection(c(0.0, 0.0), c(2.0, 0.0), c(0.0, 1.0), c(2.0, 1.0)),
            SegmentIntersection::None
        );
    }

    #[test]
    fn degenerate_point_segment() {
        match segment_intersection(c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0), c(2.0, 0.0)) {
            SegmentIntersection::Point(p) => assert_eq!(p, c(1.0, 0.0)),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn closest_point_cases() {
        let a = c(0.0, 0.0);
        let b = c(10.0, 0.0);
        assert_eq!(closest_point_on_segment(a, b, c(5.0, 3.0)), c(5.0, 0.0));
        assert_eq!(closest_point_on_segment(a, b, c(-5.0, 3.0)), a);
        assert_eq!(closest_point_on_segment(a, b, c(15.0, 3.0)), b);
    }

    #[test]
    fn point_segment_distance_perpendicular() {
        assert_eq!(point_segment_distance(c(0.0, 0.0), c(10.0, 0.0), c(5.0, 4.0)), 4.0);
    }

    #[test]
    fn segment_segment_distance_parallel() {
        let d = segment_segment_distance(c(0.0, 0.0), c(10.0, 0.0), c(0.0, 3.0), c(10.0, 3.0));
        assert_eq!(d, 3.0);
    }

    #[test]
    fn segment_segment_distance_crossing_is_zero() {
        let d = segment_segment_distance(c(0.0, 0.0), c(2.0, 2.0), c(0.0, 2.0), c(2.0, 0.0));
        assert_eq!(d, 0.0);
    }
}
