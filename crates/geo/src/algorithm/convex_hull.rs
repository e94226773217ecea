//! Convex hull (Andrew's monotone chain).

use crate::coord::Coord;
use crate::geometry::{Geometry, LineString, Point, Polygon};

/// Convex hull of a set of coordinates.
///
/// Returns a CCW-closed ring with at least 4 coordinates, or fewer points
/// for degenerate inputs (empty → `None`, single point → `Point`,
/// collinear → `LineString`).
pub fn convex_hull_coords(coords: &[Coord]) -> Option<Geometry> {
    let mut pts: Vec<Coord> = coords.to_vec();
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    pts.dedup_by(|a, b| a.distance(b) < 1e-15);

    match pts.len() {
        0 => return None,
        1 => return Some(Geometry::Point(Point(pts[0]))),
        2 => return Some(Geometry::LineString(LineString(pts))),
        _ => {}
    }

    let cross = |o: Coord, a: Coord, b: Coord| (a - o).cross(&(b - o));

    let mut lower: Vec<Coord> = Vec::with_capacity(pts.len());
    for &p in &pts {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0.0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<Coord> = Vec::with_capacity(pts.len());
    for &p in pts.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0.0 {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);

    if lower.len() < 3 {
        // All points collinear.
        let a = pts[0];
        let b = pts[pts.len() - 1];
        return Some(Geometry::LineString(LineString(vec![a, b])));
    }
    let first = lower[0];
    lower.push(first);
    Some(Geometry::Polygon(Polygon::new(LineString(lower), vec![])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::area::area;

    fn c(x: f64, y: f64) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn hull_of_square_with_interior_point() {
        let pts = [c(0.0, 0.0), c(4.0, 0.0), c(4.0, 4.0), c(0.0, 4.0), c(2.0, 2.0)];
        let h = convex_hull_coords(&pts).unwrap();
        assert_eq!(area(&h), 16.0);
        assert_eq!(h.num_coords(), 5); // closed ring of 4 distinct
    }

    #[test]
    fn hull_is_ccw() {
        let pts = [c(0.0, 0.0), c(1.0, 0.0), c(1.0, 1.0), c(0.0, 1.0)];
        match convex_hull_coords(&pts).unwrap() {
            Geometry::Polygon(p) => assert!(p.exterior.is_ccw()),
            other => panic!("expected polygon, got {other:?}"),
        }
    }

    #[test]
    fn hull_degenerate_cases() {
        assert!(convex_hull_coords(&[]).is_none());
        assert!(matches!(convex_hull_coords(&[c(1.0, 1.0)]), Some(Geometry::Point(_))));
        assert!(matches!(
            convex_hull_coords(&[c(0.0, 0.0), c(1.0, 1.0), c(2.0, 2.0)]),
            Some(Geometry::LineString(_))
        ));
    }

    #[test]
    fn hull_duplicate_points() {
        let pts = [c(0.0, 0.0), c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(0.5, 1.0)];
        match convex_hull_coords(&pts).unwrap() {
            Geometry::Polygon(p) => assert!((p.area() - 0.5).abs() < 1e-12),
            other => panic!("expected polygon, got {other:?}"),
        }
    }
}
