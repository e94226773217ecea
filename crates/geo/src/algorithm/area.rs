//! Measures: area, length, centroid.

use crate::coord::Coord;
use crate::geometry::{Geometry, LineString, Polygon};

/// Area of a geometry. Points and lines have zero area; collections sum
/// their members.
pub fn area(g: &Geometry) -> f64 {
    match g {
        Geometry::Polygon(p) => p.area(),
        Geometry::MultiPolygon(ps) => ps.iter().map(Polygon::area).sum(),
        Geometry::GeometryCollection(gs) => gs.iter().map(area).sum(),
        _ => 0.0,
    }
}

/// Length of a geometry: perimeter for polygons, path length for lines.
pub(crate) fn length(g: &Geometry) -> f64 {
    match g {
        Geometry::LineString(l) => l.length(),
        Geometry::MultiLineString(ls) => ls.iter().map(LineString::length).sum(),
        Geometry::Polygon(p) => {
            p.exterior.length() + p.interiors.iter().map(LineString::length).sum::<f64>()
        }
        Geometry::MultiPolygon(ps) => ps
            .iter()
            .map(|p| p.exterior.length() + p.interiors.iter().map(LineString::length).sum::<f64>())
            .sum(),
        Geometry::GeometryCollection(gs) => gs.iter().map(length).sum(),
        _ => 0.0,
    }
}

fn ring_centroid_weighted(ring: &LineString) -> (Coord, f64) {
    // Signed-area-weighted centroid of a closed ring.
    let mut a2 = 0.0;
    let mut cx = 0.0;
    let mut cy = 0.0;
    for (p, q) in ring.segments() {
        let w = p.cross(&q);
        a2 += w;
        cx += (p.x + q.x) * w;
        cy += (p.y + q.y) * w;
    }
    if a2.abs() < 1e-300 {
        // Degenerate ring: fall back to vertex average.
        let n = ring.len().max(1) as f64;
        let sum = ring.coords().iter().fold(Coord::default(), |acc, &c| acc + c);
        return (sum * (1.0 / n), 0.0);
    }
    (Coord::new(cx / (3.0 * a2), cy / (3.0 * a2)), a2 * 0.5)
}

fn polygon_centroid_weighted(p: &Polygon) -> (Coord, f64) {
    let (c_ext, a_ext) = ring_centroid_weighted(&p.exterior);
    let mut num = c_ext * a_ext.abs();
    let mut den = a_ext.abs();
    for hole in &p.interiors {
        let (c_h, a_h) = ring_centroid_weighted(hole);
        num = num + c_h * (-a_h.abs());
        den -= a_h.abs();
    }
    if den.abs() < 1e-300 {
        (c_ext, 0.0)
    } else {
        (num * (1.0 / den), den)
    }
}

/// Centroid of a geometry.
///
/// Uses area weighting for polygons, length weighting for lines and
/// plain averaging for points; mixed collections use the highest
/// dimension present, matching JTS behaviour.
pub fn centroid(g: &Geometry) -> Option<Coord> {
    if g.is_empty() {
        return None;
    }
    match g {
        Geometry::Point(p) => Some(p.0),
        Geometry::MultiPoint(ps) => {
            let n = ps.len() as f64;
            let sum = ps.iter().fold(Coord::default(), |acc, p| acc + p.0);
            Some(sum * (1.0 / n))
        }
        Geometry::LineString(l) => line_centroid(std::slice::from_ref(l)),
        Geometry::MultiLineString(ls) => line_centroid(ls),
        Geometry::Polygon(p) => Some(polygon_centroid_weighted(p).0),
        Geometry::MultiPolygon(ps) => {
            let mut num = Coord::default();
            let mut den = 0.0;
            for p in ps {
                let (c, a) = polygon_centroid_weighted(p);
                num = num + c * a;
                den += a;
            }
            if den.abs() < 1e-300 {
                line_centroid(&ps.iter().map(|p| p.exterior.clone()).collect::<Vec<_>>())
            } else {
                Some(num * (1.0 / den))
            }
        }
        Geometry::GeometryCollection(gs) => {
            let dim = g.dimension()?;
            let parts: Vec<&Geometry> =
                gs.iter().filter(|m| m.dimension() == Some(dim)).collect();
            let mut num = Coord::default();
            let mut den = 0.0;
            for part in parts {
                if let Some(c) = centroid(part) {
                    let w = match dim {
                        2 => area(part),
                        1 => length(part),
                        _ => 1.0,
                    };
                    num = num + c * w;
                    den += w;
                }
            }
            if den.abs() < 1e-300 {
                None
            } else {
                Some(num * (1.0 / den))
            }
        }
    }
}

fn line_centroid(lines: &[LineString]) -> Option<Coord> {
    let mut num = Coord::default();
    let mut den = 0.0;
    for l in lines {
        for (a, b) in l.segments() {
            let len = a.distance(&b);
            num = num + a.lerp(&b, 0.5) * len;
            den += len;
        }
    }
    if den < 1e-300 {
        lines.first().and_then(|l| l.coords().first().copied())
    } else {
        Some(num * (1.0 / den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse;

    fn g(s: &str) -> Geometry {
        parse(s).unwrap()
    }

    #[test]
    fn square_area() {
        assert_eq!(area(&g("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")), 16.0);
    }

    #[test]
    fn area_independent_of_orientation() {
        assert_eq!(area(&g("POLYGON ((0 0, 0 4, 4 4, 4 0, 0 0))")), 16.0);
    }

    #[test]
    fn donut_area() {
        let d = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2))");
        assert_eq!(area(&d), 100.0 - 36.0);
    }

    #[test]
    fn multipolygon_area_sums() {
        let mp = g("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 0, 4 0, 4 2, 2 2, 2 0)))");
        assert_eq!(area(&mp), 1.0 + 4.0);
    }

    #[test]
    fn point_and_line_have_zero_area() {
        assert_eq!(area(&g("POINT (1 1)")), 0.0);
        assert_eq!(area(&g("LINESTRING (0 0, 5 0)")), 0.0);
    }

    #[test]
    fn length_of_line_and_polygon() {
        assert_eq!(length(&g("LINESTRING (0 0, 3 0, 3 4)")), 7.0);
        assert_eq!(length(&g("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")), 16.0);
    }

    #[test]
    fn centroid_of_square() {
        let c = centroid(&g("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")).unwrap();
        assert!((c.x - 2.0).abs() < 1e-12 && (c.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_l_shape() {
        // L-shape: 2x1 horizontal plus 1x1 on top of the left cell.
        let l = g("POLYGON ((0 0, 2 0, 2 1, 1 1, 1 2, 0 2, 0 0))");
        let c = centroid(&l).unwrap();
        // Area 3; centroid = ((1*0.5 + 1*1.5 + 1*0.5)/3, (0.5+0.5+1.5)/3)
        assert!((c.x - (2.5 / 3.0)).abs() < 1e-12);
        assert!((c.y - (2.5 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn centroid_with_hole_shifts_correctly() {
        // Square with a hole in the right half pushes the centroid left.
        let d = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (6 4, 8 4, 8 6, 6 6, 6 4))");
        let c = centroid(&d).unwrap();
        assert!(c.x < 5.0);
        assert!((c.y - 5.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_line_is_length_weighted() {
        let c = centroid(&g("LINESTRING (0 0, 10 0, 10 1)")).unwrap();
        // Segments: len 10 mid (5, 0); len 1 mid (10, 0.5).
        assert!((c.x - (50.0 + 10.0) / 11.0).abs() < 1e-12);
        assert!((c.y - 0.5 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_multipoint() {
        let c = centroid(&g("MULTIPOINT ((0 0), (2 0), (1 3))")).unwrap();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_collection_uses_max_dimension() {
        let gc = g("GEOMETRYCOLLECTION (POINT (100 100), POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0)))");
        let c = centroid(&gc).unwrap();
        // The point must be ignored: polygons dominate.
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(centroid(&Geometry::MultiPolygon(vec![])).is_none());
    }
}
