//! OGC Simple Features geometry model.

use crate::coord::{Coord, Envelope};
use crate::error::GeoError;
use crate::Result;

/// A point: a single coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point(pub Coord);

impl Point {
    /// Point from x/y.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point(Coord::new(x, y))
    }

    /// X (easting / longitude).
    #[inline]
    pub fn x(&self) -> f64 {
        self.0.x
    }

    /// Y (northing / latitude).
    #[inline]
    pub fn y(&self) -> f64 {
        self.0.y
    }
}

/// A polyline of two or more coordinates (one is allowed transiently while
/// building; validation rejects it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LineString(pub Vec<Coord>);

impl LineString {

    /// The coordinates of the line.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.0
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True when first and last vertices coincide (and there are ≥ 4).
    pub(crate) fn is_closed(&self) -> bool {
        self.0.len() >= 4 && self.0.first() == self.0.last()
    }

    /// Iterate over consecutive coordinate pairs (the segments).
    pub(crate) fn segments(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total length of the line.
    pub(crate) fn length(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(&b)).sum()
    }

    /// Twice the signed area of the ring (positive when counter-clockwise).
    /// Meaningful for closed rings only.
    pub fn signed_area2(&self) -> f64 {
        let mut sum = 0.0;
        for (a, b) in self.segments() {
            sum += a.cross(&b);
        }
        sum
    }

    /// Ring orientation: true when counter-clockwise.
    pub fn is_ccw(&self) -> bool {
        self.signed_area2() > 0.0
    }

    /// Reverse the vertex order in place.
    pub(crate) fn reverse(&mut self) {
        self.0.reverse();
    }

    /// Bounding box of the line.
    pub(crate) fn envelope(&self) -> Envelope {
        Envelope::from_coords(self.0.iter())
    }
}

impl From<Vec<(f64, f64)>> for LineString {
    fn from(v: Vec<(f64, f64)>) -> Self {
        LineString(v.into_iter().map(Coord::from).collect())
    }
}

/// A polygon: one exterior ring and zero or more interior rings (holes).
///
/// Rings are stored closed (first coordinate repeated at the end). The
/// conventional orientation is counter-clockwise exterior, clockwise holes;
/// [`Polygon::normalize`] enforces it.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    /// The outer boundary.
    pub exterior: LineString,
    /// Inner boundaries (holes).
    pub interiors: Vec<LineString>,
}

impl Polygon {
    /// Polygon from a closed exterior ring and holes.
    pub fn new(exterior: LineString, interiors: Vec<LineString>) -> Self {
        Polygon { exterior, interiors }
    }

    /// Axis-aligned rectangle polygon from an envelope.
    pub fn from_envelope(e: &Envelope) -> Self {
        Polygon::new(
            LineString(vec![
                e.min,
                Coord::new(e.max.x, e.min.y),
                e.max,
                Coord::new(e.min.x, e.max.y),
                e.min,
            ]),
            vec![],
        )
    }

    /// Bounding box (of the exterior ring).
    pub fn envelope(&self) -> Envelope {
        self.exterior.envelope()
    }

    /// Enforce CCW exterior / CW holes and ring closure.
    pub fn normalize(&mut self) {
        close_ring(&mut self.exterior);
        if !self.exterior.is_ccw() {
            self.exterior.reverse();
        }
        for hole in &mut self.interiors {
            close_ring(hole);
            if hole.is_ccw() {
                hole.reverse();
            }
        }
    }

    /// Area of the polygon (exterior minus holes).
    pub fn area(&self) -> f64 {
        let ext = self.exterior.signed_area2().abs();
        let holes: f64 = self.interiors.iter().map(|h| h.signed_area2().abs()).sum();
        (ext - holes) * 0.5
    }
}

fn close_ring(ring: &mut LineString) {
    if !ring.0.is_empty() && ring.0.first() != ring.0.last() {
        let first = ring.0[0];
        ring.0.push(first);
    }
}

/// Any OGC Simple Features geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A single position.
    Point(Point),
    /// A polyline.
    LineString(LineString),
    /// An area with optional holes.
    Polygon(Polygon),
    /// A set of points.
    MultiPoint(Vec<Point>),
    /// A set of polylines.
    MultiLineString(Vec<LineString>),
    /// A set of polygons.
    MultiPolygon(Vec<Polygon>),
    /// A heterogeneous collection.
    GeometryCollection(Vec<Geometry>),
}

impl Geometry {
    /// The OGC type name in upper case, as it appears in WKT.
    pub fn type_name(&self) -> &'static str {
        match self {
            Geometry::Point(_) => "POINT",
            Geometry::LineString(_) => "LINESTRING",
            Geometry::Polygon(_) => "POLYGON",
            Geometry::MultiPoint(_) => "MULTIPOINT",
            Geometry::MultiLineString(_) => "MULTILINESTRING",
            Geometry::MultiPolygon(_) => "MULTIPOLYGON",
            Geometry::GeometryCollection(_) => "GEOMETRYCOLLECTION",
        }
    }

    /// Topological dimension: 0 for points, 1 for lines, 2 for areas.
    /// Collections report the maximum dimension of their members
    /// (−1 when empty, encoded as `None`).
    pub(crate) fn dimension(&self) -> Option<u8> {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => Some(0),
            Geometry::LineString(_) | Geometry::MultiLineString(_) => Some(1),
            Geometry::Polygon(_) | Geometry::MultiPolygon(_) => Some(2),
            Geometry::GeometryCollection(gs) => gs.iter().filter_map(Geometry::dimension).max(),
        }
    }

    /// Bounding box of the geometry; empty envelope for empty collections.
    pub fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => Envelope::from_coord(p.0),
            Geometry::LineString(l) => l.envelope(),
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPoint(ps) => Envelope::from_coords(ps.iter().map(|p| &p.0)),
            Geometry::MultiLineString(ls) => ls
                .iter()
                .map(LineString::envelope)
                .fold(Envelope::EMPTY, |acc, e| acc.union(&e)),
            Geometry::MultiPolygon(ps) => ps
                .iter()
                .map(Polygon::envelope)
                .fold(Envelope::EMPTY, |acc, e| acc.union(&e)),
            Geometry::GeometryCollection(gs) => gs
                .iter()
                .map(Geometry::envelope)
                .fold(Envelope::EMPTY, |acc, e| acc.union(&e)),
        }
    }

    /// True when the geometry has no coordinates at all.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Geometry::Point(_) => false,
            Geometry::LineString(l) => l.is_empty(),
            Geometry::Polygon(p) => p.exterior.is_empty(),
            Geometry::MultiPoint(ps) => ps.is_empty(),
            Geometry::MultiLineString(ls) => ls.is_empty() || ls.iter().all(LineString::is_empty),
            Geometry::MultiPolygon(ps) => ps.is_empty() || ps.iter().all(|p| p.exterior.is_empty()),
            Geometry::GeometryCollection(gs) => gs.is_empty() || gs.iter().all(Geometry::is_empty),
        }
    }

    /// Total number of coordinates in the geometry.
    pub fn num_coords(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.len(),
            Geometry::Polygon(p) => {
                p.exterior.len() + p.interiors.iter().map(LineString::len).sum::<usize>()
            }
            Geometry::MultiPoint(ps) => ps.len(),
            Geometry::MultiLineString(ls) => ls.iter().map(LineString::len).sum(),
            Geometry::MultiPolygon(ps) => ps
                .iter()
                .map(|p| p.exterior.len() + p.interiors.iter().map(LineString::len).sum::<usize>())
                .sum(),
            Geometry::GeometryCollection(gs) => gs.iter().map(Geometry::num_coords).sum(),
        }
    }

    /// Visit every coordinate of the geometry.
    pub(crate) fn for_each_coord<F: FnMut(Coord)>(&self, f: &mut F) {
        match self {
            Geometry::Point(p) => f(p.0),
            Geometry::LineString(l) => l.0.iter().copied().for_each(f),
            Geometry::Polygon(p) => {
                p.exterior.0.iter().copied().for_each(&mut *f);
                for h in &p.interiors {
                    h.0.iter().copied().for_each(&mut *f);
                }
            }
            Geometry::MultiPoint(ps) => ps.iter().for_each(|p| f(p.0)),
            Geometry::MultiLineString(ls) => {
                for l in ls {
                    l.0.iter().copied().for_each(&mut *f);
                }
            }
            Geometry::MultiPolygon(ps) => {
                for p in ps {
                    p.exterior.0.iter().copied().for_each(&mut *f);
                    for h in &p.interiors {
                        h.0.iter().copied().for_each(&mut *f);
                    }
                }
            }
            Geometry::GeometryCollection(gs) => {
                for g in gs {
                    g.for_each_coord(f);
                }
            }
        }
    }

    /// Apply `f` to every coordinate, producing a transformed geometry.
    pub(crate) fn map_coords<F: Fn(Coord) -> Coord + Copy>(&self, f: F) -> Geometry {
        let map_line = |l: &LineString| LineString(l.0.iter().map(|&c| f(c)).collect());
        let map_poly = |p: &Polygon| Polygon {
            exterior: map_line(&p.exterior),
            interiors: p.interiors.iter().map(map_line).collect(),
        };
        match self {
            Geometry::Point(p) => Geometry::Point(Point(f(p.0))),
            Geometry::LineString(l) => Geometry::LineString(map_line(l)),
            Geometry::Polygon(p) => Geometry::Polygon(map_poly(p)),
            Geometry::MultiPoint(ps) => {
                Geometry::MultiPoint(ps.iter().map(|p| Point(f(p.0))).collect())
            }
            Geometry::MultiLineString(ls) => {
                Geometry::MultiLineString(ls.iter().map(map_line).collect())
            }
            Geometry::MultiPolygon(ps) => Geometry::MultiPolygon(ps.iter().map(map_poly).collect()),
            Geometry::GeometryCollection(gs) => {
                Geometry::GeometryCollection(gs.iter().map(|g| g.map_coords(f)).collect())
            }
        }
    }

    /// Structural validity check.
    ///
    /// Verifies closure and minimum vertex counts of rings, finiteness of
    /// coordinates and minimum lengths of lines. It does not detect
    /// self-intersections (full OGC validity), which the overlay code
    /// tolerates for the shapes this system produces.
    pub fn validate(&self) -> Result<()> {
        let check_finite = |c: &Coord| -> Result<()> {
            if c.is_finite() {
                Ok(())
            } else {
                Err(GeoError::InvalidGeometry("non-finite coordinate".into()))
            }
        };
        let check_ring = |r: &LineString, what: &str| -> Result<()> {
            if r.len() < 4 {
                return Err(GeoError::InvalidGeometry(format!(
                    "{what} has {} points, need at least 4",
                    r.len()
                )));
            }
            if !r.is_closed() {
                return Err(GeoError::InvalidGeometry(format!("{what} is not closed")));
            }
            r.0.iter().try_for_each(check_finite)
        };
        let check_poly = |p: &Polygon| -> Result<()> {
            check_ring(&p.exterior, "exterior ring")?;
            for (i, h) in p.interiors.iter().enumerate() {
                check_ring(h, &format!("interior ring {i}"))?;
            }
            Ok(())
        };
        match self {
            Geometry::Point(p) => check_finite(&p.0),
            Geometry::LineString(l) => {
                if l.len() < 2 {
                    return Err(GeoError::InvalidGeometry(
                        "line string needs at least 2 points".into(),
                    ));
                }
                l.0.iter().try_for_each(check_finite)
            }
            Geometry::Polygon(p) => check_poly(p),
            Geometry::MultiPoint(ps) => ps.iter().try_for_each(|p| check_finite(&p.0)),
            Geometry::MultiLineString(ls) => ls
                .iter()
                .try_for_each(|l| Geometry::LineString(l.clone()).validate()),
            Geometry::MultiPolygon(ps) => ps.iter().try_for_each(check_poly),
            Geometry::GeometryCollection(gs) => gs.iter().try_for_each(Geometry::validate),
        }
    }

    /// Flatten into the list of primitive (non-multi) geometries.
    pub(crate) fn primitives(&self) -> Vec<Geometry> {
        match self {
            Geometry::MultiPoint(ps) => ps.iter().map(|p| Geometry::Point(*p)).collect(),
            Geometry::MultiLineString(ls) => {
                ls.iter().map(|l| Geometry::LineString(l.clone())).collect()
            }
            Geometry::MultiPolygon(ps) => ps.iter().map(|p| Geometry::Polygon(p.clone())).collect(),
            Geometry::GeometryCollection(gs) => gs.iter().flat_map(Geometry::primitives).collect(),
            other => vec![other.clone()],
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::from_envelope(&Envelope::new(Coord::new(0.0, 0.0), Coord::new(1.0, 1.0)))
    }

    #[test]
    fn point_accessors() {
        let p = Point::new(3.0, 4.0);
        assert_eq!(p.x(), 3.0);
        assert_eq!(p.y(), 4.0);
    }

    #[test]
    fn linestring_length_and_segments() {
        let l = LineString::from(vec![(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.length(), 7.0);
        assert_eq!(l.segments().count(), 2);
    }

    #[test]
    fn ring_orientation() {
        let sq = unit_square();
        assert!(sq.exterior.is_ccw());
        let mut rev = sq.exterior.clone();
        rev.reverse();
        assert!(!rev.is_ccw());
    }

    #[test]
    fn polygon_area_with_hole() {
        let mut p = unit_square();
        p.interiors.push(LineString::from(vec![
            (0.25, 0.25),
            (0.75, 0.25),
            (0.75, 0.75),
            (0.25, 0.75),
            (0.25, 0.25),
        ]));
        assert!((p.area() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn polygon_normalize_fixes_orientation_and_closure() {
        let mut p = Polygon::new(
            LineString::from(vec![(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]),
            vec![LineString::from(vec![
                (0.2, 0.2),
                (0.8, 0.2),
                (0.8, 0.8),
                (0.2, 0.8),
            ])],
        );
        p.normalize();
        assert!(p.exterior.is_closed());
        assert!(p.exterior.is_ccw());
        assert!(p.interiors[0].is_closed());
        assert!(!p.interiors[0].is_ccw());
    }

    #[test]
    fn geometry_envelope_collection() {
        let g = Geometry::GeometryCollection(vec![
            Geometry::Point(Point::new(-1.0, -1.0)),
            Geometry::Polygon(unit_square()),
        ]);
        let e = g.envelope();
        assert_eq!(e.min, Coord::new(-1.0, -1.0));
        assert_eq!(e.max, Coord::new(1.0, 1.0));
    }

    #[test]
    fn geometry_dimension() {
        assert_eq!(Geometry::Point(Point::new(0.0, 0.0)).dimension(), Some(0));
        assert_eq!(
            Geometry::LineString(LineString::from(vec![(0.0, 0.0), (1.0, 1.0)])).dimension(),
            Some(1)
        );
        assert_eq!(Geometry::Polygon(unit_square()).dimension(), Some(2));
        assert_eq!(Geometry::GeometryCollection(vec![]).dimension(), None);
    }

    #[test]
    fn validate_rejects_open_ring() {
        let p = Polygon::new(
            LineString::from(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
            vec![],
        );
        assert!(Geometry::Polygon(p).validate().is_err());
    }

    #[test]
    fn validate_rejects_nan() {
        let g = Geometry::Point(Point::new(f64::NAN, 0.0));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_accepts_square() {
        assert!(Geometry::Polygon(unit_square()).validate().is_ok());
    }

    #[test]
    fn map_coords_translates() {
        let g = Geometry::Polygon(unit_square());
        let shifted = g.map_coords(|c| Coord::new(c.x + 10.0, c.y));
        assert_eq!(shifted.envelope().min.x, 10.0);
        assert_eq!(shifted.envelope().min.y, 0.0);
    }

    #[test]
    fn num_coords_counts_everything() {
        let mut p = unit_square();
        p.interiors.push(LineString::from(vec![
            (0.25, 0.25),
            (0.75, 0.25),
            (0.75, 0.75),
            (0.25, 0.25),
        ]));
        assert_eq!(Geometry::Polygon(p).num_coords(), 9);
    }

    #[test]
    fn primitives_flattens_collections() {
        let g = Geometry::GeometryCollection(vec![
            Geometry::MultiPoint(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]),
            Geometry::Polygon(unit_square()),
        ]);
        assert_eq!(g.primitives().len(), 3);
    }

    #[test]
    fn is_empty_cases() {
        assert!(Geometry::MultiPolygon(vec![]).is_empty());
        assert!(Geometry::GeometryCollection(vec![]).is_empty());
        assert!(!Geometry::Point(Point::new(0.0, 0.0)).is_empty());
    }
}
