//! Planar coordinates and axis-aligned envelopes (bounding boxes).

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A 2-D planar coordinate.
///
/// Coordinates are plain value types; all geometry types are built from
/// them. Units are degrees for EPSG:4326 data and metres inside the
/// local projection behind [`crate::crs::geodesic_area_m2`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    /// Easting / longitude.
    pub x: f64,
    /// Northing / latitude.
    pub y: f64,
}

impl Coord {
    /// Create a coordinate from x (easting) and y (northing).
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Coord { x, y }
    }

    /// Euclidean distance to another coordinate.
    #[inline]
    pub fn distance(&self, other: &Coord) -> f64 {
        (*self - *other).norm()
    }

    /// Euclidean norm of the coordinate treated as a vector.
    #[inline]
    pub(crate) fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub(crate) fn cross(&self, other: &Coord) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Dot product.
    #[inline]
    pub(crate) fn dot(&self, other: &Coord) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// True when both components are finite.
    #[inline]
    pub(crate) fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(&self, other: &Coord, t: f64) -> Coord {
        Coord::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }
}

impl Add for Coord {
    type Output = Coord;
    #[inline]
    fn add(self, rhs: Coord) -> Coord {
        Coord::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Coord {
    type Output = Coord;
    #[inline]
    fn sub(self, rhs: Coord) -> Coord {
        Coord::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Coord {
    type Output = Coord;
    #[inline]
    fn mul(self, rhs: f64) -> Coord {
        Coord::new(self.x * rhs, self.y * rhs)
    }
}

impl From<(f64, f64)> for Coord {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Coord::new(x, y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.x, self.y)
    }
}

/// Orientation of the ordered triple (a, b, c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Orientation {
    /// Counter-clockwise turn.
    CounterClockwise,
    /// Clockwise turn.
    Clockwise,
    /// The three points are collinear.
    Collinear,
}

/// Tolerance used to absorb floating-point noise in orientation tests.
///
/// The value is scaled by the magnitude of the inputs, so the predicate
/// behaves consistently for coordinates in degrees and in metres.
pub(crate) const EPS: f64 = 1e-12;

/// Robust-enough orientation predicate for the ordered triple (a, b, c).
///
/// Uses a magnitude-scaled epsilon so that near-collinear triples with
/// large coordinates are still classified as collinear.
pub(crate) fn orient2d(a: Coord, b: Coord, c: Coord) -> Orientation {
    let det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    let scale = (b.x - a.x).abs().max((b.y - a.y).abs()).max((c.x - a.x).abs()).max((c.y - a.y).abs());
    let tol = EPS * scale * scale;
    if det > tol {
        Orientation::CounterClockwise
    } else if det < -tol {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// An axis-aligned bounding box.
///
/// An `Envelope` may be *empty* (`min > max` component-wise), which is the
/// identity for `Envelope::expand_to_include`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Lower-left corner.
    pub min: Coord,
    /// Upper-right corner.
    pub max: Coord,
}

impl Envelope {
    /// The empty envelope — identity element for envelope union.
    pub const EMPTY: Envelope = Envelope {
        min: Coord::new(f64::INFINITY, f64::INFINITY),
        max: Coord::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Envelope from two corner coordinates (in any order).
    pub fn new(a: Coord, b: Coord) -> Self {
        Envelope {
            min: Coord::new(a.x.min(b.x), a.y.min(b.y)),
            max: Coord::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Envelope covering a single point.
    #[inline]
    pub fn from_coord(c: Coord) -> Self {
        Envelope { min: c, max: c }
    }

    /// Envelope covering all coordinates in `coords`; empty if none.
    pub(crate) fn from_coords<'a, I: IntoIterator<Item = &'a Coord>>(coords: I) -> Self {
        let mut env = Envelope::EMPTY;
        for c in coords {
            env.expand_to_include(*c);
        }
        env
    }

    /// True when the envelope contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width (x extent); zero for empty envelopes.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (y extent); zero for empty envelopes.
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area of the envelope; zero for empty or degenerate envelopes.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point of the envelope.
    #[inline]
    pub fn center(&self) -> Coord {
        Coord::new((self.min.x + self.max.x) * 0.5, (self.min.y + self.max.y) * 0.5)
    }

    /// Grow the envelope to cover `c`.
    #[inline]
    pub(crate) fn expand_to_include(&mut self, c: Coord) {
        self.min.x = self.min.x.min(c.x);
        self.min.y = self.min.y.min(c.y);
        self.max.x = self.max.x.max(c.x);
        self.max.y = self.max.y.max(c.y);
    }

    /// Union of two envelopes.
    pub fn union(&self, other: &Envelope) -> Envelope {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Envelope {
            min: Coord::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Coord::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Intersection of two envelopes; may be empty.
    pub fn intersection(&self, other: &Envelope) -> Envelope {
        Envelope {
            min: Coord::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Coord::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        }
    }

    /// True when the envelopes share at least one point (boundaries count).
    #[inline]
    pub fn intersects(&self, other: &Envelope) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// True when `c` lies inside or on the boundary of the envelope.
    #[inline]
    pub fn contains_coord(&self, c: Coord) -> bool {
        c.x >= self.min.x && c.x <= self.max.x && c.y >= self.min.y && c.y <= self.max.y
    }

    /// True when `other` lies entirely inside this envelope.
    #[inline]
    pub fn contains_envelope(&self, other: &Envelope) -> bool {
        !other.is_empty()
            && other.min.x >= self.min.x
            && other.max.x <= self.max.x
            && other.min.y >= self.min.y
            && other.max.y <= self.max.y
    }

    /// Minimum distance between two envelopes (0 when they intersect).
    pub(crate) fn distance(&self, other: &Envelope) -> f64 {
        let dx = (other.min.x - self.max.x).max(self.min.x - other.max.x).max(0.0);
        let dy = (other.min.y - self.max.y).max(self.min.y - other.max.y).max(0.0);
        dx.hypot(dy)
    }

    /// Expand the envelope outward by `d` on every side.
    pub fn buffer(&self, d: f64) -> Envelope {
        if self.is_empty() {
            return *self;
        }
        Envelope {
            min: Coord::new(self.min.x - d, self.min.y - d),
            max: Coord::new(self.max.x + d, self.max.y + d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_arithmetic() {
        let a = Coord::new(1.0, 2.0);
        let b = Coord::new(3.0, 5.0);
        assert_eq!(a + b, Coord::new(4.0, 7.0));
        assert_eq!(b - a, Coord::new(2.0, 3.0));
        assert_eq!(a * 2.0, Coord::new(2.0, 4.0));
        assert_eq!(a.dot(&b), 13.0);
        assert_eq!(a.cross(&b), -1.0);
    }

    #[test]
    fn coord_distance() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn coord_lerp() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(10.0, -10.0);
        assert_eq!(a.lerp(&b, 0.5), Coord::new(5.0, -5.0));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn orientation_basic() {
        let o = Coord::new(0.0, 0.0);
        assert_eq!(
            orient2d(o, Coord::new(1.0, 0.0), Coord::new(1.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(o, Coord::new(1.0, 0.0), Coord::new(1.0, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(o, Coord::new(1.0, 1.0), Coord::new(2.0, 2.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orientation_near_collinear_large_coords() {
        // Points on a nearly-straight line with large magnitudes should be
        // classified collinear rather than flip-flopping on rounding noise.
        let a = Coord::new(1e8, 1e8);
        let b = Coord::new(2e8, 2e8);
        let c = Coord::new(3e8, 3e8 + 1e-4);
        assert_eq!(orient2d(a, b, c), Orientation::Collinear);
    }

    #[test]
    fn envelope_empty_identity() {
        let e = Envelope::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let b = Envelope::new(Coord::new(0.0, 0.0), Coord::new(1.0, 1.0));
        assert_eq!(e.union(&b), b);
        assert!(!e.intersects(&b));
    }

    #[test]
    fn envelope_union_intersection() {
        let a = Envelope::new(Coord::new(0.0, 0.0), Coord::new(2.0, 2.0));
        let b = Envelope::new(Coord::new(1.0, 1.0), Coord::new(3.0, 3.0));
        let u = a.union(&b);
        assert_eq!(u, Envelope::new(Coord::new(0.0, 0.0), Coord::new(3.0, 3.0)));
        let i = a.intersection(&b);
        assert_eq!(i, Envelope::new(Coord::new(1.0, 1.0), Coord::new(2.0, 2.0)));
        assert!(a.intersects(&b));
    }

    #[test]
    fn envelope_disjoint_intersection_is_empty() {
        let a = Envelope::new(Coord::new(0.0, 0.0), Coord::new(1.0, 1.0));
        let b = Envelope::new(Coord::new(2.0, 2.0), Coord::new(3.0, 3.0));
        assert!(a.intersection(&b).is_empty());
        assert!(!a.intersects(&b));
        assert!((a.distance(&b) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn envelope_touching_boundary_intersects() {
        let a = Envelope::new(Coord::new(0.0, 0.0), Coord::new(1.0, 1.0));
        let b = Envelope::new(Coord::new(1.0, 0.0), Coord::new(2.0, 1.0));
        assert!(a.intersects(&b));
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn envelope_contains() {
        let a = Envelope::new(Coord::new(0.0, 0.0), Coord::new(4.0, 4.0));
        let b = Envelope::new(Coord::new(1.0, 1.0), Coord::new(2.0, 2.0));
        assert!(a.contains_envelope(&b));
        assert!(!b.contains_envelope(&a));
        assert!(a.contains_coord(Coord::new(0.0, 4.0)));
        assert!(!a.contains_coord(Coord::new(-0.1, 2.0)));
    }

    #[test]
    fn envelope_buffer() {
        let a = Envelope::new(Coord::new(0.0, 0.0), Coord::new(1.0, 1.0));
        let b = a.buffer(1.0);
        assert_eq!(b, Envelope::new(Coord::new(-1.0, -1.0), Coord::new(2.0, 2.0)));
    }

    #[test]
    fn envelope_from_coords() {
        let coords = [Coord::new(1.0, 5.0), Coord::new(-2.0, 3.0), Coord::new(0.0, 7.0)];
        let e = Envelope::from_coords(coords.iter());
        assert_eq!(e.min, Coord::new(-2.0, 3.0));
        assert_eq!(e.max, Coord::new(1.0, 7.0));
    }
}
