//! Metric measures of WGS 84 geometries.
//!
//! TELEIOS products carry stRDF geometries in EPSG:4326 (longitude/latitude
//! degrees); burnt-area statistics need square metres, which a local
//! equirectangular projection around each geometry supplies.

use crate::coord::Coord;
use crate::geometry::Geometry;

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Approximate area in square metres of a WGS 84 geometry, via a local
/// equirectangular projection centred on the geometry (good to ~0.1 %
/// for regional extents; not suitable for continental polygons).
pub fn geodesic_area_m2(g: &Geometry) -> f64 {
    let env = g.envelope();
    if env.is_empty() {
        return 0.0;
    }
    let mid_lat = env.center().y;
    let k_lat = EARTH_RADIUS_M * std::f64::consts::PI / 180.0;
    let k_lon = k_lat * mid_lat.to_radians().cos();
    let projected = g.map_coords(|c| Coord::new(c.x * k_lon, c.y * k_lat));
    crate::algorithm::area::area(&projected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    #[test]
    fn geodesic_area_of_degree_cell() {
        // A 1°x1° cell at the equator is ~111.2 km squared ≈ 1.2366e10 m².
        let g = crate::wkt::parse("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))").unwrap();
        let a = geodesic_area_m2(&g);
        let expect = 111_195.0f64 * 111_195.0;
        assert!((a - expect).abs() / expect < 0.01, "a = {a}");
        // At 60°N longitude shrinks by cos(60°) = 0.5.
        let g60 = crate::wkt::parse("POLYGON ((0 59.5, 1 59.5, 1 60.5, 0 60.5, 0 59.5))").unwrap();
        let a60 = geodesic_area_m2(&g60);
        assert!((a60 / a - 0.5).abs() < 0.02, "ratio = {}", a60 / a);
    }

    #[test]
    fn geodesic_area_of_point_is_zero() {
        assert_eq!(geodesic_area_m2(&Geometry::Point(Point::new(1.0, 2.0))), 0.0);
    }
}
