//! Hotspot shapefile generation (processing-chain module (e)).
//!
//! Positive pixels of the classification mask are dissolved into
//! 4-connected components, and each component is polygonized *exactly*:
//! its boundary edges are chained into rings (CCW exterior, CW holes) in
//! geographic coordinates. The resulting features are what the NOA
//! service distributes as ESRI shapefiles; here they are in-memory
//! geometries ready for stRDF publication.

use std::collections::{BTreeMap, HashSet};
use teleios_geo::algorithm::area::centroid;
use teleios_geo::geometry::{LineString, Polygon};
use teleios_geo::{Coord, Geometry};
use teleios_ingest::raster::GeoTransform;
use teleios_monet::array::NdArray;
use teleios_monet::{DbError, Result};

/// One dissolved hotspot feature.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotFeature {
    /// Sequential feature id within the product.
    pub id: usize,
    /// The dissolved polygon (may carry holes).
    pub polygon: Polygon,
    /// Number of pixels in the component.
    pub cells: usize,
    /// Centroid of the polygon.
    pub centroid: Coord,
}

impl HotspotFeature {
    /// The feature as a geometry.
    pub fn geometry(&self) -> Geometry {
        Geometry::Polygon(self.polygon.clone())
    }
}

/// Dissolve a binary mask into polygon features using the geotransform
/// for geographic placement.
pub fn mask_to_features(mask: &NdArray, geo: &GeoTransform) -> Result<Vec<HotspotFeature>> {
    if mask.ndim() != 2 {
        return Err(DbError::ShapeMismatch("mask must be 2-D".into()));
    }
    let rows = mask.shape()[0];
    let cols = mask.shape()[1];
    let data = mask.data();
    let at = |r: usize, c: usize| data[r * cols + c] > 0.0;

    // Connected components (4-connectivity).
    let mut component = vec![usize::MAX; rows * cols];
    let mut comp_cells: Vec<Vec<(usize, usize)>> = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if !at(r, c) || component[r * cols + c] != usize::MAX {
                continue;
            }
            let id = comp_cells.len();
            let mut cells = Vec::new();
            let mut stack = vec![(r, c)];
            component[r * cols + c] = id;
            while let Some((cr, cc)) = stack.pop() {
                cells.push((cr, cc));
                let mut push = |nr: usize, nc: usize, stack: &mut Vec<(usize, usize)>| {
                    if at(nr, nc) && component[nr * cols + nc] == usize::MAX {
                        component[nr * cols + nc] = id;
                        stack.push((nr, nc));
                    }
                };
                if cr > 0 {
                    push(cr - 1, cc, &mut stack);
                }
                if cr + 1 < rows {
                    push(cr + 1, cc, &mut stack);
                }
                if cc > 0 {
                    push(cr, cc - 1, &mut stack);
                }
                if cc + 1 < cols {
                    push(cr, cc + 1, &mut stack);
                }
            }
            comp_cells.push(cells);
        }
    }

    // Polygonize each component.
    let mut features = Vec::with_capacity(comp_cells.len());
    for (id, cells) in comp_cells.iter().enumerate() {
        let polygon = polygonize_component(cells, geo)?;
        let center = centroid(&Geometry::Polygon(polygon.clone()))
            .unwrap_or_else(|| polygon.envelope().center());
        features.push(HotspotFeature { id, polygon, cells: cells.len(), centroid: center });
    }
    Ok(features)
}

/// Exact rectilinear polygonization of one cell set.
///
/// Boundary edges are emitted in integer corner coordinates with the
/// interior on the left, then chained into closed rings. The ring with
/// the largest absolute area is the exterior; the rest are holes.
fn polygonize_component(cells: &[(usize, usize)], geo: &GeoTransform) -> Result<Polygon> {
    let cell_set: HashSet<(i64, i64)> =
        cells.iter().map(|&(r, c)| (r as i64, c as i64)).collect();

    // Directed boundary edges start → end (integer corner coordinates
    // (col, row); y grows downward with row). The map is ordered and
    // filled in cell order, so ring order and each ring's first vertex
    // — and with them the feature's WKT — repeat from run to run.
    let mut edges: BTreeMap<(i64, i64), Vec<(i64, i64)>> = BTreeMap::new();
    let mut add = |from: (i64, i64), to: (i64, i64)| {
        edges.entry(from).or_default().push(to);
    };
    for &(r, c) in cells {
        let (r, c) = (r as i64, c as i64);
        // South neighbour missing: bottom edge, travelling east.
        if !cell_set.contains(&(r + 1, c)) {
            add((c, r + 1), (c + 1, r + 1));
        }
        // East neighbour missing: right edge, travelling north.
        if !cell_set.contains(&(r, c + 1)) {
            add((c + 1, r + 1), (c + 1, r));
        }
        // North neighbour missing: top edge, travelling west.
        if !cell_set.contains(&(r - 1, c)) {
            add((c + 1, r), (c, r));
        }
        // West neighbour missing: left edge, travelling south.
        if !cell_set.contains(&(r, c - 1)) {
            add((c, r), (c, r + 1));
        }
    }

    // Chain the edges into rings. At pinch corners with two outgoing
    // edges, take the sharpest left turn to keep rings simple.
    let mut rings: Vec<Vec<(i64, i64)>> = Vec::new();
    while let Some((&start, _)) = edges.iter().find(|(_, v)| !v.is_empty()) {
        let mut ring = vec![start];
        let mut current = start;
        let mut incoming: Option<(i64, i64)> = None;
        loop {
            // Every boundary corner has as many outgoing as incoming
            // edges, so the chain can only break on a logic bug — fail
            // the feature instead of panicking the worker.
            let Some(outs) = edges.get_mut(&current).filter(|o| !o.is_empty()) else {
                return Err(teleios_monet::DbError::Execution(format!(
                    "boundary edge chain broke at corner ({}, {})",
                    current.0, current.1
                )));
            };
            let next = if outs.len() == 1 {
                outs.remove(0)
            } else {
                // Pick the leftmost turn relative to the incoming direction.
                let dir = incoming.unwrap_or((1, 0));
                let mut best = 0usize;
                let mut best_score = f64::NEG_INFINITY;
                for (i, &cand) in outs.iter().enumerate() {
                    let v = (cand.0 - current.0, cand.1 - current.1);
                    // Cross/dot in screen coordinates (y down): left turns
                    // have negative cross; invert sign to score them high.
                    let cross = (dir.0 * v.1 - dir.1 * v.0) as f64;
                    let dot = (dir.0 * v.0 + dir.1 * v.1) as f64;
                    let angle = (-cross).atan2(dot);
                    if angle > best_score {
                        best_score = angle;
                        best = i;
                    }
                }
                outs.remove(best)
            };
            incoming = Some((next.0 - current.0, next.1 - current.1));
            current = next;
            if current == start {
                break;
            }
            ring.push(current);
        }
        rings.push(ring);
    }

    // Convert to geographic coordinates, collapsing collinear runs.
    let to_geo = |&(cx, ry): &(i64, i64)| -> Coord {
        Coord::new(
            geo.origin_x + cx as f64 * geo.pixel_w,
            geo.origin_y - ry as f64 * geo.pixel_h,
        )
    };
    let mut geo_rings: Vec<LineString> = rings
        .iter()
        .map(|ring| {
            let mut pts: Vec<Coord> = Vec::with_capacity(ring.len() + 1);
            let n = ring.len();
            for i in 0..n {
                let prev = ring[(i + n - 1) % n];
                let cur = ring[i];
                let next = ring[(i + 1) % n];
                // Keep only direction changes.
                let d1 = (cur.0 - prev.0, cur.1 - prev.1);
                let d2 = (next.0 - cur.0, next.1 - cur.1);
                if d1 != d2 {
                    pts.push(to_geo(&cur));
                }
            }
            let first = pts[0];
            pts.push(first);
            LineString(pts)
        })
        .collect();

    // Largest |area| ring is the exterior.
    let ext_idx = geo_rings
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.signed_area2()
                .abs()
                .partial_cmp(&b.1.signed_area2().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .ok_or_else(|| DbError::Execution("component produced no rings".into()))?;
    let exterior = geo_rings.remove(ext_idx);
    let mut poly = Polygon::new(exterior, geo_rings);
    poly.normalize();
    Ok(poly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::algorithm::predicates::{locate_point_in_polygon, PointLocation};

    fn geo() -> GeoTransform {
        GeoTransform { origin_x: 0.0, origin_y: 10.0, pixel_w: 1.0, pixel_h: 1.0 }
    }

    fn mask(rows: usize, cols: usize, on: &[(usize, usize)]) -> NdArray {
        let mut m = NdArray::matrix(rows, cols, vec![0.0; rows * cols]).unwrap();
        for &(r, c) in on {
            m.set(&[r, c], 1.0).unwrap();
        }
        m
    }

    #[test]
    fn empty_mask_no_features() {
        let m = mask(4, 4, &[]);
        assert!(mask_to_features(&m, &geo()).unwrap().is_empty());
    }

    #[test]
    fn single_cell_is_unit_square() {
        let m = mask(4, 4, &[(1, 2)]);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cells, 1);
        assert!((f[0].polygon.area() - 1.0).abs() < 1e-12);
        // Cell (1, 2) sits at x in [2,3], y in [8,9] under this transform.
        let env = f[0].polygon.envelope();
        assert_eq!(env.min, Coord::new(2.0, 8.0));
        assert_eq!(env.max, Coord::new(3.0, 9.0));
        assert_eq!(f[0].centroid, Coord::new(2.5, 8.5));
    }

    #[test]
    fn block_dissolves_into_one_polygon() {
        let m = mask(6, 6, &[(1, 1), (1, 2), (2, 1), (2, 2)]);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cells, 4);
        assert!((f[0].polygon.area() - 4.0).abs() < 1e-12);
        // Collinear corner collapse: a 2x2 block is a square (4 corners).
        assert_eq!(f[0].polygon.exterior.len(), 5);
    }

    #[test]
    fn l_shape_polygonizes_exactly() {
        let m = mask(6, 6, &[(1, 1), (2, 1), (3, 1), (3, 2), (3, 3)]);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 1);
        assert!((f[0].polygon.area() - 5.0).abs() < 1e-12);
        assert_eq!(f[0].polygon.exterior.len(), 7); // 6 corners + closure
    }

    #[test]
    fn diagonal_cells_are_separate_components() {
        let m = mask(4, 4, &[(0, 0), (1, 1)]);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn separate_blobs_separate_features() {
        let m = mask(8, 8, &[(1, 1), (1, 2), (6, 6)]);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 2);
        let total: f64 = f.iter().map(|x| x.polygon.area()).sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ring_with_hole() {
        // A 3x3 ring of cells around an empty centre.
        let on: Vec<(usize, usize)> = (0..3)
            .flat_map(|r| (0..3).map(move |c| (r + 1, c + 1)))
            .filter(|&(r, c)| !(r == 2 && c == 2))
            .collect();
        let m = mask(6, 6, &on);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].polygon.interiors.len(), 1);
        assert!((f[0].polygon.area() - 8.0).abs() < 1e-12);
        // The hole centre is outside the polygon.
        let hole_center = Coord::new(2.5, 7.5); // cell (2,2) centre
        assert_eq!(
            locate_point_in_polygon(hole_center, &f[0].polygon),
            PointLocation::Outside
        );
        // A ring cell centre is inside.
        assert_eq!(
            locate_point_in_polygon(Coord::new(1.5, 7.5), &f[0].polygon),
            PointLocation::Inside
        );
    }

    #[test]
    fn exterior_is_ccw_holes_cw() {
        let on: Vec<(usize, usize)> = (0..3)
            .flat_map(|r| (0..3).map(move |c| (r + 1, c + 1)))
            .filter(|&(r, c)| !(r == 2 && c == 2))
            .collect();
        let m = mask(6, 6, &on);
        let f = mask_to_features(&m, &geo()).unwrap();
        assert!(f[0].polygon.exterior.is_ccw());
        assert!(!f[0].polygon.interiors[0].is_ccw());
    }

    #[test]
    fn polygons_validate() {
        let m = mask(8, 8, &[(1, 1), (1, 2), (2, 2), (2, 3), (5, 5)]);
        for f in mask_to_features(&m, &geo()).unwrap() {
            assert!(f.geometry().validate().is_ok());
        }
    }

    #[test]
    fn full_mask_single_rectangle() {
        let m = mask(3, 4, &(0..3).flat_map(|r| (0..4).map(move |c| (r, c))).collect::<Vec<_>>());
        let f = mask_to_features(&m, &geo()).unwrap();
        assert_eq!(f.len(), 1);
        assert!((f[0].polygon.area() - 12.0).abs() < 1e-12);
        assert_eq!(f[0].polygon.exterior.len(), 5);
    }

    #[test]
    fn non_2d_mask_rejected() {
        let m = NdArray::zeros(vec![teleios_monet::array::Dim::new("x", 4)]);
        assert!(mask_to_features(&m, &geo()).is_err());
    }

    #[test]
    fn area_equals_cell_count_scaled() {
        // With 0.5-degree pixels, area scales by 0.25 per cell.
        let g = GeoTransform { origin_x: 0.0, origin_y: 10.0, pixel_w: 0.5, pixel_h: 0.5 };
        let m = mask(4, 4, &[(0, 0), (0, 1), (1, 0)]);
        let f = mask_to_features(&m, &g).unwrap();
        assert_eq!(f.len(), 1);
        assert!((f[0].polygon.area() - 3.0 * 0.25).abs() < 1e-12);
    }
}
