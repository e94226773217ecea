//! Cropping and georeferencing of rasters (processing-chain modules b/c).

use crate::raster::{GeoRaster, GeoTransform};
use teleios_geo::Envelope;
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::{DbError, Result};

/// Crop a raster to the pixels intersecting `window` (module (b) of the
/// NOA chain). Returns an error when nothing overlaps.
pub fn crop(raster: &GeoRaster, window: &Envelope) -> Result<GeoRaster> {
    let overlap = raster.envelope().intersection(window);
    if overlap.is_empty() {
        return Err(DbError::ShapeMismatch(
            "crop window does not intersect the raster".into(),
        ));
    }
    let geo = &raster.geo;
    // Pixel range covering the overlap (clamped to the raster).
    let col0 = (((overlap.min.x - geo.origin_x) / geo.pixel_w).floor().max(0.0)) as usize;
    let col1 = ((((overlap.max.x - geo.origin_x) / geo.pixel_w).ceil()) as usize).min(raster.cols());
    let row0 = (((geo.origin_y - overlap.max.y) / geo.pixel_h).floor().max(0.0)) as usize;
    let row1 = ((((geo.origin_y - overlap.min.y) / geo.pixel_h).ceil()) as usize).min(raster.rows());
    if col0 >= col1 || row0 >= row1 {
        return Err(DbError::ShapeMismatch("crop window too small".into()));
    }
    let data = raster.data.slice(&[(0, raster.bands()), (row0, row1), (col0, col1)])?;
    let new_geo = GeoTransform {
        origin_x: geo.origin_x + col0 as f64 * geo.pixel_w,
        origin_y: geo.origin_y - row0 as f64 * geo.pixel_h,
        pixel_w: geo.pixel_w,
        pixel_h: geo.pixel_h,
    };
    GeoRaster::new(data, new_geo, raster.acquisition.clone(), raster.satellite.clone())
}

/// Georeference a raster onto a target grid by nearest-neighbour
/// resampling (module (c) of the NOA chain). Target pixels outside the
/// source are filled with `fill`.
pub fn georeference(
    raster: &GeoRaster,
    target: &GeoTransform,
    rows: usize,
    cols: usize,
    fill: f64,
) -> Result<GeoRaster> {
    let (bands, src_rows, src_cols) = (raster.bands(), raster.rows(), raster.cols());
    // The source row of every target row and the source column of every
    // target column, once: a pixel centre's latitude depends only on its
    // row and its longitude only on its column.
    let row_of: Vec<Option<usize>> = (0..rows)
        .map(|r| raster.geo.locate_row(target.pixel_center(r, 0).y, src_rows))
        .collect();
    let col_of: Vec<(usize, usize)> = (0..cols)
        .filter_map(|c| Some((c, raster.geo.locate_col(target.pixel_center(0, c).x, src_cols)?)))
        .collect();
    let source = raster.data.data();
    let mut out = vec![fill; bands * rows * cols];
    for (at, to) in out.chunks_exact_mut(cols.max(1)).enumerate() {
        let (band, row) = (at / rows, at % rows);
        if let Some(sr) = row_of[row] {
            let from = &source[(band * src_rows + sr) * src_cols..][..src_cols];
            for &(c, sc) in &col_of {
                to[c] = from[sc];
            }
        }
    }
    let out = NdArray::from_vec(
        vec![Dim::new("band", bands), Dim::new("y", rows), Dim::new("x", cols)],
        out,
    )?;
    GeoRaster::new(out, *target, raster.acquisition.clone(), raster.satellite.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::Coord;

    fn raster() -> GeoRaster {
        // 1 band, 8x8 ramp over [20..28] x [32..40].
        let data = NdArray::from_vec(
            vec![Dim::new("band", 1), Dim::new("y", 8), Dim::new("x", 8)],
            (0..64).map(|v| v as f64).collect(),
        )
        .unwrap();
        let geo = GeoTransform { origin_x: 20.0, origin_y: 40.0, pixel_w: 1.0, pixel_h: 1.0 };
        GeoRaster::new(data, geo, "2007-08-25T12:00:00Z", "MSG2").unwrap()
    }

    #[test]
    fn crop_extracts_window() {
        let r = raster();
        let window = Envelope::new(Coord::new(22.0, 36.0), Coord::new(25.0, 38.0));
        let c = crop(&r, &window).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        // Top-left of the crop = row 2, col 2 of the source = 18.
        assert_eq!(c.get(0, 0, 0).unwrap(), 18.0);
        assert_eq!(c.geo.origin_x, 22.0);
        assert_eq!(c.geo.origin_y, 38.0);
        // Geographic positions are preserved.
        assert_eq!(c.geo.pixel_center(0, 0), r.geo.pixel_center(2, 2));
    }

    #[test]
    fn crop_partial_overlap_clamps() {
        let r = raster();
        let window = Envelope::new(Coord::new(18.0, 38.0), Coord::new(21.0, 42.0));
        let c = crop(&r, &window).unwrap();
        assert_eq!(c.cols(), 1);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.get(0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn crop_disjoint_errors() {
        let r = raster();
        let window = Envelope::new(Coord::new(100.0, 100.0), Coord::new(101.0, 101.0));
        assert!(crop(&r, &window).is_err());
    }

    #[test]
    fn georeference_identity_grid() {
        let r = raster();
        let g = georeference(&r, &r.geo.clone(), 8, 8, f64::NAN).unwrap();
        assert_eq!(g.data, r.data);
    }

    #[test]
    fn georeference_upsamples_nearest() {
        let r = raster();
        let target = GeoTransform { origin_x: 20.0, origin_y: 40.0, pixel_w: 0.5, pixel_h: 0.5 };
        let g = georeference(&r, &target, 16, 16, 0.0).unwrap();
        // Each source pixel becomes a 2x2 block.
        assert_eq!(g.get(0, 0, 0).unwrap(), 0.0);
        assert_eq!(g.get(0, 0, 1).unwrap(), 0.0);
        assert_eq!(g.get(0, 0, 2).unwrap(), 1.0);
        assert_eq!(g.get(0, 2, 0).unwrap(), 8.0);
    }

    #[test]
    fn georeference_of_a_degenerate_transform_is_all_fill() {
        // A single-point bbox fits a zero pixel size; every pixel centre
        // is then the origin and locates at 0/0.
        let mut r = raster();
        r.geo = GeoTransform::fit(&Envelope::from_coord(Coord::new(20.0, 40.0)), 8, 8);
        let g = georeference(&r, &r.geo.clone(), 4, 4, -1.0).unwrap();
        assert!(g.data.data().iter().all(|&v| v == -1.0));
    }

    #[test]
    fn georeference_fills_outside() {
        let r = raster();
        // Target extends west of the source.
        let target = GeoTransform { origin_x: 15.0, origin_y: 40.0, pixel_w: 1.0, pixel_h: 1.0 };
        let g = georeference(&r, &target, 8, 8, -1.0).unwrap();
        assert_eq!(g.get(0, 0, 0).unwrap(), -1.0); // outside
        assert_eq!(g.get(0, 0, 5).unwrap(), 0.0); // source col 0
    }
}
