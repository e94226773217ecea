//! Georeferenced multiband rasters.

use teleios_geo::{Coord, Envelope};
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::{DbError, Result};

/// Affine geotransform: maps pixel (row, col) to geographic coordinates.
/// North-up only (no rotation terms), like the vast majority of EO
/// products.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoTransform {
    /// Longitude of the *outer* edge of column 0.
    pub origin_x: f64,
    /// Latitude of the *outer* edge of row 0 (the top).
    pub origin_y: f64,
    /// Pixel width in degrees.
    pub pixel_w: f64,
    /// Pixel height in degrees (positive; rows grow southward).
    pub pixel_h: f64,
}

impl GeoTransform {
    /// Transform covering `bbox` with the given raster shape.
    pub fn fit(bbox: &Envelope, rows: usize, cols: usize) -> GeoTransform {
        GeoTransform {
            origin_x: bbox.min.x,
            origin_y: bbox.max.y,
            pixel_w: bbox.width() / cols.max(1) as f64,
            pixel_h: bbox.height() / rows.max(1) as f64,
        }
    }

    /// Geographic coordinate of a pixel's *centre*.
    pub fn pixel_center(&self, row: usize, col: usize) -> Coord {
        Coord::new(
            self.origin_x + (col as f64 + 0.5) * self.pixel_w,
            self.origin_y - (row as f64 + 0.5) * self.pixel_h,
        )
    }

    /// Geographic envelope of a pixel.
    pub fn pixel_envelope(&self, row: usize, col: usize) -> Envelope {
        let x0 = self.origin_x + col as f64 * self.pixel_w;
        let y1 = self.origin_y - row as f64 * self.pixel_h;
        Envelope::new(Coord::new(x0, y1 - self.pixel_h), Coord::new(x0 + self.pixel_w, y1))
    }

    /// Pixel (row, col) containing a geographic coordinate, if inside
    /// the given raster shape. `None` for a non-finite coordinate or a
    /// degenerate transform (zero or NaN pixel size).
    pub fn locate(&self, c: Coord, rows: usize, cols: usize) -> Option<(usize, usize)> {
        self.locate_row(c.y, rows).zip(self.locate_col(c.x, cols))
    }

    /// Row containing latitude `y`, if inside a raster of `rows` rows.
    pub fn locate_row(&self, y: f64, rows: usize) -> Option<usize> {
        index_in(((self.origin_y - y) / self.pixel_h).floor(), rows)
    }

    /// Column containing longitude `x`, if inside a raster of `cols` columns.
    pub fn locate_col(&self, x: f64, cols: usize) -> Option<usize> {
        index_in(((x - self.origin_x) / self.pixel_w).floor(), cols)
    }

    /// Envelope of the full raster.
    pub fn envelope(&self, rows: usize, cols: usize) -> Envelope {
        Envelope::new(
            Coord::new(self.origin_x, self.origin_y - rows as f64 * self.pixel_h),
            Coord::new(self.origin_x + cols as f64 * self.pixel_w, self.origin_y),
        )
    }
}

/// `at` as an index below `size`; `None` when negative, past the end or
/// not finite (NaN fails every range test and casts to 0).
fn index_in(at: f64, size: usize) -> Option<usize> {
    (at.is_finite() && at >= 0.0 && at < size as f64).then_some(at as usize)
}

/// A georeferenced multiband raster: the in-database image.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRaster {
    /// The pixel data: dims (band, y, x).
    pub data: NdArray,
    /// Geotransform.
    pub geo: GeoTransform,
    /// Acquisition instant (ISO-8601).
    pub acquisition: String,
    /// Acquiring satellite/sensor identifier.
    pub satellite: String,
}

impl GeoRaster {
    /// New raster; the array must have dims (band, y, x).
    pub fn new(
        data: NdArray,
        geo: GeoTransform,
        acquisition: impl Into<String>,
        satellite: impl Into<String>,
    ) -> Result<GeoRaster> {
        if data.ndim() != 3 {
            return Err(DbError::ShapeMismatch(format!(
                "GeoRaster needs (band, y, x) dims, got rank {}",
                data.ndim()
            )));
        }
        Ok(GeoRaster {
            data,
            geo,
            acquisition: acquisition.into(),
            satellite: satellite.into(),
        })
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.data.shape()[0]
    }

    /// Raster rows.
    pub fn rows(&self) -> usize {
        self.data.shape()[1]
    }

    /// Raster columns.
    pub fn cols(&self) -> usize {
        self.data.shape()[2]
    }

    /// Geographic envelope.
    pub fn envelope(&self) -> Envelope {
        self.geo.envelope(self.rows(), self.cols())
    }

    /// Value of one band at (row, col).
    pub fn get(&self, band: usize, row: usize, col: usize) -> Result<f64> {
        self.data.get(&[band, row, col])
    }

    /// One band as a 2-D array (y, x): one contiguous run of the
    /// (band, y, x) cells.
    pub fn band(&self, band: usize) -> Result<NdArray> {
        if band >= self.bands() {
            return Err(DbError::ShapeMismatch(format!(
                "band {band} out of bounds ({} bands)",
                self.bands()
            )));
        }
        let cells = self.rows() * self.cols();
        NdArray::from_vec(
            vec![Dim::new("y", self.rows()), Dim::new("x", self.cols())],
            self.data.data()[band * cells..(band + 1) * cells].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transform() -> GeoTransform {
        GeoTransform { origin_x: 20.0, origin_y: 40.0, pixel_w: 0.5, pixel_h: 0.5 }
    }

    #[test]
    fn fit_covers_bbox() {
        let bbox = Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0));
        let t = GeoTransform::fit(&bbox, 100, 300);
        assert_eq!(t.origin_x, 21.0);
        assert_eq!(t.origin_y, 39.0);
        assert_eq!(t.pixel_w, 0.01);
        assert_eq!(t.pixel_h, 0.03);
        assert_eq!(t.envelope(100, 300), bbox);
    }

    #[test]
    fn pixel_center_and_locate_roundtrip() {
        let t = transform();
        let c = t.pixel_center(2, 3);
        assert_eq!(c, Coord::new(21.75, 38.75));
        assert_eq!(t.locate(c, 10, 10), Some((2, 3)));
    }

    #[test]
    fn locate_outside_is_none() {
        let t = transform();
        assert_eq!(t.locate(Coord::new(19.0, 39.0), 10, 10), None);
        assert_eq!(t.locate(Coord::new(21.0, 41.0), 10, 10), None);
        assert_eq!(t.locate(Coord::new(26.0, 39.0), 10, 10), None);
    }

    #[test]
    fn locate_rejects_non_finite_coordinates_and_degenerate_transforms() {
        let t = transform();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(t.locate(Coord::new(bad, 39.0), 10, 10), None);
            assert_eq!(t.locate(Coord::new(21.0, bad), 10, 10), None);
        }
        // An empty or single-point bbox fits a zero pixel size: 0/0 is
        // NaN, which used to pass every range test and cast to cell 0.
        let p = Coord::new(21.0, 39.0);
        assert_eq!(GeoTransform::fit(&Envelope::EMPTY, 4, 4).locate(p, 4, 4), None);
        assert_eq!(GeoTransform::fit(&Envelope::from_coord(p), 4, 4).locate(p, 4, 4), None);
        let nan = GeoTransform { pixel_w: f64::NAN, ..t };
        assert_eq!(nan.locate(p, 10, 10), None);
    }

    #[test]
    fn pixel_envelope_tiles_raster() {
        let t = transform();
        let e = t.pixel_envelope(0, 0);
        assert_eq!(e.min, Coord::new(20.0, 39.5));
        assert_eq!(e.max, Coord::new(20.5, 40.0));
        // Adjacent pixels share an edge.
        let e2 = t.pixel_envelope(0, 1);
        assert_eq!(e.max.x, e2.min.x);
    }

    #[test]
    fn georaster_accessors() {
        let data = NdArray::from_vec(
            vec![Dim::new("band", 2), Dim::new("y", 3), Dim::new("x", 4)],
            (0..24).map(|v| v as f64).collect(),
        )
        .unwrap();
        let r = GeoRaster::new(data, transform(), "2007-08-25T12:00:00Z", "MSG2").unwrap();
        assert_eq!(r.bands(), 2);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.cols(), 4);
        assert_eq!(r.get(1, 2, 3).unwrap(), 23.0);
        let b1 = r.band(1).unwrap();
        assert_eq!(b1.shape(), vec![3, 4]);
        assert_eq!(b1.get(&[2, 3]).unwrap(), 23.0);
    }

    #[test]
    fn georaster_requires_3d() {
        let flat = NdArray::matrix(2, 2, vec![0.0; 4]).unwrap();
        assert!(GeoRaster::new(flat, transform(), "t", "s").is_err());
    }
}
