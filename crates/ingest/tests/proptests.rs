//! Property tests of the raster kernels against cell-at-a-time references.

use teleios_check::{forall, Gen};
use teleios_ingest::georef::georeference;
use teleios_ingest::raster::{GeoRaster, GeoTransform};
use teleios_monet::array::{Dim, NdArray};

/// A (band, y, x) raster of distinct cells over `geo`.
fn raster(bands: usize, rows: usize, cols: usize, geo: GeoTransform) -> GeoRaster {
    let data = NdArray::from_vec(
        vec![Dim::new("band", bands), Dim::new("y", rows), Dim::new("x", cols)],
        (0..bands * rows * cols).map(|v| v as f64).collect(),
    )
    .unwrap();
    GeoRaster::new(data, geo, "2007-08-25T12:00:00Z", "MSG2").unwrap()
}

/// A target grid relative to an 8°-wide source at (20, 40): the source's
/// own, an up- or down-sampled one, one shifted to overlap partly, or
/// one far enough away to miss it entirely.
fn target(g: &mut Gen, source: &GeoTransform) -> GeoTransform {
    let scale = [1.0, 0.5, 0.25, 2.0, 3.0, 0.7][g.below(6)];
    let shift = match g.below(4) {
        0 => (0.0, 0.0),
        1 => (g.float(-6.0..6.0), g.float(-6.0..6.0)),
        2 => (g.int(-8..9) as f64 * 0.5, g.int(-8..9) as f64 * 0.5),
        _ => (100.0, -100.0),
    };
    GeoTransform {
        origin_x: source.origin_x + shift.0,
        origin_y: source.origin_y + shift.1,
        pixel_w: source.pixel_w * scale,
        pixel_h: source.pixel_h * scale,
    }
}

/// The per-cell loop `georeference` replaced.
fn georeference_by_cells(raster: &GeoRaster, target: &GeoTransform, rows: usize, cols: usize, fill: f64) -> Vec<f64> {
    let mut out = vec![fill; raster.bands() * rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            if let Some((sr, sc)) = raster.geo.locate(target.pixel_center(r, c), raster.rows(), raster.cols()) {
                for b in 0..raster.bands() {
                    out[(b * rows + r) * cols + c] = raster.get(b, sr, sc).unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn georeference_matches_the_per_cell_locate_loop_bit_for_bit() {
    forall(
        |g| {
            let (bands, rows, cols) = (g.size(1..4), g.size(1..10), g.size(1..10));
            let source = GeoTransform {
                origin_x: 20.0,
                origin_y: 40.0,
                pixel_w: 8.0 / cols as f64,
                pixel_h: 8.0 / rows as f64,
            };
            let fill = [0.0, -1.0, f64::NAN][g.below(3)];
            (bands, rows, cols, source, target(g, &source), g.size(0..14), g.size(0..14), fill)
        },
        |(bands, rows, cols, source, target, out_rows, out_cols, fill)| {
            let src = raster(bands, rows, cols, source);
            let got = georeference(&src, &target, out_rows, out_cols, fill).unwrap();
            assert_eq!((got.bands(), got.rows(), got.cols()), (bands, out_rows, out_cols));
            assert_eq!(got.geo, target);
            let expect = georeference_by_cells(&src, &target, out_rows, out_cols, fill);
            let bits = |cells: &[f64]| cells.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data.data()), bits(&expect));
        },
    );
}

#[test]
fn band_equals_the_slice_of_that_band() {
    forall(
        |g| (g.size(1..5), g.size(0..9), g.size(0..9), g.size(0..6)),
        |(bands, rows, cols, band)| {
            let geo = GeoTransform { origin_x: 0.0, origin_y: 1.0, pixel_w: 1.0, pixel_h: 1.0 };
            let r = raster(bands, rows, cols, geo);
            if band >= bands {
                assert!(r.band(band).is_err());
                return;
            }
            let got = r.band(band).unwrap();
            let by_slice = r.data.slice(&[(band, band + 1), (0, rows), (0, cols)]).unwrap();
            assert_eq!(got.shape(), vec![rows, cols]);
            assert_eq!(got.dims()[0].name, "y");
            assert_eq!(got.dims()[1].name, "x");
            assert_eq!(got.data(), by_slice.data());
        },
    );
}
