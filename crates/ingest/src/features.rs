//! Content extraction: patch cutting and feature vectors.
//!
//! The paper's content-extraction components "create a set of patches by
//! cutting images into square patches" and "compress data into a compact
//! multi-element feature vector representation" (§3). A patch's feature
//! vector holds per-band statistics plus simple texture measures; the
//! knowledge-discovery tier (`teleios-mining`) classifies these vectors
//! into ontology concepts.

use crate::raster::GeoRaster;
use teleios_geo::Envelope;
use teleios_monet::array::NdArray;
use teleios_monet::{DbError, Result};

/// A square image patch with its extracted feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// Patch row index (in patch grid coordinates).
    pub py: usize,
    /// Patch column index.
    pub px: usize,
    /// Geographic envelope of the patch.
    pub envelope: Envelope,
    /// The feature vector.
    pub features: Vec<f64>,
}

/// Names of the features extracted per band, in order.
pub(crate) const PER_BAND_FEATURES: [&str; 4] = ["mean", "std", "min", "max"];
/// Names of the texture features appended after the band statistics.
pub(crate) const TEXTURE_FEATURES: [&str; 2] = ["gradient_energy", "range_ratio"];

/// Length of a feature vector for a raster with `bands` bands.
pub(crate) fn feature_len(bands: usize) -> usize {
    bands * PER_BAND_FEATURES.len() + TEXTURE_FEATURES.len()
}

/// Cut the raster into non-overlapping `size`×`size` patches and extract
/// a feature vector per patch. Edge remainders are skipped, matching the
/// SciQL tile semantics used to implement this in the database.
pub fn extract_patches(raster: &GeoRaster, size: usize) -> Result<Vec<Patch>> {
    if size == 0 {
        return Err(DbError::ShapeMismatch("patch size must be positive".into()));
    }
    let bands = raster.bands();
    let py_count = raster.rows() / size;
    let px_count = raster.cols() / size;
    let mut out = Vec::with_capacity(py_count * px_count);

    // Pre-slice each band once.
    let band_arrays: Vec<NdArray> = (0..bands)
        .map(|b| raster.band(b))
        .collect::<Result<_>>()?;

    for py in 0..py_count {
        for px in 0..px_count {
            let r0 = py * size;
            let c0 = px * size;
            let mut features = Vec::with_capacity(feature_len(bands));
            let mut tiles: Vec<NdArray> = Vec::with_capacity(bands);
            for arr in &band_arrays {
                let tile = arr.slice(&[(r0, r0 + size), (c0, c0 + size)])?;
                features.push(tile.mean().unwrap_or(0.0));
                features.push(tile.std_dev().unwrap_or(0.0));
                features.push(tile.min().unwrap_or(0.0));
                features.push(tile.max().unwrap_or(0.0));
                tiles.push(tile);
            }
            // Texture on the thermal-most band (last); rasters always
            // carry at least one band.
            if let Some(t) = tiles.last() {
                features.push(gradient_energy(t));
                features.push(range_ratio(t));
            }

            // Geographic envelope: union of the corner pixel envelopes.
            let env = raster
                .geo
                .pixel_envelope(r0, c0)
                .union(&raster.geo.pixel_envelope(r0 + size - 1, c0 + size - 1));
            out.push(Patch { py, px, envelope: env, features });
        }
    }
    Ok(out)
}

/// Mean squared difference between horizontal/vertical neighbours — a
/// cheap texture-energy proxy.
fn gradient_energy(tile: &NdArray) -> f64 {
    let shape = tile.shape();
    let (rows, cols) = (shape[0], shape[1]);
    if rows < 2 || cols < 2 {
        return 0.0;
    }
    let d = tile.data();
    let mut acc = 0.0;
    let mut n = 0usize;
    for r in 0..rows {
        for c in 0..cols {
            let v = d[r * cols + c];
            if c + 1 < cols {
                let dv = d[r * cols + c + 1] - v;
                acc += dv * dv;
                n += 1;
            }
            if r + 1 < rows {
                let dv = d[(r + 1) * cols + c] - v;
                acc += dv * dv;
                n += 1;
            }
        }
    }
    acc / n as f64
}

/// (max − min) / (|mean| + 1): dynamic range normalized by level.
fn range_ratio(tile: &NdArray) -> f64 {
    let (min, max, mean) = (
        tile.min().unwrap_or(0.0),
        tile.max().unwrap_or(0.0),
        tile.mean().unwrap_or(0.0),
    );
    (max - min) / (mean.abs() + 1.0)
}

/// Euclidean distance between two feature vectors.
pub fn feature_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::GeoTransform;
    use teleios_monet::array::Dim;

    fn raster(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> GeoRaster {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        let arr = NdArray::from_vec(
            vec![Dim::new("band", 1), Dim::new("y", rows), Dim::new("x", cols)],
            data,
        )
        .unwrap();
        let geo = GeoTransform { origin_x: 0.0, origin_y: rows as f64, pixel_w: 1.0, pixel_h: 1.0 };
        GeoRaster::new(arr, geo, "t", "s").unwrap()
    }

    #[test]
    fn patch_grid_shape() {
        let r = raster(8, 12, |_, _| 1.0);
        let patches = extract_patches(&r, 4).unwrap();
        assert_eq!(patches.len(), 2 * 3);
        assert_eq!(patches[0].features.len(), feature_len(1));
    }

    #[test]
    fn edge_remainders_skipped() {
        let r = raster(10, 10, |_, _| 1.0);
        assert_eq!(extract_patches(&r, 4).unwrap().len(), 4);
    }

    #[test]
    fn zero_size_rejected() {
        let r = raster(4, 4, |_, _| 1.0);
        assert!(extract_patches(&r, 0).is_err());
    }

    #[test]
    fn constant_patch_statistics() {
        let r = raster(4, 4, |_, _| 5.0);
        let p = &extract_patches(&r, 4).unwrap()[0];
        assert_eq!(p.features[0], 5.0); // mean
        assert_eq!(p.features[1], 0.0); // std
        assert_eq!(p.features[2], 5.0); // min
        assert_eq!(p.features[3], 5.0); // max
        assert_eq!(p.features[4], 0.0); // gradient energy
    }

    #[test]
    fn textured_patch_has_energy() {
        // Checkerboard 0/10.
        let r = raster(4, 4, |r, c| if (r + c) % 2 == 0 { 0.0 } else { 10.0 });
        let p = &extract_patches(&r, 4).unwrap()[0];
        assert!(p.features[4] > 50.0, "gradient energy {}", p.features[4]);
        assert!(p.features[5] > 0.0);
    }

    #[test]
    fn patch_envelopes_tile_the_raster() {
        let r = raster(8, 8, |_, _| 0.0);
        let patches = extract_patches(&r, 4).unwrap();
        let total: f64 = patches.iter().map(|p| p.envelope.area()).sum();
        assert_eq!(total, 64.0);
        // First patch sits at the raster's top-left.
        assert_eq!(patches[0].envelope.min.x, 0.0);
        assert_eq!(patches[0].envelope.max.y, 8.0);
    }

    #[test]
    fn feature_distance_basic() {
        assert_eq!(feature_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(feature_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn multiband_feature_layout() {
        let rows = 4;
        let cols = 4;
        let mut data = Vec::new();
        for b in 0..2 {
            for _ in 0..rows * cols {
                data.push(b as f64 * 100.0);
            }
        }
        let arr = NdArray::from_vec(
            vec![Dim::new("band", 2), Dim::new("y", rows), Dim::new("x", cols)],
            data,
        )
        .unwrap();
        let geo = GeoTransform { origin_x: 0.0, origin_y: 4.0, pixel_w: 1.0, pixel_h: 1.0 };
        let r = GeoRaster::new(arr, geo, "t", "s").unwrap();
        let p = &extract_patches(&r, 4).unwrap()[0];
        assert_eq!(p.features.len(), feature_len(2));
        assert_eq!(p.features[0], 0.0); // band 0 mean
        assert_eq!(p.features[4], 100.0); // band 1 mean
    }
}
