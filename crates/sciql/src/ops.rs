//! Named array operations: the hand-coded equivalents of common SciQL
//! queries, used directly by the ingestion tier and as the "native"
//! baseline in experiment E6 (SciQL vs hand-coded loops).

use teleios_monet::array::{Dim, NdArray};
use teleios_monet::{DbError, Result};

/// Crop a 2-D array to `[y0, y1) x [x0, x1)`.
pub fn crop(a: &NdArray, y0: usize, y1: usize, x0: usize, x1: usize) -> Result<NdArray> {
    if a.ndim() != 2 {
        return Err(DbError::ShapeMismatch("crop expects a 2-D array".into()));
    }
    a.slice(&[(y0, y1), (x0, x1)])
}

/// Downsample a 2-D array by integer `factor`, averaging each block
/// (a resampling step of the processing chain). Edge remainders are
/// dropped, matching tile semantics.
pub fn resample_mean(a: &NdArray, factor: usize) -> Result<NdArray> {
    if a.ndim() != 2 {
        return Err(DbError::ShapeMismatch("resample expects a 2-D array".into()));
    }
    if factor == 0 {
        return Err(DbError::ShapeMismatch("resample factor must be positive".into()));
    }
    let tiles = a.tiles(&[factor, factor])?;
    let rows = a.shape()[0] / factor;
    let cols = a.shape()[1] / factor;
    let mut out = NdArray::zeros(vec![
        Dim::new(a.dims()[0].name.clone(), rows),
        Dim::new(a.dims()[1].name.clone(), cols),
    ]);
    for (origin, tile) in tiles {
        let r = origin[0] / factor;
        let c = origin[1] / factor;
        out.set(&[r, c], tile.mean().unwrap_or(0.0))?;
    }
    Ok(out)
}

/// Threshold classification: 1.0 where `value > threshold`, else 0.0.
pub fn classify_threshold(a: &NdArray, threshold: f64) -> NdArray {
    a.map(|v| if v > threshold { 1.0 } else { 0.0 })
}

/// Linear radiometric calibration `gain * v + offset`.
pub fn calibrate(a: &NdArray, gain: f64, offset: f64) -> NdArray {
    a.map(|v| gain * v + offset)
}

/// 3x3 box smoothing.
pub fn smooth3x3(a: &NdArray) -> Result<NdArray> {
    let k = NdArray::matrix(3, 3, vec![1.0 / 9.0; 9])?;
    a.convolve2d(&k)
}

/// Per-tile mean: the hand-coded version of
/// `SELECT AVG(v) FROM a GROUP BY TILES [t, t]`.
pub fn tile_mean(a: &NdArray, t: usize) -> Result<NdArray> {
    resample_mean(a, t)
}

/// Contextual (neighbourhood-majority) reclassification of a binary mask:
/// a positive cell survives only when at least `min_neighbors` of its
/// 8-neighbourhood are positive too. This is the "different
/// classification submodule" of demo scenario 1 (E2).
pub fn contextual_filter(mask: &NdArray, min_neighbors: usize) -> Result<NdArray> {
    if mask.ndim() != 2 {
        return Err(DbError::ShapeMismatch("contextual filter expects a 2-D mask".into()));
    }
    let (rows, cols) = (mask.shape()[0], mask.shape()[1]);
    let cells = mask.data();
    let mut out = cells.to_vec();
    for r in 0..rows {
        for c in 0..cols {
            if cells[r * cols + c] <= 0.0 {
                continue;
            }
            // Positive cells of the 3x3 window clipped to the mask,
            // less the centre itself.
            let n = (r.saturating_sub(1)..(r + 2).min(rows))
                .flat_map(|rr| &cells[rr * cols + c.saturating_sub(1)..rr * cols + (c + 2).min(cols)])
                .filter(|&&v| v > 0.0)
                .count()
                - 1;
            if n < min_neighbors {
                out[r * cols + c] = 0.0;
            }
        }
    }
    NdArray::from_vec(mask.dims().to_vec(), out)
}

/// Extract the list of positive cells of a binary mask as (row, col).
pub fn positive_cells(mask: &NdArray) -> Result<Vec<(usize, usize)>> {
    if mask.ndim() != 2 {
        return Err(DbError::ShapeMismatch("positive_cells expects a 2-D mask".into()));
    }
    let cols = mask.shape()[1];
    Ok(mask
        .data()
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, _)| (i / cols, i % cols))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> NdArray {
        NdArray::matrix(rows, cols, (0..rows * cols).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn crop_extracts_window() {
        let a = ramp(4, 4);
        let c = crop(&a, 1, 3, 2, 4).unwrap();
        assert_eq!(c.shape(), vec![2, 2]);
        assert_eq!(c.data(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn resample_halves() {
        let a = ramp(4, 4);
        let r = resample_mean(&a, 2).unwrap();
        assert_eq!(r.shape(), vec![2, 2]);
        // Top-left block {0,1,4,5} mean 2.5.
        assert_eq!(r.get(&[0, 0]).unwrap(), 2.5);
        assert_eq!(r.get(&[1, 1]).unwrap(), 12.5);
    }

    #[test]
    fn resample_zero_factor_errors() {
        assert!(resample_mean(&ramp(4, 4), 0).is_err());
    }

    #[test]
    fn classify_binary() {
        let a = ramp(2, 2);
        let m = classify_threshold(&a, 1.5);
        assert_eq!(m.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn calibrate_linear() {
        let a = ramp(1, 3);
        let c = calibrate(&a, 2.0, 10.0);
        assert_eq!(c.data(), &[10.0, 12.0, 14.0]);
    }

    #[test]
    fn contextual_removes_isolated() {
        // One isolated positive and one 2x2 block.
        let mut m = NdArray::matrix(4, 4, vec![0.0; 16]).unwrap();
        m.set(&[0, 0], 1.0).unwrap(); // isolated
        m.set(&[2, 2], 1.0).unwrap();
        m.set(&[2, 3], 1.0).unwrap();
        m.set(&[3, 2], 1.0).unwrap();
        m.set(&[3, 3], 1.0).unwrap();
        let f = contextual_filter(&m, 2).unwrap();
        assert_eq!(f.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(f.get(&[2, 2]).unwrap(), 1.0);
        assert_eq!(f.sum(), 4.0);
    }

    #[test]
    fn positive_cells_lists_coordinates() {
        let mut m = NdArray::matrix(3, 3, vec![0.0; 9]).unwrap();
        m.set(&[0, 2], 1.0).unwrap();
        m.set(&[2, 1], 1.0).unwrap();
        assert_eq!(positive_cells(&m).unwrap(), vec![(0, 2), (2, 1)]);
    }

    #[test]
    fn smooth_preserves_constant() {
        let a = NdArray::matrix(5, 5, vec![3.0; 25]).unwrap();
        let s = smooth3x3(&a).unwrap();
        // Interior cells keep the constant value.
        assert!((s.get(&[2, 2]).unwrap() - 3.0).abs() < 1e-12);
        // Corners see zero padding, so they shrink.
        assert!(s.get(&[0, 0]).unwrap() < 3.0);
    }
}
