//! First-class n-dimensional arrays.
//!
//! SciQL's central idea is that arrays live *inside* the database next to
//! tables, sharing the execution engine. `NdArray` is that object: a
//! dense, row-major `f64` array with named dimensions, supporting the
//! structural operations SciQL queries compile to — slicing, element-wise
//! maps, zips, reductions, and **tiling** (the structural group-by of
//! SciQL, used for patch-based feature extraction).

use crate::error::DbError;
use crate::Result;
use std::ops::Range;
use std::sync::Arc;
use teleios_exec::{fixed_morsels, WorkerPool, DEFAULT_MORSEL_CELLS};

/// Minimum cell count before element-wise array operators split work
/// across the worker pool; below this the plain loops win outright.
pub const PAR_CELL_THRESHOLD: usize = 16_384;

/// A named array dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dim {
    /// Dimension name (e.g. `x`, `y`, `band`).
    pub name: String,
    /// Extent.
    pub size: usize,
}

impl Dim {
    /// New dimension.
    pub fn new(name: impl Into<String>, size: usize) -> Dim {
        Dim { name: name.into(), size }
    }
}

/// A dense row-major n-dimensional array of `f64` cells. Clones share
/// one cell buffer; [`NdArray::data_mut`] and [`NdArray::set`] copy it
/// on the first write, so no holder ever sees another's mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray {
    dims: Vec<Dim>,
    data: Arc<Vec<f64>>,
}

/// The one cell walker: visit the rectangular region `ranges` of a
/// row-major array of `shape` in storage order, one contiguous run at
/// a time, as `visit(coordinate of the run's first cell, its linear
/// offset, its length)`. A run is a segment of the innermost
/// dimension; with `fold` it also takes in every trailing dimension
/// the region covers whole (a band of a `(band, y, x)` array is one
/// run). `ranges` must lie inside `shape`; an empty region has no runs.
fn walk_runs(
    shape: &[usize],
    ranges: &[(usize, usize)],
    fold: bool,
    mut visit: impl FnMut(&[usize], usize, usize) -> Result<()>,
) -> Result<()> {
    if ranges.iter().any(|(start, end)| start >= end) {
        return Ok(());
    }
    // Dimensions `outer..` are inside the run; the odometer steps the rest.
    let mut outer = shape.len().saturating_sub(1);
    while fold && outer > 0 && ranges[outer] == (0, shape[outer]) {
        outer -= 1;
    }
    let mut strides = vec![1usize; shape.len()];
    for k in (1..shape.len()).rev() {
        strides[k - 1] = strides[k] * shape[k];
    }
    let mut coord: Vec<usize> = ranges.iter().map(|(start, _)| *start).collect();
    let mut offset: usize = coord.iter().zip(&strides).map(|(c, s)| c * s).sum();
    let len = ranges[outer..].iter().map(|(start, end)| end - start).product();
    loop {
        visit(&coord, offset, len)?;
        let mut k = outer;
        loop {
            if k == 0 {
                return Ok(());
            }
            k -= 1;
            coord[k] += 1;
            offset += strides[k];
            if coord[k] < ranges[k].1 {
                break;
            }
            offset -= (ranges[k].1 - ranges[k].0) * strides[k];
            coord[k] = ranges[k].0;
        }
    }
}

impl NdArray {
    /// Array filled with `fill`.
    pub fn filled(dims: Vec<Dim>, fill: f64) -> NdArray {
        let n = dims.iter().map(|d| d.size).product();
        NdArray { dims, data: vec![fill; n].into() }
    }

    /// Zero-filled array.
    pub fn zeros(dims: Vec<Dim>) -> NdArray {
        Self::filled(dims, 0.0)
    }

    /// Array from raw row-major data; the length must match the shape.
    pub fn from_vec(dims: Vec<Dim>, data: Vec<f64>) -> Result<NdArray> {
        let n: usize = dims.iter().map(|d| d.size).product();
        if n != data.len() {
            return Err(DbError::ShapeMismatch(format!(
                "shape holds {n} cells but {} values were given",
                data.len()
            )));
        }
        Ok(NdArray { dims, data: data.into() })
    }

    /// Convenience: 2-D array with dims `y` (rows) then `x` (columns).
    pub fn matrix(rows: usize, cols: usize, data: Vec<f64>) -> Result<NdArray> {
        Self::from_vec(vec![Dim::new("y", rows), Dim::new("x", cols)], data)
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Extent per dimension.
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.size).collect()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data (copies the buffer first if a clone shares it).
    pub fn data_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Index of a dimension by name.
    pub fn dim_index(&self, name: &str) -> Result<usize> {
        self.dims
            .iter()
            .position(|d| d.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::ShapeMismatch(format!("unknown dimension: {name}")))
    }

    /// Linearize a multi-index.
    pub fn linear_index(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.dims.len() {
            return Err(DbError::ShapeMismatch(format!(
                "index rank {} != array rank {}",
                idx.len(),
                self.dims.len()
            )));
        }
        let mut lin = 0usize;
        for (i, (&ix, d)) in idx.iter().zip(&self.dims).enumerate() {
            if ix >= d.size {
                return Err(DbError::ShapeMismatch(format!(
                    "index {ix} out of bounds for dimension {i} (size {})",
                    d.size
                )));
            }
            lin = lin * d.size + ix;
        }
        Ok(lin)
    }

    /// Cell value at a multi-index.
    pub fn get(&self, idx: &[usize]) -> Result<f64> {
        Ok(self.data[self.linear_index(idx)?])
    }

    /// Set a cell.
    pub fn set(&mut self, idx: &[usize], v: f64) -> Result<()> {
        let lin = self.linear_index(idx)?;
        self.data_mut()[lin] = v;
        Ok(())
    }

    /// Errors unless `ranges` is one in-bounds half-open range per dimension.
    fn check_ranges(&self, ranges: &[(usize, usize)]) -> Result<()> {
        if ranges.len() != self.dims.len() {
            return Err(DbError::ShapeMismatch(format!(
                "slice rank {} != array rank {}",
                ranges.len(),
                self.dims.len()
            )));
        }
        for ((start, end), d) in ranges.iter().zip(&self.dims) {
            if start > end || *end > d.size {
                return Err(DbError::ShapeMismatch(format!(
                    "slice {start}..{end} out of bounds for dimension '{}' (size {})",
                    d.name, d.size
                )));
            }
        }
        Ok(())
    }

    /// Visit the region `ranges` (as in [`Self::slice`]) in row-major
    /// order, one innermost-dimension segment at a time:
    /// `visit(coordinate of the segment's first cell, its offset into
    /// [`Self::data`], its length)`. Only the last coordinate changes
    /// within a segment.
    pub fn walk_rows(
        &self,
        ranges: &[(usize, usize)],
        visit: impl FnMut(&[usize], usize, usize) -> Result<()>,
    ) -> Result<()> {
        self.check_ranges(ranges)?;
        walk_runs(&self.shape(), ranges, false, visit)
    }

    /// Rectangular slice: `ranges[i]` is the half-open `(start, end)` per
    /// dimension. Returns a new array with the same dimension names
    /// (sharing this one's buffer when the slice is all of it).
    pub fn slice(&self, ranges: &[(usize, usize)]) -> Result<NdArray> {
        self.check_ranges(ranges)?;
        let shape = self.shape();
        if ranges.iter().zip(&shape).all(|(r, &size)| *r == (0, size)) {
            return Ok(self.clone());
        }
        let dims: Vec<Dim> = self
            .dims
            .iter()
            .zip(ranges)
            .map(|(d, (s, e))| Dim::new(d.name.clone(), e - s))
            .collect();
        let mut data = Vec::with_capacity(dims.iter().map(|d| d.size).product());
        walk_runs(&shape, ranges, true, |_, offset, len| {
            data.extend_from_slice(&self.data[offset..offset + len]);
            Ok(())
        })?;
        Ok(NdArray { dims, data: data.into() })
    }

    /// Element-wise map into a new array, on the default worker pool
    /// (`TELEIOS_THREADS` override, else available parallelism). Maps
    /// are order-independent per cell, so the result is bit-identical
    /// at every thread count. See [`Self::map_with`].
    pub fn map<F: Fn(f64) -> f64 + Sync>(&self, f: F) -> NdArray {
        self.map_with(&WorkerPool::default(), f)
    }

    /// [`Self::map`] with an explicit worker pool: independent workers
    /// fill row-major morsels of the output (`fill_cells`).
    pub fn map_with<F: Fn(f64) -> f64 + Sync>(&self, pool: &WorkerPool, f: F) -> NdArray {
        let data = self.fill_cells(pool, |r, dst| {
            for (o, &v) in dst.iter_mut().zip(&self.data[r]) {
                *o = f(v);
            }
        });
        NdArray { dims: self.dims.clone(), data: data.into() }
    }

    /// The one element-wise kernel. A fresh buffer of `self.len()`
    /// cells is cut along `pool`'s row-major morsels — a single one
    /// under [`PAR_CELL_THRESHOLD`] cells or at one thread, run inline
    /// — and `fill(range, dst)` writes each piece. Cells are
    /// independent, so the buffer is bit-identical at every thread
    /// count.
    fn fill_cells(
        &self,
        pool: &WorkerPool,
        fill: impl Fn(Range<usize>, &mut [f64]) + Sync,
    ) -> Vec<f64> {
        let n = self.data.len();
        let mut out = vec![0.0f64; n];
        let mut rest = out.as_mut_slice();
        let fill = &fill;
        let tasks: Vec<_> = pool
            .morsels_for(n, PAR_CELL_THRESHOLD, 1)
            .into_iter()
            .map(|r| {
                let (dst, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                rest = tail;
                move || fill(r, dst)
            })
            .collect();
        pool.run(tasks);
        out
    }

    /// Element-wise combination of two same-shape arrays, on the
    /// default worker pool. See [`Self::zip_map_with`].
    pub fn zip_map<F: Fn(f64, f64) -> f64 + Sync>(
        &self,
        other: &NdArray,
        f: F,
    ) -> Result<NdArray> {
        self.zip_map_with(&WorkerPool::default(), other, f)
    }

    /// [`Self::zip_map`] with an explicit worker pool; bit-identical
    /// at every thread count.
    pub fn zip_map_with<F: Fn(f64, f64) -> f64 + Sync>(
        &self,
        pool: &WorkerPool,
        other: &NdArray,
        f: F,
    ) -> Result<NdArray> {
        if self.shape() != other.shape() {
            return Err(DbError::ShapeMismatch(format!(
                "zip of shapes {:?} and {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let data = self.fill_cells(pool, |r, dst| {
            let pairs = self.data[r.clone()].iter().zip(&other.data[r]);
            for (o, (&a, &b)) in dst.iter_mut().zip(pairs) {
                *o = f(a, b);
            }
        });
        Ok(NdArray { dims: self.dims.clone(), data: data.into() })
    }

    /// Sum of all cells, on the default worker pool. See
    /// [`Self::sum_with`].
    pub fn sum(&self) -> f64 {
        self.sum_with(&WorkerPool::default())
    }

    /// Sum with an explicit worker pool.
    ///
    /// Arrays of at most [`DEFAULT_MORSEL_CELLS`] cells use the plain
    /// left fold (the seed behavior, bit-for-bit). Larger arrays sum
    /// per fixed-size chunk and combine the partials left-to-right;
    /// the chunk boundaries depend only on the array length, never on
    /// the thread count, so the floating-point rounding — and hence
    /// the result — is identical at every pool size.
    pub fn sum_with(&self, pool: &WorkerPool) -> f64 {
        self.chunked_sum(pool, |v| v)
    }

    /// Chunked, deterministic `Σ f(v)` shared by sum and std_dev: one
    /// partial per fixed-size chunk (a single chunk is the plain left
    /// fold), combined left-to-right.
    fn chunked_sum<F: Fn(f64) -> f64 + Sync>(&self, pool: &WorkerPool, f: F) -> f64 {
        let data = &self.data;
        let f = &f;
        let partials: Vec<f64> = pool.run(
            fixed_morsels(data.len(), DEFAULT_MORSEL_CELLS)
                .into_iter()
                .map(|r| move || data[r].iter().map(|&v| f(v)).sum::<f64>())
                .collect(),
        );
        partials.into_iter().sum()
    }

    /// Minimum cell (NaN-resistant); `None` when empty. `f64::min` is
    /// associative and commutative over non-NaN values, so the
    /// chunk-parallel reduction is identical to the sequential one.
    pub fn min(&self) -> Option<f64> {
        self.min_with(&WorkerPool::default())
    }

    /// [`Self::min`] with an explicit worker pool.
    pub fn min_with(&self, pool: &WorkerPool) -> Option<f64> {
        self.chunked_reduce(pool, f64::min)
    }

    /// Maximum cell (NaN-resistant); `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.max_with(&WorkerPool::default())
    }

    /// [`Self::max`] with an explicit worker pool.
    pub fn max_with(&self, pool: &WorkerPool) -> Option<f64> {
        self.chunked_reduce(pool, f64::max)
    }

    /// NaN-filtered reduction with an associative, commutative
    /// combiner (min/max), parallel over fixed-size chunks.
    fn chunked_reduce(
        &self,
        pool: &WorkerPool,
        combine: fn(f64, f64) -> f64,
    ) -> Option<f64> {
        let data = &self.data;
        let partials: Vec<Option<f64>> = pool.run(
            fixed_morsels(data.len(), DEFAULT_MORSEL_CELLS)
                .into_iter()
                .map(|r| {
                    move || data[r].iter().copied().filter(|v| !v.is_nan()).reduce(combine)
                })
                .collect(),
        );
        partials.into_iter().flatten().reduce(combine)
    }

    /// Mean of all cells; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.sum() / self.len() as f64)
        }
    }

    /// Population standard deviation; `None` when empty. The
    /// sum-of-squares pass uses the same deterministic chunked
    /// reduction as [`Self::sum`].
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.chunked_sum(&WorkerPool::default(), |v| (v - mean) * (v - mean))
            / self.len() as f64;
        Some(var.sqrt())
    }

    /// Iterate non-overlapping tiles of `tile_shape`, yielding the tile
    /// origin and the tile as a new array. Partial edge tiles are skipped,
    /// matching SciQL's structured group-by semantics.
    pub fn tiles(&self, tile_shape: &[usize]) -> Result<Vec<(Vec<usize>, NdArray)>> {
        if tile_shape.len() != self.dims.len() {
            return Err(DbError::ShapeMismatch(format!(
                "tile rank {} != array rank {}",
                tile_shape.len(),
                self.dims.len()
            )));
        }
        if tile_shape.contains(&0) {
            return Err(DbError::ShapeMismatch("zero-size tile".into()));
        }
        let counts: Vec<usize> = self
            .dims
            .iter()
            .zip(tile_shape)
            .map(|(d, &t)| d.size / t)
            .collect();
        // The tile grid under a trailing unit dimension: every run is one tile.
        let grid: Vec<(usize, usize)> = counts.iter().map(|&n| (0, n)).chain([(0, 1)]).collect();
        let grid_shape: Vec<usize> = grid.iter().map(|&(_, n)| n).collect();
        let mut out = Vec::with_capacity(counts.iter().product());
        walk_runs(&grid_shape, &grid, false, |tile, _, _| {
            let ranges: Vec<(usize, usize)> =
                tile.iter().zip(tile_shape).map(|(&i, &t)| (i * t, (i + 1) * t)).collect();
            let origin = ranges.iter().map(|&(start, _)| start).collect();
            out.push((origin, self.slice(&ranges)?));
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a2x3() -> NdArray {
        NdArray::matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn shape_and_indexing() {
        let a = a2x3();
        assert_eq!(a.shape(), vec![2, 3]);
        assert_eq!(a.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(a.get(&[1, 2]).unwrap(), 6.0);
        assert!(a.get(&[2, 0]).is_err());
        assert!(a.get(&[0]).is_err());
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(NdArray::matrix(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn set_updates() {
        let mut a = a2x3();
        a.set(&[1, 1], 50.0).unwrap();
        assert_eq!(a.get(&[1, 1]).unwrap(), 50.0);
    }

    #[test]
    fn slice_middle() {
        let a = NdArray::matrix(4, 4, (0..16).map(|v| v as f64).collect()).unwrap();
        let s = a.slice(&[(1, 3), (1, 3)]).unwrap();
        assert_eq!(s.shape(), vec![2, 2]);
        assert_eq!(s.data(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn slice_full_is_copy() {
        let a = a2x3();
        let s = a.slice(&[(0, 2), (0, 3)]).unwrap();
        assert_eq!(s, a);
    }

    #[test]
    fn slice_empty() {
        let a = a2x3();
        let s = a.slice(&[(1, 1), (0, 3)]).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn slice_out_of_bounds() {
        let a = a2x3();
        assert!(a.slice(&[(0, 3), (0, 3)]).is_err());
        assert!(a.slice(&[(2, 1), (0, 3)]).is_err());
    }

    #[test]
    fn map_and_zip() {
        let a = a2x3();
        let b = a.map(|v| v * 2.0);
        assert_eq!(b.data(), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
        let c = a.zip_map(&b, |x, y| y - x).unwrap();
        assert_eq!(c.data(), a.data());
        let bad = NdArray::matrix(3, 2, vec![0.0; 6]).unwrap();
        assert!(a.zip_map(&bad, |x, _| x).is_err());
    }

    #[test]
    fn reductions() {
        let a = a2x3();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(6.0));
        assert_eq!(a.mean(), Some(3.5));
        let sd = a.std_dev().unwrap();
        assert!((sd - 1.7078).abs() < 1e-3);
    }

    #[test]
    fn reductions_empty() {
        let e = NdArray::zeros(vec![Dim::new("x", 0)]);
        assert_eq!(e.min(), None);
        assert_eq!(e.mean(), None);
    }

    #[test]
    fn tiles_cover_divisible_array() {
        let a = NdArray::matrix(4, 4, (0..16).map(|v| v as f64).collect()).unwrap();
        let tiles = a.tiles(&[2, 2]).unwrap();
        assert_eq!(tiles.len(), 4);
        assert_eq!(tiles[0].0, vec![0, 0]);
        assert_eq!(tiles[0].1.data(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(tiles[3].0, vec![2, 2]);
        assert_eq!(tiles[3].1.data(), &[10.0, 11.0, 14.0, 15.0]);
        // Tiles partition the array: sums agree.
        let total: f64 = tiles.iter().map(|(_, t)| t.sum()).sum();
        assert_eq!(total, a.sum());
    }

    #[test]
    fn tiles_skip_partial_edges() {
        let a = NdArray::matrix(5, 5, vec![1.0; 25]).unwrap();
        let tiles = a.tiles(&[2, 2]).unwrap();
        assert_eq!(tiles.len(), 4); // 2x2 full tiles only
    }

    #[test]
    fn tiles_errors() {
        let a = a2x3();
        assert!(a.tiles(&[2]).is_err());
        assert!(a.tiles(&[0, 1]).is_err());
    }

    #[test]
    fn dim_lookup() {
        let a = a2x3();
        assert_eq!(a.dim_index("x").unwrap(), 1);
        assert_eq!(a.dim_index("Y").unwrap(), 0);
        assert!(a.dim_index("z").is_err());
    }

    #[test]
    fn three_dimensional_roundtrip() {
        let dims = vec![Dim::new("band", 2), Dim::new("y", 3), Dim::new("x", 4)];
        let mut a = NdArray::zeros(dims);
        a.set(&[1, 2, 3], 42.0).unwrap();
        assert_eq!(a.get(&[1, 2, 3]).unwrap(), 42.0);
        assert_eq!(a.get(&[0, 0, 0]).unwrap(), 0.0);
        let s = a.slice(&[(1, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(s.shape(), vec![1, 3, 4]);
        assert_eq!(s.get(&[0, 2, 3]).unwrap(), 42.0);
    }
}
