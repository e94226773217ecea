//! SciQL evaluator against a [`Catalog`].

use crate::ast::*;
use crate::parser::parse;
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::{Catalog, DbError, Result};

/// Result of executing a SciQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SciqlResult {
    /// DDL / UPDATE completed.
    Done,
    /// Scalar reduction result.
    Scalar(f64),
    /// Array-valued result (maps and tiled reductions).
    Array(NdArray),
}

impl SciqlResult {
    /// Unwrap a scalar; errors otherwise.
    pub fn scalar(self) -> Result<f64> {
        match self {
            SciqlResult::Scalar(s) => Ok(s),
            other => Err(DbError::Execution(format!("expected scalar result, got {other:?}"))),
        }
    }

    /// Unwrap an array; errors otherwise.
    pub fn array(self) -> Result<NdArray> {
        match self {
            SciqlResult::Array(a) => Ok(a),
            other => Err(DbError::Execution(format!("expected array result, got {other:?}"))),
        }
    }
}

/// Parse and execute one SciQL statement against the catalog.
pub fn execute(catalog: &Catalog, sciql: &str) -> Result<SciqlResult> {
    execute_stmt(catalog, &parse(sciql)?)
}

/// Execute a parsed statement.
pub fn execute_stmt(catalog: &Catalog, stmt: &SciqlStmt) -> Result<SciqlResult> {
    match stmt {
        SciqlStmt::CreateArray { name, dims, default, .. } => {
            let dims: Vec<Dim> = dims.iter().map(|d| Dim::new(d.name.clone(), d.size)).collect();
            catalog.create_array(name, NdArray::filled(dims, *default))?;
            Ok(SciqlResult::Done)
        }
        SciqlStmt::DropArray { name } => {
            catalog.drop_array(name)?;
            Ok(SciqlResult::Done)
        }
        SciqlStmt::Map { array, slices, expr } => {
            let a = catalog.array(array)?;
            let ranges = resolve_ranges(&a, slices)?;
            Ok(SciqlResult::Array(map_region(&a, &ranges, &Bound::bind(expr, &a))?))
        }
        SciqlStmt::Reduce { array, slices, agg, expr, condition } => {
            let a = catalog.array(array)?;
            let ranges = resolve_ranges(&a, slices)?;
            let expr = Bound::bind(expr, &a);
            match condition {
                None => Ok(SciqlResult::Scalar(reduce(&map_region(&a, &ranges, &expr)?, *agg))),
                Some(cond) => {
                    // Aggregate only the cells satisfying the predicate.
                    let cond = Bound::bind(cond, &a);
                    let mut values = Vec::new();
                    for_each_cell(&a, &ranges, |coord, _, v| {
                        if cond.eval(v, coord)? != 0.0 {
                            values.push(expr.eval(v, coord)?);
                        }
                        Ok(())
                    })?;
                    Ok(SciqlResult::Scalar(reduce_values(&values, *agg)))
                }
            }
        }
        SciqlStmt::TileReduce { array, agg, expr, tile } => {
            let a = catalog.array(array)?;
            if tile.len() != a.ndim() {
                return Err(DbError::ShapeMismatch(format!(
                    "GROUP BY TILES rank {} != array rank {}",
                    tile.len(),
                    a.ndim()
                )));
            }
            let mapped = map_region(&a, &resolve_ranges(&a, &[])?, &Bound::bind(expr, &a))?;
            let tiles = mapped.tiles(tile)?;
            let out_dims: Vec<Dim> = a
                .dims()
                .iter()
                .zip(tile)
                .map(|(d, &t)| Dim::new(d.name.clone(), d.size / t))
                .collect();
            // Tiles come back in the row-major order of the tile grid.
            let cells = tiles.iter().map(|(_, t)| reduce(t, *agg)).collect();
            Ok(SciqlResult::Array(NdArray::from_vec(out_dims, cells)?))
        }
        SciqlStmt::Update { array, slices, expr, condition } => {
            let a = catalog.array(array)?;
            let ranges = resolve_ranges(&a, slices)?;
            let expr = Bound::bind(expr, &a);
            let cond = condition.as_ref().map(|c| Bound::bind(c, &a));
            // `out` shares `a`'s cells until its first write copies them.
            let mut out = a.clone();
            let cells = out.data_mut();
            for_each_cell(&a, &ranges, |coord, at, v| {
                let touch = match &cond {
                    None => true,
                    Some(cond) => cond.eval(v, coord)? != 0.0,
                };
                if touch {
                    cells[at] = expr.eval(v, coord)?;
                }
                Ok(())
            })?;
            catalog.put_array(array, out);
            Ok(SciqlResult::Done)
        }
    }
}

/// Resolve optional slices to concrete ranges (empty list = full array).
fn resolve_ranges(a: &NdArray, slices: &[SliceRange]) -> Result<Vec<(usize, usize)>> {
    if slices.is_empty() {
        return Ok(a.dims().iter().map(|d| (0, d.size)).collect());
    }
    if slices.len() != a.ndim() {
        return Err(DbError::ShapeMismatch(format!(
            "slice rank {} != array rank {}",
            slices.len(),
            a.ndim()
        )));
    }
    Ok(a.dims()
        .iter()
        .zip(slices)
        .map(|(d, s)| match s {
            None => (0, d.size),
            Some((lo, hi)) => (*lo, *hi),
        })
        .collect())
}

/// Visit every cell of the region `ranges` of `a` in row-major order as
/// `visit(source coordinate, offset into a.data(), value)`.
fn for_each_cell(
    a: &NdArray,
    ranges: &[(usize, usize)],
    mut visit: impl FnMut(&[usize], usize, f64) -> Result<()>,
) -> Result<()> {
    let cells = a.data();
    let mut coord = vec![0usize; a.ndim()];
    a.walk_rows(ranges, |start, offset, len| {
        coord.copy_from_slice(start);
        for (at, &v) in (offset..).zip(&cells[offset..offset + len]) {
            visit(&coord, at, v)?;
            if let Some(last) = coord.last_mut() {
                *last += 1;
            }
        }
        Ok(())
    })
}

/// Element-wise evaluation of `expr` over the region `ranges` of `a`;
/// dimension variables are *source* coordinates.
fn map_region(a: &NdArray, ranges: &[(usize, usize)], expr: &Bound) -> Result<NdArray> {
    // The bare cell value is the region itself: all of a stored array
    // is then a reference to it, which `reduce` reads in place.
    let region = a.slice(ranges)?;
    if matches!(expr, Bound::Cell) {
        return Ok(region);
    }
    // Expressions not referencing dimension variables are pure
    // per-cell kernels — run them through the morsel-parallel
    // `NdArray::try_map` (sequential below the cell threshold), so
    // SciQL maps inherit the executor's speedup.
    if !expr.uses_dims() {
        return region.try_map(|cell| expr.eval(cell, &[]));
    }
    let mut cells = Vec::with_capacity(region.len());
    for_each_cell(a, ranges, |coord, _, v| {
        cells.push(expr.eval(v, coord)?);
        Ok(())
    })?;
    NdArray::from_vec(region.dims().to_vec(), cells)
}

/// A cell expression bound to one array: every variable is resolved,
/// once per statement, to the cell value or to a dimension's position.
enum Bound<'e> {
    Number(f64),
    /// The cell value attribute (any non-dimension variable).
    Cell,
    /// The source coordinate along dimension `k`.
    Dim(usize),
    Binary(CellOp, Box<Bound<'e>>, Box<Bound<'e>>),
    Neg(Box<Bound<'e>>),
    Case(Vec<(Bound<'e>, Bound<'e>)>, Option<Box<Bound<'e>>>),
    Func(&'e str, Vec<Bound<'e>>),
}

impl<'e> Bound<'e> {
    fn bind(expr: &'e CellExpr, a: &NdArray) -> Bound<'e> {
        let bind = |e: &'e CellExpr| Bound::bind(e, a);
        match expr {
            CellExpr::Number(n) => Bound::Number(*n),
            CellExpr::Var(name) => a.dim_index(name).map_or(Bound::Cell, Bound::Dim),
            CellExpr::Binary { op, left, right } => {
                Bound::Binary(*op, Box::new(bind(left)), Box::new(bind(right)))
            }
            CellExpr::Neg(e) => Bound::Neg(Box::new(bind(e))),
            CellExpr::Case { arms, otherwise } => Bound::Case(
                arms.iter().map(|(c, r)| (bind(c), bind(r))).collect(),
                otherwise.as_deref().map(|e| Box::new(bind(e))),
            ),
            CellExpr::Func { name, args } => Bound::Func(name, args.iter().map(bind).collect()),
        }
    }

    fn uses_dims(&self) -> bool {
        match self {
            Bound::Number(_) | Bound::Cell => false,
            Bound::Dim(_) => true,
            Bound::Binary(_, left, right) => left.uses_dims() || right.uses_dims(),
            Bound::Neg(e) => e.uses_dims(),
            Bound::Case(arms, otherwise) => {
                arms.iter().any(|(c, r)| c.uses_dims() || r.uses_dims())
                    || otherwise.as_ref().is_some_and(|e| e.uses_dims())
            }
            Bound::Func(_, args) => args.iter().any(Bound::uses_dims),
        }
    }

    /// Evaluate for one cell: `v` is its value, `coord` its source
    /// coordinate (unread, so may be empty, unless [`Self::uses_dims`]).
    fn eval(&self, v: f64, coord: &[usize]) -> Result<f64> {
        Ok(match self {
            Bound::Number(n) => *n,
            Bound::Cell => v,
            Bound::Dim(k) => coord[*k] as f64,
            Bound::Binary(op, left, right) => {
                let l = left.eval(v, coord)?;
                let r = right.eval(v, coord)?;
                match op {
                    CellOp::Add => l + r,
                    CellOp::Sub => l - r,
                    CellOp::Mul => l * r,
                    CellOp::Div => l / r,
                    CellOp::Mod => l % r,
                    CellOp::Eq => bool_to_f64(l == r),
                    CellOp::Ne => bool_to_f64(l != r),
                    CellOp::Lt => bool_to_f64(l < r),
                    CellOp::Le => bool_to_f64(l <= r),
                    CellOp::Gt => bool_to_f64(l > r),
                    CellOp::Ge => bool_to_f64(l >= r),
                    CellOp::And => bool_to_f64(l != 0.0 && r != 0.0),
                    CellOp::Or => bool_to_f64(l != 0.0 || r != 0.0),
                }
            }
            Bound::Neg(e) => -e.eval(v, coord)?,
            Bound::Case(arms, otherwise) => {
                for (cond, result) in arms {
                    if cond.eval(v, coord)? != 0.0 {
                        return result.eval(v, coord);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(v, coord)?,
                    None => 0.0,
                }
            }
            Bound::Func(name, args) => call(name, args, v, coord)?,
        })
    }
}

/// Apply the math function `name` to `args` evaluated for one cell.
/// Kept out of [`Bound::eval`] so the arithmetic arms stay a small
/// loop body (inlined there, E6's function-free classify ran ≈ 13 %
/// slower on five of five interleaved runs).
fn call(name: &str, args: &[Bound], v: f64, coord: &[usize]) -> Result<f64> {
    // No function takes more than two arguments; the rest are still
    // evaluated so their errors surface first.
    let mut vals = [0.0f64; 2];
    for (i, arg) in args.iter().enumerate() {
        let x = arg.eval(v, coord)?;
        if let Some(slot) = vals.get_mut(i) {
            *slot = x;
        }
    }
    let (arity, f): (usize, fn(f64, f64) -> f64) = match name {
        "ABS" => (1, |x, _| x.abs()),
        "SQRT" => (1, |x, _| x.sqrt()),
        "EXP" => (1, |x, _| x.exp()),
        "LN" => (1, |x, _| x.ln()),
        "LOG10" => (1, |x, _| x.log10()),
        "FLOOR" => (1, |x, _| x.floor()),
        "CEIL" => (1, |x, _| x.ceil()),
        "MIN" => (2, f64::min),
        "MAX" => (2, f64::max),
        "POW" => (2, f64::powf),
        other => return Err(DbError::Execution(format!("unknown function: {other}"))),
    };
    if args.len() != arity {
        return Err(DbError::Execution(format!(
            "{name} expects {arity} argument(s), got {}",
            args.len()
        )));
    }
    Ok(f(vals[0], vals[1]))
}

#[inline]
fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Reduce a flat value list (the WHERE-filtered aggregate path).
fn reduce_values(vals: &[f64], agg: CellAgg) -> f64 {
    match agg {
        CellAgg::Sum => vals.iter().sum(),
        CellAgg::Count => vals.len() as f64,
        CellAgg::Avg => {
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        }
        CellAgg::Min => vals.iter().copied().fold(f64::NAN, |a, b| if a.is_nan() { b } else { a.min(b) }),
        CellAgg::Max => vals.iter().copied().fold(f64::NAN, |a, b| if a.is_nan() { b } else { a.max(b) }),
        CellAgg::StdDev => {
            if vals.is_empty() {
                return f64::NAN;
            }
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt()
        }
    }
}

fn reduce(a: &NdArray, agg: CellAgg) -> f64 {
    match agg {
        CellAgg::Sum => a.sum(),
        CellAgg::Avg => a.mean().unwrap_or(f64::NAN),
        CellAgg::Min => a.min().unwrap_or(f64::NAN),
        CellAgg::Max => a.max().unwrap_or(f64::NAN),
        CellAgg::Count => a.len() as f64,
        CellAgg::StdDev => a.std_dev().unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Catalog {
        let cat = Catalog::new();
        // 4x4 ramp 0..16.
        let a = NdArray::matrix(4, 4, (0..16).map(|v| v as f64).collect()).unwrap();
        cat.create_array("img", a).unwrap();
        cat
    }

    #[test]
    fn create_and_reduce() {
        let cat = Catalog::new();
        execute(
            &cat,
            "CREATE ARRAY a (y INT DIMENSION [3], x INT DIMENSION [3], v DOUBLE DEFAULT 2)",
        )
        .unwrap();
        assert_eq!(execute(&cat, "SELECT SUM(v) FROM a").unwrap(), SciqlResult::Scalar(18.0));
        assert_eq!(execute(&cat, "SELECT COUNT(*) FROM a").unwrap(), SciqlResult::Scalar(9.0));
    }

    #[test]
    fn map_scales_values() {
        let cat = setup();
        let r = execute(&cat, "SELECT v * 2 FROM img").unwrap().array().unwrap();
        assert_eq!(r.get(&[1, 1]).unwrap(), 10.0);
        assert_eq!(r.shape(), vec![4, 4]);
    }

    #[test]
    fn map_does_not_mutate_source() {
        let cat = setup();
        execute(&cat, "SELECT v * 2 FROM img").unwrap();
        assert_eq!(cat.array("img").unwrap().get(&[1, 1]).unwrap(), 5.0);
    }

    #[test]
    fn slicing_crops() {
        let cat = setup();
        let r = execute(&cat, "SELECT v FROM img[1..3, 1..3]").unwrap().array().unwrap();
        assert_eq!(r.shape(), vec![2, 2]);
        assert_eq!(r.data(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn star_slice_keeps_dimension() {
        let cat = setup();
        let r = execute(&cat, "SELECT v FROM img[*, 0..1]").unwrap().array().unwrap();
        assert_eq!(r.shape(), vec![4, 1]);
        assert_eq!(r.data(), &[0.0, 4.0, 8.0, 12.0]);
    }

    #[test]
    fn reduce_over_slice() {
        let cat = setup();
        let s = execute(&cat, "SELECT AVG(v) FROM img[0..2, 0..2]").unwrap().scalar().unwrap();
        assert_eq!(s, (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        let m = execute(&cat, "SELECT MAX(v) FROM img").unwrap().scalar().unwrap();
        assert_eq!(m, 15.0);
    }

    #[test]
    fn dimension_variables_in_expressions() {
        let cat = setup();
        // v = y * 4 + x on the ramp; so v - y*4 - x == 0 everywhere.
        let s = execute(&cat, "SELECT SUM(ABS(v - y * 4 - x)) FROM img")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn dimension_variables_respect_slice_origin() {
        let cat = setup();
        // Within the slice starting at (1,1), y/x are source coordinates.
        let s = execute(&cat, "SELECT SUM(ABS(v - y * 4 - x)) FROM img[1..4, 1..4]")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn tile_reduce_downsamples() {
        let cat = setup();
        let r = execute(&cat, "SELECT AVG(v) FROM img GROUP BY TILES [2, 2]")
            .unwrap()
            .array()
            .unwrap();
        assert_eq!(r.shape(), vec![2, 2]);
        assert_eq!(r.get(&[0, 0]).unwrap(), 2.5);
        assert_eq!(r.get(&[1, 1]).unwrap(), 12.5);
    }

    #[test]
    fn tile_reduce_matches_ops_baseline() {
        let cat = setup();
        let via_sciql = execute(&cat, "SELECT AVG(v) FROM img GROUP BY TILES [2, 2]")
            .unwrap()
            .array()
            .unwrap();
        let via_ops = crate::ops::tile_mean(&cat.array("img").unwrap(), 2).unwrap();
        assert_eq!(via_sciql, via_ops);
    }

    #[test]
    fn update_classifies_in_place() {
        let cat = setup();
        execute(&cat, "UPDATE img SET v = CASE WHEN v > 7 THEN 1 ELSE 0 END").unwrap();
        let a = cat.array("img").unwrap();
        assert_eq!(a.sum(), 8.0); // values 8..15
        assert_eq!(a.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(a.get(&[3, 3]).unwrap(), 1.0);
    }

    #[test]
    fn update_slice_only() {
        let cat = setup();
        execute(&cat, "UPDATE img[0..1, *] SET v = 100").unwrap();
        let a = cat.array("img").unwrap();
        assert_eq!(a.get(&[0, 2]).unwrap(), 100.0);
        assert_eq!(a.get(&[1, 2]).unwrap(), 6.0);
    }

    #[test]
    fn update_matches_ops_classify() {
        let cat = setup();
        let expected = crate::ops::classify_threshold(&cat.array("img").unwrap(), 7.0);
        execute(&cat, "UPDATE img SET v = CASE WHEN v > 7 THEN 1 ELSE 0 END").unwrap();
        assert_eq!(cat.array("img").unwrap(), expected);
    }

    #[test]
    fn drop_array_removes() {
        let cat = setup();
        execute(&cat, "DROP ARRAY img").unwrap();
        assert!(execute(&cat, "SELECT SUM(v) FROM img").is_err());
    }

    #[test]
    fn errors_propagate() {
        let cat = setup();
        assert!(execute(&cat, "SELECT v FROM missing").is_err());
        assert!(execute(&cat, "SELECT v FROM img[0..9, 0..9]").is_err()); // out of bounds
        assert!(execute(&cat, "SELECT NOPE(v) FROM img").is_err());
        assert!(execute(&cat, "SELECT MAX(v, 1, 2) FROM img").is_err());
    }

    #[test]
    fn stddev_reduction() {
        let cat = Catalog::new();
        let a = NdArray::matrix(1, 4, vec![2.0, 4.0, 4.0, 6.0]).unwrap();
        cat.create_array("s", a).unwrap();
        let sd = execute(&cat, "SELECT STDDEV(v) FROM s").unwrap().scalar().unwrap();
        assert!((sd - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reduce_with_where_filters_cells() {
        let cat = setup();
        // Mean of cells above 7 on the 0..16 ramp: (8..=15) avg = 11.5.
        let s = execute(&cat, "SELECT AVG(v) FROM img WHERE v > 7").unwrap().scalar().unwrap();
        assert_eq!(s, 11.5);
        let n = execute(&cat, "SELECT COUNT(*) FROM img WHERE v > 7").unwrap().scalar().unwrap();
        assert_eq!(n, 8.0);
        // WHERE with dimension variables.
        let left = execute(&cat, "SELECT SUM(v) FROM img WHERE x < 2").unwrap().scalar().unwrap();
        assert_eq!(left, (1 + 4 + 5 + 8 + 9 + 12 + 13) as f64);
    }

    #[test]
    fn reduce_with_where_empty_match() {
        let cat = setup();
        let s = execute(&cat, "SELECT SUM(v) FROM img WHERE v > 1000").unwrap().scalar().unwrap();
        assert_eq!(s, 0.0);
        let avg = execute(&cat, "SELECT AVG(v) FROM img WHERE v > 1000").unwrap().scalar().unwrap();
        assert!(avg.is_nan());
    }

    #[test]
    fn update_with_where_touches_matching_only() {
        let cat = setup();
        execute(&cat, "UPDATE img SET v = 0 WHERE v > 7").unwrap();
        let a = cat.array("img").unwrap();
        assert_eq!(a.sum(), (0..8).sum::<usize>() as f64);
        assert_eq!(a.get(&[0, 3]).unwrap(), 3.0); // untouched
        assert_eq!(a.get(&[3, 3]).unwrap(), 0.0); // zeroed
    }

    #[test]
    fn update_where_equivalent_to_case() {
        let cat = setup();
        let cat2 = setup();
        execute(&cat, "UPDATE img SET v = 1 WHERE v > 7").unwrap();
        execute(&cat2, "UPDATE img SET v = CASE WHEN v > 7 THEN 1 ELSE v END").unwrap();
        assert_eq!(cat.array("img").unwrap(), cat2.array("img").unwrap());
    }

    #[test]
    fn where_with_tiles_rejected() {
        let cat = setup();
        assert!(execute(&cat, "SELECT AVG(v) FROM img WHERE v > 1 GROUP BY TILES [2, 2]").is_err());
    }

    #[test]
    fn logic_operators() {
        let cat = setup();
        let s = execute(&cat, "SELECT SUM(CASE WHEN v > 3 AND v < 8 THEN 1 ELSE 0 END) FROM img")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(s, 4.0); // 4,5,6,7
    }
}
