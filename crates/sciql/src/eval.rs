//! SciQL evaluator against a [`Catalog`].

use crate::ast::*;
use crate::parser::parse;
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::sql::ast::{AggFunc, BinOp, Expr};
use teleios_monet::{Catalog, DbError, Result, Value};

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
    match &parse(sciql)? {
        SciqlStmt::CreateArray { name, dims, default } => {
            catalog.create_array(name, NdArray::filled(dims.clone(), *default))?;
            Ok(SciqlResult::Done)
        }
        SciqlStmt::DropArray { name } => {
            catalog.drop_array(name)?;
            Ok(SciqlResult::Done)
        }
        SciqlStmt::Map { array, slices, expr } => {
            let a = catalog.array(array)?;
            let ranges = resolve_ranges(&a, slices)?;
            Ok(SciqlResult::Array(map_region(&a, &ranges, &Bound::bind(expr, &a)?)?))
        }
        SciqlStmt::Reduce { array, slices, agg, expr, condition } => {
            let a = catalog.array(array)?;
            let ranges = resolve_ranges(&a, slices)?;
            let expr = Bound::bind(expr, &a)?;
            let values = match condition {
                None => map_region(&a, &ranges, &expr)?,
                Some(cond) => {
                    // The values of the cells satisfying the predicate,
                    // reduced like any other array.
                    let cond = Bound::bind(cond, &a)?;
                    let mut kept = Vec::new();
                    for_each_cell(&a, &ranges, |coord, _, v| {
                        if cond.eval(v, coord) != 0.0 {
                            kept.push(expr.eval(v, coord));
                        }
                    })?;
                    NdArray::from_vec(vec![Dim::new("cell", kept.len())], kept)?
                }
            };
            Ok(SciqlResult::Scalar(reduce(&values, *agg)))
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
            let mapped = map_region(&a, &resolve_ranges(&a, &[])?, &Bound::bind(expr, &a)?)?;
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
            let expr = Bound::bind(expr, &a)?;
            let cond = condition.as_ref().map(|c| Bound::bind(c, &a)).transpose()?;
            // `out` shares `a`'s cells until its first write copies them.
            let mut out = a.clone();
            let cells = out.data_mut();
            for_each_cell(&a, &ranges, |coord, at, v| {
                if cond.as_ref().is_none_or(|c| c.eval(v, coord) != 0.0) {
                    cells[at] = expr.eval(v, coord);
                }
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
    mut visit: impl FnMut(&[usize], usize, f64),
) -> Result<()> {
    let cells = a.data();
    let mut coord = vec![0usize; a.ndim()];
    a.walk_rows(ranges, |start, offset, len| {
        coord.copy_from_slice(start);
        for (at, &v) in (offset..).zip(&cells[offset..offset + len]) {
            visit(&coord, at, v);
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
    let mut cells = Vec::with_capacity(region.len());
    for_each_cell(a, ranges, |coord, _, v| cells.push(expr.eval(v, coord)))?;
    NdArray::from_vec(region.dims().to_vec(), cells)
}

/// A cell expression bound to one array: every name is resolved, once
/// per statement, to the cell value, a dimension's position or a math
/// function, so evaluating a cell cannot fail.
enum Bound {
    Number(f64),
    /// The cell value attribute `v`.
    Cell,
    /// The source coordinate along dimension `k`.
    Dim(usize),
    /// Arithmetic, or a comparison or logic operator yielding 1.0 / 0.0
    /// (a non-zero operand is true).
    Binary(BinOp, Box<Bound>, Box<Bound>),
    Neg(Box<Bound>),
    /// The first arm whose condition is non-zero; a missing ELSE is 0.0.
    Case(Vec<(Bound, Bound)>, Option<Box<Bound>>),
    /// A math function of one or two arguments (a unary one ignores
    /// its second operand).
    Func(fn(f64, f64) -> f64, Vec<Bound>),
}

impl Bound {
    /// Lower a parsed expression against `a`. Only `v` names the cell,
    /// an unknown function or a wrong argument count is an error here,
    /// and so is every form SQL has and SciQL does not.
    fn bind(expr: &Expr, a: &NdArray) -> Result<Bound> {
        let bind = |e: &Expr| Bound::bind(e, a);
        let boxed = |e: &Expr| bind(e).map(Box::new);
        Ok(match expr {
            Expr::Literal(Value::Int(i)) => Bound::Number(*i as f64),
            Expr::Literal(Value::Double(d)) => Bound::Number(*d),
            Expr::Column(name) => match a.dim_index(name) {
                Ok(k) => Bound::Dim(k),
                Err(_) if name.eq_ignore_ascii_case("v") => Bound::Cell,
                Err(_) if name.contains('.') => return Err(sql_only("qualified names")),
                Err(_) => return Err(DbError::UnknownColumn(name.clone())),
            },
            Expr::Binary { op, left, right } => Bound::Binary(*op, boxed(left)?, boxed(right)?),
            Expr::Neg(e) => Bound::Neg(boxed(e)?),
            Expr::Case { arms, otherwise } => Bound::Case(
                arms.iter().map(|(c, r)| Ok((bind(c)?, bind(r)?))).collect::<Result<_>>()?,
                otherwise.as_deref().map(boxed).transpose()?,
            ),
            Expr::Func { name, args } => {
                let (arity, f): (usize, fn(f64, f64) -> f64) = match name.as_str() {
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
                Bound::Func(f, args.iter().map(bind).collect::<Result<_>>()?)
            }
            Expr::Literal(Value::Str(_)) => return Err(sql_only("string literals")),
            Expr::Literal(Value::Null) => return Err(sql_only("NULL")),
            Expr::Literal(Value::Bool(_)) => return Err(sql_only("TRUE and FALSE")),
            Expr::Not(_) => return Err(sql_only("NOT")),
            Expr::IsNull { .. } => return Err(sql_only("IS NULL")),
            Expr::Between { .. } => return Err(sql_only("BETWEEN")),
            Expr::InList { .. } => return Err(sql_only("IN")),
            Expr::Like { .. } => return Err(sql_only("LIKE")),
        })
    }

    /// Evaluate for one cell: `v` is its value, `coord` its source
    /// coordinate.
    fn eval(&self, v: f64, coord: &[usize]) -> f64 {
        match self {
            Bound::Number(n) => *n,
            Bound::Cell => v,
            Bound::Dim(k) => coord[*k] as f64,
            Bound::Binary(op, left, right) => {
                let l = left.eval(v, coord);
                let r = right.eval(v, coord);
                match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                    BinOp::Mod => l % r,
                    BinOp::Eq => bool_to_f64(l == r),
                    BinOp::Ne => bool_to_f64(l != r),
                    BinOp::Lt => bool_to_f64(l < r),
                    BinOp::Le => bool_to_f64(l <= r),
                    BinOp::Gt => bool_to_f64(l > r),
                    BinOp::Ge => bool_to_f64(l >= r),
                    BinOp::And => bool_to_f64(l != 0.0 && r != 0.0),
                    BinOp::Or => bool_to_f64(l != 0.0 || r != 0.0),
                }
            }
            Bound::Neg(e) => -e.eval(v, coord),
            Bound::Case(arms, otherwise) => {
                for (cond, result) in arms {
                    if cond.eval(v, coord) != 0.0 {
                        return result.eval(v, coord);
                    }
                }
                otherwise.as_ref().map_or(0.0, |e| e.eval(v, coord))
            }
            Bound::Func(f, args) => call(*f, args, v, coord),
        }
    }
}

/// Apply `f` to `args` evaluated for one cell. Kept out of
/// [`Bound::eval`] so the arithmetic arms stay a small loop body
/// (inlined there, E6's function-free classify ran ≈ 13 % slower on
/// five of five interleaved runs).
fn call(f: fn(f64, f64) -> f64, args: &[Bound], v: f64, coord: &[usize]) -> f64 {
    let arg = |i: usize| args.get(i).map_or(0.0, |a| a.eval(v, coord));
    f(arg(0), arg(1))
}

/// The error for an expression form SQL has and SciQL does not.
fn sql_only(construct: &str) -> DbError {
    DbError::Execution(format!("SciQL cell expressions have no {construct}"))
}

#[inline]
fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Reduce every cell of `a` with `agg`; an empty array's AVG, MIN, MAX
/// and STDDEV are NaN.
fn reduce(a: &NdArray, agg: AggFunc) -> f64 {
    match agg {
        AggFunc::Sum => a.sum(),
        AggFunc::Avg => a.mean().unwrap_or(f64::NAN),
        AggFunc::Min => a.min().unwrap_or(f64::NAN),
        AggFunc::Max => a.max().unwrap_or(f64::NAN),
        AggFunc::Count => a.len() as f64,
        AggFunc::StdDev => a.std_dev().unwrap_or(f64::NAN),
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
        let s = execute(&cat, "SELECT SUM(ABS(v - y * 4 - x)) FROM img").unwrap().scalar().unwrap();
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
        let r =
            execute(&cat, "SELECT AVG(v) FROM img GROUP BY TILES [2, 2]").unwrap().array().unwrap();
        assert_eq!(r.shape(), vec![2, 2]);
        assert_eq!(r.get(&[0, 0]).unwrap(), 2.5);
        assert_eq!(r.get(&[1, 1]).unwrap(), 12.5);
    }

    #[test]
    fn tile_reduce_matches_ops_baseline() {
        let cat = setup();
        let via_sciql =
            execute(&cat, "SELECT AVG(v) FROM img GROUP BY TILES [2, 2]").unwrap().array().unwrap();
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

    /// A WHERE that keeps every cell reduces the same cells, in the same
    /// order and the same chunks, as no WHERE at all: every aggregate
    /// agrees bit for bit, past the 65 536-cell chunk too.
    #[test]
    fn filtered_reduction_rounds_as_the_unfiltered_one() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let cells = (0..300 * 300)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 100_000) as f64 / 7.0
            })
            .collect();
        let cat = Catalog::new();
        cat.create_array("a", NdArray::matrix(300, 300, cells).unwrap()).unwrap();
        for agg in ["SUM", "AVG", "MIN", "MAX", "COUNT", "STDDEV"] {
            let all = execute(&cat, &format!("SELECT {agg}(v) FROM a")).unwrap().scalar().unwrap();
            let kept = execute(&cat, &format!("SELECT {agg}(v) FROM a WHERE 1 = 1"))
                .unwrap()
                .scalar()
                .unwrap();
            assert_eq!(kept.to_bits(), all.to_bits(), "{agg}: {kept} filtered, {all} not");
        }
    }

    #[test]
    fn only_v_and_the_dimensions_name_cells() {
        let cat = setup();
        for (q, name) in [
            ("SELECT SUM(w) FROM img", "w"),
            ("UPDATE img SET v = w", "w"),
            ("SELECT COUNT(*) FROM img WHERE z > 1", "z"),
        ] {
            assert_eq!(execute(&cat, q), Err(DbError::UnknownColumn(name.into())), "{q}");
        }
        // Names match in any case, as SQL's do.
        assert_eq!(
            execute(&cat, "SELECT SUM(V + Y) FROM img").unwrap().scalar().unwrap(),
            120.0 + 24.0
        );
        assert!(execute(&cat, "SELECT SUM(NOT) FROM img").is_err());
    }

    #[test]
    fn sql_only_forms_are_errors_that_name_them() {
        let cat = setup();
        for (form, named) in [
            ("'x'", "string literals"),
            ("NULL", "NULL"),
            ("TRUE", "TRUE and FALSE"),
            ("NOT v > 1", "NOT"),
            ("v IS NULL", "IS NULL"),
            ("v BETWEEN 1 AND 2", "BETWEEN"),
            ("v IN (1, 2)", "IN"),
            ("v LIKE 'x'", "LIKE"),
            ("img.v", "qualified names"),
        ] {
            let got = execute(&cat, &format!("SELECT SUM({form}) FROM img"));
            assert_eq!(
                got,
                Err(DbError::Execution(format!("SciQL cell expressions have no {named}"))),
                "{form}"
            );
        }
    }

    #[test]
    fn functions_are_resolved_before_any_cell_is_read() {
        let cat = setup();
        for region in ["img[0..0, *]", "img"] {
            let got = execute(&cat, &format!("SELECT SUM(FOO(v)) FROM {region}"));
            assert_eq!(got, Err(DbError::Execution("unknown function: FOO".into())), "{region}");
            let got = execute(&cat, &format!("SELECT SUM(POW(v)) FROM {region}"));
            assert_eq!(
                got,
                Err(DbError::Execution("POW expects 2 argument(s), got 1".into())),
                "{region}"
            );
        }
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
