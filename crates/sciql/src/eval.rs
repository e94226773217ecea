//! SciQL evaluator against a [`Catalog`].

use crate::ast::*;
use crate::parser::parse;
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::column::Column;
use teleios_monet::exec::{eval, scalar_function, select, Chunk};
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
            Ok(SciqlResult::Array(map_region(&a, &resolve_ranges(&a, slices)?, expr, None)?))
        }
        SciqlStmt::Reduce { array, slices, agg, expr, condition } => {
            let a = catalog.array(array)?;
            let values = map_region(&a, &resolve_ranges(&a, slices)?, expr, condition.as_ref())?;
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
            let mapped = map_region(&a, &resolve_ranges(&a, &[])?, expr, None)?;
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
            // `SET v = e WHERE c` is `SET v = CASE WHEN c THEN e ELSE v END`.
            let expr = match condition {
                None => expr.clone(),
                Some(c) => case(c.clone(), expr.clone(), Expr::Column(CELL.into())),
            };
            let region = map_region(&a, &ranges, &expr, None)?;
            // `out` shares `a`'s cells until this first write copies them.
            let mut out = a.clone();
            let (cells, mut next) = (out.data_mut(), 0);
            a.walk_rows(&ranges, |_, offset, len| {
                cells[offset..offset + len].copy_from_slice(&region.data()[next..next + len]);
                next += len;
                Ok(())
            })?;
            catalog.put_array(array, out);
            Ok(SciqlResult::Done)
        }
    }
}

/// Resolve optional slices to concrete ranges (empty list = full array).
fn resolve_ranges(a: &NdArray, slices: &[SliceRange]) -> Result<Vec<(usize, usize)>> {
    if !slices.is_empty() && slices.len() != a.ndim() {
        let (got, rank) = (slices.len(), a.ndim());
        return Err(DbError::ShapeMismatch(format!("slice rank {got} != array rank {rank}")));
    }
    let range = |(k, d): (usize, &Dim)| slices.get(k).copied().flatten().unwrap_or((0, d.size));
    Ok(a.dims().iter().enumerate().map(range).collect())
}

/// `expr` on every cell of the region `ranges` of `a`, as an array of
/// the region's shape — or, given a `condition`, on the cells it holds
/// for, in row-major order; dimension variables are *source*
/// coordinates.
fn map_region(
    a: &NdArray,
    ranges: &[(usize, usize)],
    expr: &Expr,
    condition: Option<&Expr>,
) -> Result<NdArray> {
    let mut binder = Binder { array: a, dims: vec![false; a.ndim()] };
    let (bound, cond) = (binder.value(expr)?, condition.map(|c| binder.cond(c)).transpose()?);
    // The bare cell value is the region itself: all of a stored array
    // is then a reference to it, which `reduce` reads in place.
    if cond.is_none() && bound == Expr::Column(CELL.into()) {
        return a.slice(ranges);
    }
    let chunk = binder.chunk(ranges)?;
    let rows = cond.map(|c| select(&chunk, None, &c)).transpose()?;
    // Every leaf of a bound expression is a DOUBLE, and none is NULL.
    let column = eval(&chunk, rows.as_deref(), &bound)?;
    let cells =
        column.into_doubles().ok_or_else(|| DbError::Execution("cells are numbers".into()))?;
    let dims = match rows {
        Some(rows) => vec![Dim::new("cell", rows.len())],
        None => a
            .dims()
            .iter()
            .zip(ranges)
            .map(|(d, (lo, hi))| Dim::new(d.name.clone(), hi - lo))
            .collect(),
    };
    NdArray::from_vec(dims, cells)
}

/// The column of a region's chunk that holds the cell value `v`;
/// dimension `k`'s coordinates are the column named `k`.
const CELL: &str = "v";

/// Lowers SciQL cell expressions, once per statement, onto SQL's
/// expressions over a region's chunk — the cell value and each
/// dimension a DOUBLE column — which monet's evaluator runs a column
/// at a time. SciQL's rules are rewrites here: every number is a
/// DOUBLE, a comparison or logic operator is 1.0 or 0.0, any non-zero
/// value (NaN too) is true, and a missing ELSE is 0.0. Only `v` and
/// the dimensions name cells, and a form only SQL has is an error.
struct Binder<'a> {
    array: &'a NdArray,
    /// The dimensions the bound expressions read.
    dims: Vec<bool>,
}

impl Binder<'_> {
    /// `e` as a DOUBLE-valued expression.
    fn value(&mut self, e: &Expr) -> Result<Expr> {
        let number = |x: f64| Expr::Literal(Value::Double(x));
        Ok(match e {
            Expr::Literal(Value::Int(i)) => number(*i as f64),
            Expr::Literal(Value::Double(d)) => number(*d),
            Expr::Column(name) => match self.array.dim_index(name) {
                Ok(k) => {
                    self.dims[k] = true;
                    Expr::Column(k.to_string())
                }
                Err(_) if name.eq_ignore_ascii_case(CELL) => Expr::Column(CELL.into()),
                Err(_) if name.contains('.') => return Err(sql_only("qualified names")),
                Err(_) => return Err(DbError::UnknownColumn(name.clone())),
            },
            Expr::Binary {
                op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod),
                left,
                right,
            } => Expr::binary(*op, self.value(left)?, self.value(right)?),
            Expr::Binary { .. } => case(self.cond(e)?, number(1.0), number(0.0)),
            Expr::Neg(x) => Expr::Neg(Box::new(self.value(x)?)),
            Expr::Case { arms, otherwise } => Expr::Case {
                arms: arms
                    .iter()
                    .map(|(c, r)| Ok((self.cond(c)?, self.value(r)?)))
                    .collect::<Result<_>>()?,
                otherwise: Some(Box::new(
                    otherwise.as_deref().map_or(Ok(number(0.0)), |o| self.value(o))?,
                )),
            },
            Expr::Func { name, args } => {
                scalar_function(name, args.len())?;
                let args = args.iter().map(|a| self.value(a)).collect::<Result<_>>()?;
                Expr::Func { name: name.clone(), args }
            }
            Expr::Literal(Value::Str(_)) => return Err(sql_only("string literals")),
            Expr::Literal(Value::Null) => return Err(sql_only("NULL")),
            Expr::Literal(Value::Bool(_)) => return Err(sql_only("TRUE and FALSE")),
            Expr::Not(_) => return Err(sql_only("NOT")),
            Expr::IsNull { .. } => return Err(sql_only("IS NULL")),
            Expr::Like { .. } => return Err(sql_only("LIKE")),
        })
    }

    /// `e` as a predicate, TRUE where SciQL reads it as true. A NaN
    /// compares unknown, which AND, OR, CASE and WHERE all read as
    /// false, as SciQL does — except under `<>`, true on a NaN.
    fn cond(&mut self, e: &Expr) -> Result<Expr> {
        let truth = |b: bool| Expr::Literal(Value::Bool(b));
        Ok(match e {
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), left, right } => {
                Expr::binary(*op, self.cond(left)?, self.cond(right)?)
            }
            Expr::Binary {
                op: op @ (BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                left,
                right,
            } => Expr::binary(*op, self.value(left)?, self.value(right)?),
            // `l <> r` is false only where `l = r`; any other value only
            // where it is zero.
            other => {
                let (l, r) = match other {
                    Expr::Binary { op: BinOp::Ne, left, right } => (&**left, &**right),
                    _ => (other, &Expr::Literal(Value::Double(0.0))),
                };
                let equal = Expr::binary(BinOp::Eq, self.value(l)?, self.value(r)?);
                case(equal, truth(false), truth(true))
            }
        })
    }

    /// The cells of the region `ranges` as a chunk, in row-major order:
    /// the column `v`, and the coordinates of each dimension bound.
    fn chunk(&self, ranges: &[(usize, usize)]) -> Result<Chunk> {
        let used: Vec<usize> = (0..self.dims.len()).filter(|&k| self.dims[k]).collect();
        let (mut cells, mut coords) = (Vec::new(), vec![Vec::new(); used.len()]);
        let data = self.array.data();
        self.array.walk_rows(ranges, |start, offset, len| {
            cells.extend_from_slice(&data[offset..offset + len]);
            for (&k, coord) in used.iter().zip(&mut coords) {
                if k + 1 == start.len() {
                    coord.extend((start[k]..start[k] + len).map(|x| x as f64));
                } else {
                    coord.extend(std::iter::repeat_n(start[k] as f64, len));
                }
            }
            Ok(())
        })?;
        let names = std::iter::once(CELL.to_string()).chain(used.iter().map(usize::to_string));
        let columns = std::iter::once(cells).chain(coords).map(Column::from_doubles);
        Ok(Chunk::new(names.collect(), columns.collect()))
    }
}

/// `CASE WHEN when THEN then ELSE otherwise END`.
fn case(when: Expr, then: Expr, otherwise: Expr) -> Expr {
    Expr::Case { arms: vec![(when, then)], otherwise: Some(Box::new(otherwise)) }
}

/// The error for an expression form SQL has and SciQL does not.
fn sql_only(construct: &str) -> DbError {
    DbError::Execution(format!("SciQL cell expressions have no {construct}"))
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
        // BETWEEN and IN are SQL's comparisons joined by AND and OR.
        for (form, expansion) in [
            ("v BETWEEN 3 AND 7 + x", "v >= 3 AND v <= 7 + x"),
            ("v IN (1, y, 2)", "v = 1 OR v = y OR v = 2"),
        ] {
            let sum = |e: &str| execute(&cat, &format!("SELECT SUM({e}) FROM img")).unwrap();
            assert_eq!(sum(form), sum(expansion), "{form}");
            assert_ne!(sum(form), SciqlResult::Scalar(0.0), "{form}");
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
