//! SciQL parser, on the `teleios-monet` SQL lexer and token cursor.
//! The statements are SciQL's; every cell expression is one
//! `Cursor::expr`, SQL's expression grammar.

use crate::ast::*;
use teleios_monet::array::Dim;
use teleios_monet::sql::ast::Expr;
use teleios_monet::sql::lexer::{Cursor, Symbol, TokenKind};
use teleios_monet::{Result, Value};

/// Parse one SciQL statement.
///
/// Canonical SciQL writes dimension extents, slices and tile shapes in
/// square brackets (`DIMENSION [512]`, `img[0..10, *]`, `TILES [16, 16]`);
/// parentheses are accepted in their place.
pub fn parse(input: &str) -> Result<SciqlStmt> {
    let mut c = Cursor::new(input)?;
    let stmt = statement(&mut c)?;
    c.accept_symbol(Symbol::Semicolon);
    c.expect_eof()?;
    Ok(stmt)
}

fn statement(c: &mut Cursor) -> Result<SciqlStmt> {
    if c.accept_kw("CREATE") {
        c.expect_kw("ARRAY")?;
        let name = c.ident()?;
        c.expect_symbol(Symbol::LParen)?;
        let mut dims = Vec::new();
        let mut default = 0.0;
        loop {
            let attr = c.ident()?;
            let _ty = c.ident()?; // INT / DOUBLE / FLOAT ...: storage is always f64
            if c.accept_kw("DIMENSION") {
                let close = open(c).ok_or_else(|| c.err("expected [extent] after DIMENSION"))?;
                let size = c.usize_lit()?;
                c.expect_symbol(close)?;
                dims.push(Dim::new(attr, size));
            } else {
                if !attr.eq_ignore_ascii_case("v") {
                    return Err(c.err(format!("the value attribute is v, not {attr}")));
                }
                if c.accept_kw("DEFAULT") {
                    default = number(c)?;
                }
            }
            if !c.accept_symbol(Symbol::Comma) {
                break;
            }
        }
        c.expect_symbol(Symbol::RParen)?;
        if dims.is_empty() {
            return Err(c.err("array needs at least one DIMENSION attribute"));
        }
        return Ok(SciqlStmt::CreateArray { name, dims, default });
    }
    if c.accept_kw("DROP") {
        c.expect_kw("ARRAY")?;
        let name = c.ident()?;
        return Ok(SciqlStmt::DropArray { name });
    }
    if c.accept_kw("UPDATE") {
        let array = c.ident()?;
        let slices = optional_slices(c)?;
        c.expect_kw("SET")?;
        c.expect_kw("v")?;
        c.expect_symbol(Symbol::Eq)?;
        let expr = c.expr()?;
        let condition = if c.accept_kw("WHERE") { Some(c.expr()?) } else { None };
        return Ok(SciqlStmt::Update { array, slices, expr, condition });
    }
    if !c.accept_kw("SELECT") {
        return Err(c.err("expected CREATE, DROP, SELECT or UPDATE"));
    }
    let Some((agg, arg)) = c.aggregate()? else {
        let expr = c.expr()?;
        c.expect_kw("FROM")?;
        let array = c.ident()?;
        let slices = optional_slices(c)?;
        return Ok(SciqlStmt::Map { array, slices, expr });
    };
    // `*` reduces the constant 1: `COUNT(*)` counts every cell.
    let expr = arg.unwrap_or(Expr::Literal(Value::Int(1)));
    c.expect_kw("FROM")?;
    let array = c.ident()?;
    let slices = optional_slices(c)?;
    let condition = if c.accept_kw("WHERE") { Some(c.expr()?) } else { None };
    if !c.accept_kw("GROUP") {
        return Ok(SciqlStmt::Reduce { array, slices, agg, expr, condition });
    }
    c.expect_kw("BY")?;
    c.expect_kw("TILES")?;
    let close = open(c).ok_or_else(|| c.err("expected [tile shape] after TILES"))?;
    let mut tile = vec![c.usize_lit()?];
    while c.accept_symbol(Symbol::Comma) {
        tile.push(c.usize_lit()?);
    }
    c.expect_symbol(close)?;
    if slices.iter().any(Option::is_some) {
        return Err(c.err("slicing cannot be combined with GROUP BY TILES"));
    }
    if condition.is_some() {
        return Err(c.err("WHERE cannot be combined with GROUP BY TILES"));
    }
    Ok(SciqlStmt::TileReduce { array, agg, expr, tile })
}

/// Consume the `[` (or `(`) opening an extent, slice list or tile
/// shape, and name the symbol that must close it.
fn open(c: &mut Cursor) -> Option<Symbol> {
    if c.accept_symbol(Symbol::LBracket) {
        Some(Symbol::RBracket)
    } else if c.accept_symbol(Symbol::LParen) {
        Some(Symbol::RParen)
    } else {
        None
    }
}

/// Optional `[lo..hi, *, ...]` slice list after an array name.
/// `*` means "full extent" for that dimension.
fn optional_slices(c: &mut Cursor) -> Result<Vec<SliceRange>> {
    let Some(close) = open(c) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    loop {
        if c.accept_symbol(Symbol::Star) {
            out.push(None);
        } else {
            let lo = c.usize_lit()?;
            c.expect_symbol(Symbol::DotDot)?;
            let hi = c.usize_lit()?;
            if hi < lo {
                return Err(c.err(format!("empty slice {lo}..{hi}")));
            }
            out.push(Some((lo, hi)));
        }
        if !c.accept_symbol(Symbol::Comma) {
            break;
        }
    }
    c.expect_symbol(close)?;
    Ok(out)
}

fn number(c: &mut Cursor) -> Result<f64> {
    let neg = c.accept_symbol(Symbol::Minus);
    let v = match c.advance() {
        TokenKind::Int(i) => i as f64,
        TokenKind::Float(f) => f,
        other => return Err(c.err(format!("expected number, found {other:?}"))),
    };
    Ok(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_monet::sql::ast::{AggFunc, BinOp};
    use teleios_monet::DbError;

    #[test]
    fn create_array() {
        let s = parse(
            "CREATE ARRAY img (y INT DIMENSION (512), x INT DIMENSION (256), v DOUBLE DEFAULT 0.5)",
        )
        .unwrap();
        match s {
            SciqlStmt::CreateArray { name, dims, default } => {
                assert_eq!(name, "img");
                assert_eq!(dims.len(), 2);
                assert_eq!(dims[0].size, 512);
                assert_eq!(dims[1].name, "x");
                assert_eq!(default, 0.5);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn create_requires_dimension() {
        assert!(parse("CREATE ARRAY a (v DOUBLE)").is_err());
    }

    #[test]
    fn the_value_attribute_is_v() {
        let e = parse("CREATE ARRAY a (x INT DIMENSION [4], w DOUBLE DEFAULT 1)").unwrap_err();
        assert!(e.to_string().ends_with("the value attribute is v, not w"), "{e}");
        assert!(parse("CREATE ARRAY a (x INT DIMENSION [4], V DOUBLE)").is_ok());
        let e = parse("UPDATE a SET w = 1").unwrap_err();
        assert_eq!(e.to_string(), "parse error at line 1, column 14: expected v");
    }

    #[test]
    fn select_map() {
        let s = parse("SELECT v * 2 + 1 FROM img").unwrap();
        assert!(
            matches!(s, SciqlStmt::Map { ref array, ref slices, .. } if array == "img" && slices.is_empty())
        );
    }

    #[test]
    fn select_map_with_slice() {
        let s = parse("SELECT v FROM img(0..10, 5..20)").unwrap();
        match s {
            SciqlStmt::Map { slices, .. } => {
                assert_eq!(slices, vec![Some((0, 10)), Some((5, 20))]);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn select_map_star_slice() {
        let s = parse("SELECT v FROM img(*, 5..20)").unwrap();
        match s {
            SciqlStmt::Map { slices, .. } => {
                assert_eq!(slices, vec![None, Some((5, 20))]);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn select_reduce() {
        let s = parse("SELECT AVG(v) FROM img(0..4, 0..4)").unwrap();
        assert!(matches!(s, SciqlStmt::Reduce { agg: AggFunc::Avg, .. }));
        let s2 = parse("SELECT COUNT(*) FROM img").unwrap();
        assert!(matches!(s2, SciqlStmt::Reduce { agg: AggFunc::Count, .. }));
    }

    #[test]
    fn select_tile_reduce() {
        let s = parse("SELECT MAX(v) FROM img GROUP BY TILES (16, 16)").unwrap();
        match s {
            SciqlStmt::TileReduce { agg, tile, .. } => {
                assert_eq!(agg, AggFunc::Max);
                assert_eq!(tile, vec![16, 16]);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn tiles_with_slice_rejected() {
        assert!(parse("SELECT MAX(v) FROM img(0..2, 0..2) GROUP BY TILES (2, 2)").is_err());
    }

    #[test]
    fn update_with_case() {
        let s = parse("UPDATE img SET v = CASE WHEN v > 310 THEN 1 ELSE 0 END").unwrap();
        match s {
            SciqlStmt::Update { expr: Expr::Case { arms, otherwise }, .. } => {
                assert_eq!(arms.len(), 1);
                assert!(otherwise.is_some());
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn update_slice() {
        let s = parse("UPDATE img(0..5, *) SET v = v / 2").unwrap();
        assert!(matches!(s, SciqlStmt::Update { ref slices, .. } if slices.len() == 2));
    }

    #[test]
    fn drop_array() {
        assert!(matches!(parse("DROP ARRAY img").unwrap(), SciqlStmt::DropArray { .. }));
    }

    #[test]
    fn functions_and_vars() {
        let s = parse("SELECT SQRT(ABS(v - 300)) + x * 0.1 FROM img").unwrap();
        assert!(matches!(s, SciqlStmt::Map { .. }));
    }

    #[test]
    fn empty_slice_rejected() {
        assert!(parse("SELECT v FROM img(5..2)").is_err());
    }

    #[test]
    fn errors_point_into_the_original_text() {
        // The closing `]` of a 30-byte statement is byte 29: column 30.
        match parse("SELECT v FROM img[0..10, 5..2]") {
            Err(DbError::Parse { line: 1, column: 30, message }) => {
                assert_eq!(message, "empty slice 5..2")
            }
            other => panic!("wrong: {other:?}"),
        }
        let e = parse("SELECT AVG(v)\n  FROM img\n  GROUP BY TILES [16, 16)").unwrap_err();
        assert_eq!(e.to_string(), "parse error at line 3, column 25: expected RBracket");
        // `lo TO hi` was the rewrite's spelling, never SciQL's.
        assert!(parse("SELECT v FROM img(0 TO 4)").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT v FROM img img2").is_err());
    }

    #[test]
    fn reduce_with_where() {
        let s = parse("SELECT AVG(v) FROM img WHERE v > 318").unwrap();
        match s {
            SciqlStmt::Reduce { condition: Some(_), agg: AggFunc::Avg, .. } => {}
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn update_with_where() {
        let s = parse("UPDATE img SET v = 0 WHERE v > 318 AND x < 4").unwrap();
        match s {
            SciqlStmt::Update { condition: Some(Expr::Binary { op: BinOp::And, .. }), .. } => {}
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn where_after_slice() {
        let s = parse("SELECT SUM(v) FROM img[0..4, *] WHERE v > 0").unwrap();
        match s {
            SciqlStmt::Reduce { slices, condition: Some(_), .. } => assert_eq!(slices.len(), 2),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn case_multiple_arms() {
        let s = parse("SELECT CASE WHEN v > 320 THEN 2 WHEN v > 310 THEN 1 ELSE 0 END FROM img")
            .unwrap();
        match s {
            SciqlStmt::Map { expr: Expr::Case { arms, .. }, .. } => assert_eq!(arms.len(), 2),
            other => panic!("wrong: {other:?}"),
        }
    }
}
