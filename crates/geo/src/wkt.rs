//! Well-Known Text (OGC 06-103r4) reader and writer.
//!
//! Supports the seven Simple Features types, the `EMPTY` keyword, and the
//! stRDF convention of a leading CRS URI prefix
//! (`<http://www.opengis.net/def/crs/EPSG/0/4326> POINT(...)`), which
//! [`parse_with_crs`] understands.

use crate::coord::Coord;
use crate::error::GeoError;
use crate::geometry::{Geometry, LineString, Point, Polygon};
use crate::Result;

/// Parse a WKT string into a [`Geometry`].
pub fn parse(input: &str) -> Result<Geometry> {
    let mut p = Parser::new(input);
    let g = p.parse_geometry()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after geometry"));
    }
    Ok(g)
}

/// Parse stRDF-style WKT that may carry a leading CRS URI.
///
/// Returns the geometry and the EPSG code (defaulting to 4326 when no URI
/// is present, matching the stRDF specification).
pub fn parse_with_crs(input: &str) -> Result<(Geometry, u32)> {
    let trimmed = input.trim_start();
    if let Some(rest) = trimmed.strip_prefix('<') {
        let end = rest
            .find('>')
            .ok_or_else(|| GeoError::WktParse { position: 0, message: "unterminated CRS URI".into() })?;
        let uri = &rest[..end];
        let srid = uri
            .rsplit('/')
            .next()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| GeoError::WktParse {
                position: 0,
                message: format!("CRS URI does not end in an EPSG code: {uri}"),
            })?;
        Ok((parse(&rest[end + 1..])?, srid))
    } else {
        Ok((parse(trimmed)?, 4326))
    }
}

/// Serialize a geometry to WKT.
pub fn write(g: &Geometry) -> String {
    let mut out = String::with_capacity(g.num_coords() * 16 + 24);
    write_geometry(g, &mut out);
    out
}

/// Serialize a geometry to stRDF WKT with an explicit CRS URI prefix.
pub fn write_with_crs(g: &Geometry, srid: u32) -> String {
    format!("<http://www.opengis.net/def/crs/EPSG/0/{srid}> {}", write(g))
}

fn write_geometry(g: &Geometry, out: &mut String) {
    match g {
        Geometry::Point(p) => {
            out.push_str("POINT ");
            write_coord_seq(std::slice::from_ref(&p.0), out);
        }
        Geometry::LineString(l) => {
            out.push_str("LINESTRING ");
            if l.is_empty() {
                out.push_str("EMPTY");
            } else {
                write_coord_seq(&l.0, out);
            }
        }
        Geometry::Polygon(p) => {
            out.push_str("POLYGON ");
            write_polygon_body(p, out);
        }
        Geometry::MultiPoint(ps) => {
            out.push_str("MULTIPOINT ");
            if ps.is_empty() {
                out.push_str("EMPTY");
            } else {
                out.push('(');
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_coord_seq(std::slice::from_ref(&p.0), out);
                }
                out.push(')');
            }
        }
        Geometry::MultiLineString(ls) => {
            out.push_str("MULTILINESTRING ");
            if ls.is_empty() {
                out.push_str("EMPTY");
            } else {
                out.push('(');
                for (i, l) in ls.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_coord_seq(&l.0, out);
                }
                out.push(')');
            }
        }
        Geometry::MultiPolygon(ps) => {
            out.push_str("MULTIPOLYGON ");
            if ps.is_empty() {
                out.push_str("EMPTY");
            } else {
                out.push('(');
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_polygon_body(p, out);
                }
                out.push(')');
            }
        }
        Geometry::GeometryCollection(gs) => {
            out.push_str("GEOMETRYCOLLECTION ");
            if gs.is_empty() {
                out.push_str("EMPTY");
            } else {
                out.push('(');
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_geometry(g, out);
                }
                out.push(')');
            }
        }
    }
}

fn write_polygon_body(p: &Polygon, out: &mut String) {
    if p.exterior.is_empty() {
        out.push_str("EMPTY");
        return;
    }
    out.push('(');
    write_coord_seq(&p.exterior.0, out);
    for h in &p.interiors {
        out.push_str(", ");
        write_coord_seq(&h.0, out);
    }
    out.push(')');
}

fn write_coord_seq(coords: &[Coord], out: &mut String) {
    out.push('(');
    for (i, c) in coords.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_num(c.x, out);
        out.push(' ');
        write_num(c.y, out);
    }
    out.push(')');
}

fn write_num(v: f64, out: &mut String) {
    // Integral values print without a decimal point, matching common WKT.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// How deep GEOMETRYCOLLECTIONs may nest: past it the reader returns an
/// error rather than exhausting the thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> GeoError {
        GeoError::WktParse { position: self.pos, message: msg.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        self.input[start..self.pos].to_ascii_uppercase()
    }

    fn try_empty(&mut self) -> bool {
        let save = self.pos;
        if self.keyword() == "EMPTY" {
            true
        } else {
            self.pos = save;
            false
        }
    }

    fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected number"));
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|e| self.err(format!("bad number: {e}")))
    }

    fn coord(&mut self) -> Result<Coord> {
        let x = self.number()?;
        let y = self.number()?;
        // Skip an optional Z/M value, tolerated but ignored.
        self.skip_ws();
        if matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+') {
            let _ = self.number()?;
        }
        Ok(Coord::new(x, y))
    }

    fn coord_seq(&mut self) -> Result<Vec<Coord>> {
        self.expect(b'(')?;
        let mut coords = Vec::with_capacity(8);
        loop {
            coords.push(self.coord()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b')') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ')' in coordinate sequence")),
            }
        }
        Ok(coords)
    }

    fn polygon_body(&mut self) -> Result<Polygon> {
        self.expect(b'(')?;
        let exterior = LineString(self.coord_seq()?);
        let mut interiors = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    interiors.push(LineString(self.coord_seq()?));
                }
                Some(b')') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ')' in polygon")),
            }
        }
        Ok(Polygon::new(exterior, interiors))
    }

    fn parse_geometry(&mut self) -> Result<Geometry> {
        let kw = self.keyword();
        // Tolerate an optional dimension qualifier (Z, M, ZM).
        let save = self.pos;
        let qual = self.keyword();
        if !matches!(qual.as_str(), "Z" | "M" | "ZM") {
            self.pos = save;
        }
        match kw.as_str() {
            "POINT" => {
                if self.try_empty() {
                    return Err(self.err("POINT EMPTY is not representable"));
                }
                self.expect(b'(')?;
                let c = self.coord()?;
                self.expect(b')')?;
                Ok(Geometry::Point(Point(c)))
            }
            "LINESTRING" => {
                if self.try_empty() {
                    return Ok(Geometry::LineString(LineString::default()));
                }
                Ok(Geometry::LineString(LineString(self.coord_seq()?)))
            }
            "POLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::Polygon(Polygon::new(LineString::default(), vec![])));
                }
                Ok(Geometry::Polygon(self.polygon_body()?))
            }
            "MULTIPOINT" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPoint(vec![]));
                }
                self.expect(b'(')?;
                let mut points = Vec::new();
                loop {
                    self.skip_ws();
                    // Both MULTIPOINT((1 2), (3 4)) and MULTIPOINT(1 2, 3 4).
                    let c = if self.peek() == Some(b'(') {
                        self.pos += 1;
                        let c = self.coord()?;
                        self.expect(b')')?;
                        c
                    } else {
                        self.coord()?
                    };
                    points.push(Point(c));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')' in MULTIPOINT")),
                    }
                }
                Ok(Geometry::MultiPoint(points))
            }
            "MULTILINESTRING" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiLineString(vec![]));
                }
                self.expect(b'(')?;
                let mut lines = Vec::new();
                loop {
                    lines.push(LineString(self.coord_seq()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')' in MULTILINESTRING")),
                    }
                }
                Ok(Geometry::MultiLineString(lines))
            }
            "MULTIPOLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPolygon(vec![]));
                }
                self.expect(b'(')?;
                let mut polys = Vec::new();
                loop {
                    polys.push(self.polygon_body()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')' in MULTIPOLYGON")),
                    }
                }
                Ok(Geometry::MultiPolygon(polys))
            }
            "GEOMETRYCOLLECTION" => {
                if self.try_empty() {
                    return Ok(Geometry::GeometryCollection(vec![]));
                }
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("GEOMETRYCOLLECTION nested deeper than {MAX_DEPTH} levels")));
                }
                self.expect(b'(')?;
                self.depth += 1;
                let mut geoms = Vec::new();
                loop {
                    geoms.push(self.parse_geometry()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ')' in GEOMETRYCOLLECTION")),
                    }
                }
                self.depth -= 1;
                Ok(Geometry::GeometryCollection(geoms))
            }
            "" => Err(self.err("expected geometry type keyword")),
            other => Err(self.err(format!("unknown geometry type '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_roundtrip() {
        let g = parse("POINT (30 10)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(30.0, 10.0)));
        assert_eq!(write(&g), "POINT (30 10)");
    }

    #[test]
    fn point_negative_and_fractional() {
        let g = parse("POINT(-12.5 0.75)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-12.5, 0.75)));
        assert_eq!(write(&g), "POINT (-12.5 0.75)");
    }

    #[test]
    fn point_scientific_notation() {
        let g = parse("POINT (1e3 -2.5E-2)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(1000.0, -0.025)));
    }

    #[test]
    fn linestring_roundtrip() {
        let s = "LINESTRING (30 10, 10 30, 40 40)";
        let g = parse(s).unwrap();
        assert_eq!(write(&g), s);
    }

    #[test]
    fn polygon_with_hole_roundtrip() {
        let s = "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))";
        let g = parse(s).unwrap();
        assert_eq!(write(&g), s);
        if let Geometry::Polygon(p) = &g {
            assert_eq!(p.interiors.len(), 1);
        } else {
            panic!("expected polygon");
        }
    }

    #[test]
    fn multipoint_both_syntaxes() {
        let a = parse("MULTIPOINT ((10 40), (40 30))").unwrap();
        let b = parse("MULTIPOINT (10 40, 40 30)").unwrap();
        assert_eq!(a, b);
        assert_eq!(write(&a), "MULTIPOINT ((10 40), (40 30))");
    }

    #[test]
    fn multilinestring_roundtrip() {
        let s = "MULTILINESTRING ((10 10, 20 20), (40 40, 30 30, 40 20))";
        assert_eq!(write(&parse(s).unwrap()), s);
    }

    #[test]
    fn multipolygon_roundtrip() {
        let s = "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))";
        assert_eq!(write(&parse(s).unwrap()), s);
    }

    #[test]
    fn geometrycollection_roundtrip() {
        let s = "GEOMETRYCOLLECTION (POINT (4 6), LINESTRING (4 6, 7 10))";
        assert_eq!(write(&parse(s).unwrap()), s);
    }

    #[test]
    fn empty_geometries() {
        assert_eq!(parse("MULTIPOLYGON EMPTY").unwrap(), Geometry::MultiPolygon(vec![]));
        assert_eq!(parse("GEOMETRYCOLLECTION EMPTY").unwrap(), Geometry::GeometryCollection(vec![]));
        assert_eq!(write(&Geometry::MultiPoint(vec![])), "MULTIPOINT EMPTY");
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse("point (1 2)").is_ok());
        assert!(parse("Polygon ((0 0, 1 0, 1 1, 0 0))").is_ok());
    }

    #[test]
    fn z_values_tolerated() {
        let g = parse("POINT Z (1 2 3)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(1.0, 2.0)));
        let l = parse("LINESTRING (0 0 5, 1 1 6)").unwrap();
        assert_eq!(l, Geometry::LineString(LineString::from(vec![(0.0, 0.0), (1.0, 1.0)])));
    }

    #[test]
    fn errors_report_position() {
        let err = parse("POINT (1 )").unwrap_err();
        match err {
            GeoError::WktParse { position, .. } => assert!(position >= 8),
            _ => panic!("wrong error kind"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("POINT (1 2) extra").is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(parse("CIRCLE (0 0, 5)").is_err());
    }

    #[test]
    fn crs_prefix_parsed() {
        let (g, srid) =
            parse_with_crs("<http://www.opengis.net/def/crs/EPSG/0/3857> POINT (100 200)").unwrap();
        assert_eq!(srid, 3857);
        assert_eq!(g, Geometry::Point(Point::new(100.0, 200.0)));
    }

    #[test]
    fn crs_prefix_default_4326() {
        let (_, srid) = parse_with_crs("POINT (23.7 38.0)").unwrap();
        assert_eq!(srid, 4326);
    }

    #[test]
    fn crs_roundtrip() {
        let g = Geometry::Point(Point::new(1.0, 2.0));
        let s = write_with_crs(&g, 4326);
        let (g2, srid) = parse_with_crs(&s).unwrap();
        assert_eq!(g, g2);
        assert_eq!(srid, 4326);
    }

    #[test]
    fn whitespace_tolerance() {
        let g = parse("  POLYGON  (  ( 0 0 ,1 0, 1 1 ,0 0 ) )  ").unwrap();
        assert_eq!(g.num_coords(), 4);
    }
}
