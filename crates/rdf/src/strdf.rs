//! The stRDF extension: spatial and temporal literals.
//!
//! stRDF (Koubarakis & Kyzirakos, ESWC 2010) extends RDF with:
//!
//! * **spatial literals** — geometries serialized as OGC WKT with an
//!   optional CRS URI prefix, typed `strdf:WKT`;
//! * **valid-time literals** — periods `[start, end)` of `xsd:dateTime`
//!   instants, typed `strdf:period`.
//!
//! This module converts between those literals and the native
//! [`teleios_geo::Geometry`] / [`Period`] types.

use crate::term::Term;
use crate::vocab::strdf;
use crate::RdfError;
use teleios_geo::{wkt, Geometry};

/// A valid-time period `[start, end)` in simulation time.
///
/// Instants are ISO-8601 `xsd:dateTime` strings; ordering is
/// lexicographic, which ISO-8601 makes chronologically correct as long
/// as all instants share a timezone suffix (the generators emit UTC).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Period {
    /// Inclusive start instant.
    pub start: String,
    /// Exclusive end instant.
    pub end: String,
}

impl Period {
    /// New period (caller must ensure `start <= end`).
    pub fn new(start: impl Into<String>, end: impl Into<String>) -> Period {
        Period { start: start.into(), end: end.into() }
    }

    /// True when the instant falls inside `[start, end)`.
    pub fn contains(&self, instant: &str) -> bool {
        self.start.as_str() <= instant && instant < self.end.as_str()
    }

    /// True when two periods share an instant.
    pub fn overlaps(&self, other: &Period) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Build an stRDF spatial literal in the default CRS (EPSG:4326).
pub fn geometry_literal_wgs84(g: &Geometry) -> Term {
    Term::typed_literal(wkt::write(g), strdf::WKT)
}

/// True when the term is a spatial (`strdf:WKT`) literal.
pub fn is_geometry_literal(t: &Term) -> bool {
    t.datatype() == Some(strdf::WKT)
}

/// Parse a spatial literal back to a geometry and its EPSG code.
///
/// Plain WKT without a CRS prefix defaults to EPSG:4326 per the stRDF
/// specification. Non-spatial terms yield an error.
pub fn parse_geometry(t: &Term) -> crate::Result<(Geometry, u32)> {
    let Some(lex) = t.lexical() else {
        return Err(RdfError::BadLiteral(format!("not a literal: {t}")));
    };
    if !is_geometry_literal(t) {
        return Err(RdfError::BadLiteral(format!("not an strdf:WKT literal: {t}")));
    }
    wkt::parse_with_crs(lex).map_err(|e| RdfError::BadLiteral(e.to_string()))
}

/// Build a valid-time period literal.
pub fn period_literal(p: &Period) -> Term {
    Term::typed_literal(format!("[{}, {})", p.start, p.end), strdf::PERIOD)
}

/// True when the term is a period (`strdf:period`) literal.
pub(crate) fn is_period_literal(t: &Term) -> bool {
    t.datatype() == Some(strdf::PERIOD)
}

/// Parse a period literal (`[start, end)` form).
pub fn parse_period(t: &Term) -> crate::Result<Period> {
    let Some(lex) = t.lexical() else {
        return Err(RdfError::BadLiteral(format!("not a literal: {t}")));
    };
    if !is_period_literal(t) {
        return Err(RdfError::BadLiteral(format!("not an strdf:period literal: {t}")));
    }
    let inner = lex
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| RdfError::BadLiteral(format!("malformed period: {lex}")))?;
    let (start, end) = inner
        .split_once(',')
        .ok_or_else(|| RdfError::BadLiteral(format!("malformed period: {lex}")))?;
    let p = Period::new(start.trim(), end.trim());
    if p.start > p.end {
        return Err(RdfError::BadLiteral(format!("period ends before it starts: {lex}")));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::geometry::Point;

    #[test]
    fn geometry_literal_roundtrip() {
        let g = Geometry::Point(Point::new(23.7, 38.0));
        let lit = geometry_literal_wgs84(&g);
        assert!(is_geometry_literal(&lit));
        let (g2, srid) = parse_geometry(&lit).unwrap();
        assert_eq!(g2, g);
        assert_eq!(srid, 4326);
    }

    #[test]
    fn geometry_literal_default_crs() {
        let g = Geometry::Point(Point::new(1.0, 2.0));
        let lit = geometry_literal_wgs84(&g);
        let (_, srid) = parse_geometry(&lit).unwrap();
        assert_eq!(srid, 4326);
    }

    #[test]
    fn geometry_literal_other_crs() {
        let g = Geometry::Point(Point::new(100.0, 200.0));
        let text = format!("<http://www.opengis.net/def/crs/EPSG/0/3857> {}", wkt::write(&g));
        let lit = Term::typed_literal(text, strdf::WKT);
        let (_, srid) = parse_geometry(&lit).unwrap();
        assert_eq!(srid, 3857);
    }

    #[test]
    fn parse_geometry_rejects_non_spatial() {
        assert!(parse_geometry(&Term::literal("POINT (1 2)")).is_err());
        assert!(parse_geometry(&Term::iri("http://x/")).is_err());
        let bad = Term::typed_literal("PINT (1 2)", strdf::WKT);
        assert!(parse_geometry(&bad).is_err());
    }

    #[test]
    fn period_roundtrip() {
        let p = Period::new("2007-08-25T12:00:00Z", "2007-08-25T12:15:00Z");
        let lit = period_literal(&p);
        assert!(is_period_literal(&lit));
        assert_eq!(parse_period(&lit).unwrap(), p);
    }

    #[test]
    fn period_contains_and_overlaps() {
        let p = Period::new("2007-08-25T12:00:00Z", "2007-08-25T13:00:00Z");
        assert!(p.contains("2007-08-25T12:00:00Z"));
        assert!(p.contains("2007-08-25T12:59:59Z"));
        assert!(!p.contains("2007-08-25T13:00:00Z"));
        let q = Period::new("2007-08-25T12:30:00Z", "2007-08-25T14:00:00Z");
        let r = Period::new("2007-08-25T13:00:00Z", "2007-08-25T14:00:00Z");
        assert!(p.overlaps(&q));
        assert!(!p.overlaps(&r)); // end is exclusive
    }

    #[test]
    fn parse_period_rejects_malformed() {
        assert!(parse_period(&Term::typed_literal("2007", strdf::PERIOD)).is_err());
        assert!(parse_period(&Term::typed_literal("[b, a)", strdf::PERIOD)).is_err());
        assert!(parse_period(&Term::literal("[a, b)")).is_err());
    }
}
