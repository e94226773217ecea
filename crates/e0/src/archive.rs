//! The synthetic product archive: raw-image metadata plus one
//! 32-vertex hotspot polygon per product, a `products` table row and a
//! vault catalog record. (The generator `teleios-bench::build_archive`
//! uses, copied so the benchmark does not move when the `exp_*` bins do.)
//!
//! Products are spread uniformly over the window; every 10th sits near
//! the centre so region and distance queries keep a stable selectivity
//! across sizes, and every 100th carries the rare `noa:AnnotatedImage`
//! class the five-pattern BGP pivots on.

use crate::engine::Res;
use crate::rng::SplitMix64;
use teleios_geo::geometry::{LineString, Polygon};
use teleios_geo::{Coord, Envelope, Geometry};
use teleios_monet::table::ColumnDef;
use teleios_monet::{Catalog, DataType, Value};
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::vocab::{noa, rdf, strdf};
use teleios_rdf::{Term, TripleStore};
use teleios_vault::catalog::FileRecord;

/// The satellite every archive product was acquired by.
pub const SATELLITE: &str = "MSG2";
/// Name of the relational product table.
pub const PRODUCTS_TABLE: &str = "products";
/// Days the archive's acquisition times cycle through (August 1–28).
pub const DAYS: usize = 28;

/// Everything one archived product adds to the three stores.
#[derive(Debug, Clone)]
pub struct ProductDelta {
    /// Triples describing the image and its hotspot.
    pub triples: Vec<(Term, Term, Term)>,
    /// The `products` table row.
    pub row: Vec<Value>,
    /// The vault catalog record of the image file.
    pub record: FileRecord,
}

/// `2007-08-DD` for product `i`.
pub fn day_of(i: usize) -> String {
    format!("2007-08-{:02}", 1 + (i / 24) % DAYS)
}

/// A star-shaped blob polygon with `n` vertices (stands in for a
/// dissolved hotspot shapefile geometry).
pub fn blob_polygon(center: Coord, radius: f64, n: usize, rng: &mut SplitMix64) -> Polygon {
    let mut pts: Vec<Coord> = (0..n)
        .map(|i| {
            let theta = (i as f64) * std::f64::consts::TAU / (n as f64);
            let r = radius * rng.range(0.6, 1.0);
            Coord::new(center.x + r * theta.cos(), center.y + r * theta.sin())
        })
        .collect();
    if let Some(first) = pts.first().copied() {
        pts.push(first);
    }
    let mut poly = Polygon::new(LineString(pts), vec![]);
    poly.normalize();
    poly
}

/// Product `i` of the archive over `bbox`.
pub fn product(i: usize, bbox: &Envelope, rng: &mut SplitMix64) -> ProductDelta {
    let center = bbox.center();
    let img = Term::iri(format!("http://teleios.di.uoa.gr/products/arch_{i:06}"));
    let hotspot = Term::iri(format!(
        "http://teleios.di.uoa.gr/products/arch_{i:06}/hotspot/0"
    ));
    let (day, hour) = (1 + (i / 24) % DAYS, i % 24);
    let time = format!("{}T{hour:02}:00:00Z", day_of(i));
    let (cx, cy) = if i % 10 == 0 {
        (
            center.x + rng.range(-0.15, 0.15),
            center.y + rng.range(-0.15, 0.15),
        )
    } else {
        (
            rng.range(bbox.min.x, bbox.max.x),
            rng.range(bbox.min.y, bbox.max.y),
        )
    };
    let footprint = Envelope::new(
        Coord::new(cx - 0.2, cy - 0.2),
        Coord::new(cx + 0.2, cy + 0.2),
    );
    let confidence = rng.range(0.3, 1.0);
    let blob = blob_polygon(Coord::new(cx, cy), 0.05, 32, rng);

    let type_p = Term::iri(rdf::TYPE);
    let geom_p = Term::iri(strdf::HAS_GEOMETRY);
    let mut triples = vec![
        (img.clone(), type_p.clone(), Term::iri(noa::RAW_IMAGE)),
        (
            img.clone(),
            Term::iri(noa::ACQUIRED_BY),
            Term::iri(format!("http://teleios.di.uoa.gr/satellites/{SATELLITE}")),
        ),
        (
            img.clone(),
            Term::iri(noa::HAS_ACQUISITION_TIME),
            Term::date_time(time.clone()),
        ),
        (
            img.clone(),
            geom_p.clone(),
            geometry_literal_wgs84(&Geometry::Polygon(Polygon::from_envelope(&footprint))),
        ),
        (hotspot.clone(), type_p.clone(), Term::iri(noa::HOTSPOT)),
        (
            hotspot.clone(),
            Term::iri(noa::IS_DERIVED_FROM),
            img.clone(),
        ),
        (
            hotspot.clone(),
            Term::iri(noa::HAS_CONFIDENCE),
            Term::double(confidence),
        ),
        (
            hotspot,
            geom_p,
            geometry_literal_wgs84(&Geometry::Polygon(blob)),
        ),
    ];
    if i % 100 == 0 {
        triples.push((img, type_p, Term::iri(format!("{}AnnotatedImage", noa::NS))));
    }
    ProductDelta {
        triples,
        row: vec![
            Value::Int(i as i64),
            Value::Int(day as i64),
            Value::Int(hour as i64),
            Value::Double(confidence),
            Value::Str(SATELLITE.into()),
        ],
        record: FileRecord {
            name: format!("arch_{i:06}.sev1"),
            format: "sev1".into(),
            size_bytes: 72 + 3 * 64 * 64 * 8,
            bbox: Some((
                footprint.min.x,
                footprint.min.y,
                footprint.max.x,
                footprint.max.y,
            )),
            acquisition: Some(time),
            shape: vec![3, 64, 64],
        },
    }
}

/// Create the empty `products` table.
pub fn create_products_table(db: &Catalog) -> Res<()> {
    db.create_table(
        PRODUCTS_TABLE,
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("day", DataType::Int),
            ColumnDef::new("hour", DataType::Int),
            ColumnDef::new("confidence", DataType::Double),
            ColumnDef::new("satellite", DataType::Str),
        ],
    )
    .map_err(|e| e.to_string())
}

/// Insert `n` products into the triple store and the `products` table
/// (created here). Returns the table rows for native reference answers.
pub fn build(
    n: usize,
    bbox: &Envelope,
    seed: u64,
    store: &mut TripleStore,
    db: &Catalog,
) -> Res<Vec<Vec<Value>>> {
    let mut rng = SplitMix64::new(seed, 0xa4c1);
    create_products_table(db)?;
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let delta = product(i, bbox, &mut rng);
        for (s, p, o) in &delta.triples {
            store.insert_terms(s, p, o);
        }
        rows.push(delta.row);
    }
    db.insert(PRODUCTS_TABLE, rows.clone())
        .map_err(|e| e.to_string())?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> Envelope {
        Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
    }

    #[test]
    fn archive_scales_and_repeats() {
        let build_one = |seed| {
            let mut store = TripleStore::new();
            let db = Catalog::new();
            let rows = build(150, &bbox(), seed, &mut store, &db).unwrap();
            (store.len(), rows)
        };
        let (len, rows) = build_one(1);
        // 8 triples per product plus the rare class on products 0 and 100.
        assert_eq!(len, 150 * 8 + 2);
        assert_eq!(rows.len(), 150);
        assert_eq!(build_one(1).1, rows);
        assert_ne!(build_one(2).1, rows);
    }

    #[test]
    fn blob_is_a_closed_ring() {
        let mut rng = SplitMix64::new(1, 1);
        let blob = blob_polygon(Coord::new(22.0, 37.0), 0.05, 32, &mut rng);
        let coords = blob.exterior.coords();
        assert_eq!(coords.len(), 33);
        assert_eq!(coords.first(), coords.last());
    }
}
