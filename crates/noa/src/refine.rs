//! Product refinement via stSPARQL updates (demo scenario 2).
//!
//! The MSG/SEVIRI sensor's low spatial resolution makes the hotspot
//! shapefiles include detections that are inconsistent with auxiliary
//! geospatial data — most visibly, "hotspots" over the sea (sun glint,
//! mixed coastal pixels). The refinement step publishes the shapefiles
//! as stRDF and runs `DELETE/INSERT ... WHERE` statements comparing them
//! with coastline linked data, reclassifying the inconsistent ones.

use crate::shapefile::HotspotFeature;
use teleios_geo::algorithm::predicates::polygon_covers_coord;
use teleios_geo::geometry::Polygon;
use teleios_ingest::raster::GeoTransform;
use teleios_monet::array::NdArray;
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::{noa, strdf};
use teleios_strabon::{Strabon, StrabonError};

/// Class given to refuted detections.
pub const REFUTED_HOTSPOT: &str =
    "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#RefutedHotspot";

/// IRI of one hotspot feature of a product.
fn hotspot_iri(product_id: &str, feature_id: usize) -> Term {
    Term::iri(format!("http://teleios.di.uoa.gr/products/{product_id}/hotspot/{feature_id}"))
}

/// Publish hotspot features as stRDF (the shapefile-to-RDF
/// transformation of scenario 2). Returns triples added.
pub fn publish_hotspots(
    features: &[HotspotFeature],
    product_id: &str,
    chain_id: &str,
    db: &mut Strabon,
) -> usize {
    let mut n = 0;
    let type_p = Term::iri(teleios_rdf::vocab::rdf::TYPE);
    let geom_p = Term::iri(strdf::HAS_GEOMETRY);
    let derived_p = Term::iri(noa::IS_DERIVED_FROM);
    let chain_p = Term::iri(noa::PRODUCED_BY_CHAIN);
    let conf_p = Term::iri(noa::HAS_CONFIDENCE);
    let product = Term::iri(format!("http://teleios.di.uoa.gr/products/{product_id}"));
    let chain = Term::iri(format!("http://teleios.di.uoa.gr/chains/{chain_id}"));
    for f in features {
        let s = hotspot_iri(product_id, f.id);
        n += db.insert(&s, &type_p, &Term::iri(noa::HOTSPOT)) as usize;
        n += db.insert(&s, &geom_p, &geometry_literal_wgs84(&f.geometry())) as usize;
        n += db.insert(&s, &derived_p, &product) as usize;
        n += db.insert(&s, &chain_p, &chain) as usize;
        // Confidence scales with component size (bigger blobs are more
        // certain at this resolution).
        let conf = (f.cells as f64 / (f.cells as f64 + 2.0)).min(0.99);
        n += db.insert(&s, &conf_p, &Term::double(conf)) as usize;
    }
    n
}

/// Continuation of a `?h a <class>` pattern that keeps one product's
/// hotspots only; empty for every product.
fn scope_clause(product_id: Option<&str>) -> String {
    product_id.map_or(String::new(), |pid| {
        format!(" ; noa:isDerivedFrom <http://teleios.di.uoa.gr/products/{pid}>")
    })
}

/// The two stSPARQL updates of scenario 2 (the demo shows users exactly
/// these statements):
///
/// 1. hotspots entirely **disjoint** from the landmass are inconsistent
///    with the coastline data and are reclassified as refuted;
/// 2. hotspots **crossing** the coastline keep only the parts of their
///    geometries on land — "through this refinement step we isolate
///    parts of the geometries of the hotspots that are inconsistent
///    with the geospatial data available" (paper §4).
///
/// `Some(product_id)` restricts both to the hotspots of one product
/// (`?h noa:isDerivedFrom <product>`), which is what supervised
/// refinement uses to keep each product's pass isolated from the
/// others; `None` refines every hotspot in the store.
pub fn refinement_updates_scoped(
    landmass_wkt: &Term,
    product_id: Option<&str>,
) -> [String; 2] {
    let scope = scope_clause(product_id);
    let refute = format!(
        "PREFIX noa: <{noa_ns}>\n\
         PREFIX strdf: <{strdf_ns}>\n\
         DELETE {{ ?h a noa:Hotspot }}\n\
         INSERT {{ ?h a <{refuted}> }}\n\
         WHERE {{\n\
           ?h a noa:Hotspot{scope} ; strdf:hasGeometry ?g .\n\
           FILTER(strdf:disjoint(?g, {lit}))\n\
         }}",
        noa_ns = noa::NS,
        strdf_ns = strdf::NS,
        refuted = REFUTED_HOTSPOT,
        scope = scope,
        lit = landmass_wkt,
    );
    let clip = format!(
        "PREFIX noa: <{noa_ns}>\n\
         PREFIX strdf: <{strdf_ns}>\n\
         DELETE {{ ?h strdf:hasGeometry ?g }}\n\
         INSERT {{ ?h strdf:hasGeometry ?clipped }}\n\
         WHERE {{\n\
           ?h a noa:Hotspot{scope} ; strdf:hasGeometry ?g .\n\
           FILTER(!strdf:within(?g, {lit}))\n\
           BIND(strdf:intersection(?g, {lit}) AS ?clipped)\n\
         }}",
        noa_ns = noa::NS,
        strdf_ns = strdf::NS,
        scope = scope,
        lit = landmass_wkt,
    );
    [refute, clip]
}

/// Outcome of a refinement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineStats {
    /// Hotspots before refinement.
    pub before: usize,
    /// Hotspots surviving.
    pub kept: usize,
    /// Hotspots reclassified as refuted.
    pub refuted: usize,
    /// Hotspots whose geometry was clipped to the landmass.
    pub clipped: usize,
}

/// Execute the refinement for one product only: the scenario-2 updates
/// scoped by `noa:isDerivedFrom`, with the before/after counts equally
/// scoped. Other products' hotspots are untouched, so a supervisor can
/// run this per product and keep a poisoned product's failure isolated.
pub fn refine_product_against_landmass(
    db: &mut Strabon,
    landmass_wkt: &Term,
    product_id: &str,
) -> Result<RefineStats, StrabonError> {
    let scope = scope_clause(Some(product_id));
    let count = |db: &mut Strabon, class: &str| -> Result<usize, StrabonError> {
        let sols = db.query(&format!(
            "PREFIX noa: <{}>\nSELECT ?h WHERE {{ ?h a <{class}>{scope} }}",
            noa::NS,
        ))?;
        Ok(sols.len())
    };
    let before = count(db, noa::HOTSPOT)?;
    let [refute, clip] = refinement_updates_scoped(landmass_wkt, Some(product_id));
    db.update(&refute)?;
    // Each clipped hotspot contributes one delete plus one insert.
    let clipped = db.update(&clip)? / 2;
    let kept = count(db, noa::HOTSPOT)?;
    let refuted = count(db, REFUTED_HOTSPOT)?;
    Ok(RefineStats { before, kept, refuted, clipped })
}

/// Rasterize features back to a mask (pixel centre covered by any
/// feature). Used to score refined products against ground truth (E7).
pub fn features_to_mask(
    features: &[&Polygon],
    geo: &GeoTransform,
    rows: usize,
    cols: usize,
) -> NdArray {
    let mut out = NdArray::zeros(vec![
        teleios_monet::array::Dim::new("y", rows),
        teleios_monet::array::Dim::new("x", cols),
    ]);
    // Row-major `rows × cols` cells: `r * cols + c` is in bounds.
    let cells = out.data_mut();
    for poly in features {
        let env = poly.envelope();
        // Every pixel is visited; the envelope test keeps the exact
        // cover test off pixels outside the feature's bounding box.
        for r in 0..rows {
            for c in 0..cols {
                let center = geo.pixel_center(r, c);
                if env.contains_coord(center) && polygon_covers_coord(poly, center) {
                    cells[r * cols + c] = 1.0;
                }
            }
        }
    }
    out
}

/// Fetch the geometries of surviving hotspots of a product.
pub fn surviving_hotspot_geometries(
    db: &mut Strabon,
    product_id: &str,
) -> Result<Vec<Polygon>, StrabonError> {
    let product = format!("http://teleios.di.uoa.gr/products/{product_id}");
    let sols = db.query(&format!(
        "PREFIX noa: <{}>\nPREFIX strdf: <{}>\n\
         SELECT ?g WHERE {{ ?h a noa:Hotspot ; noa:isDerivedFrom <{product}> ; strdf:hasGeometry ?g }}",
        noa::NS,
        strdf::NS,
    ))?;
    let mut out = Vec::with_capacity(sols.len());
    for row in &sols.rows {
        if let Some(term) = &row[0] {
            match teleios_rdf::strdf::parse_geometry(term) {
                Ok((teleios_geo::Geometry::Polygon(p), _)) => out.push(p),
                // Clipped hotspots are MultiPolygon literals.
                Ok((teleios_geo::Geometry::MultiPolygon(ps), _)) => out.extend(ps),
                _ => {}
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::{Coord, Envelope};
    use teleios_monet::array::NdArray;

    fn geo() -> GeoTransform {
        GeoTransform { origin_x: 0.0, origin_y: 10.0, pixel_w: 1.0, pixel_h: 1.0 }
    }

    /// Two features: one inside the "land" square, one outside.
    fn features() -> Vec<HotspotFeature> {
        let mut m = NdArray::matrix(10, 10, vec![0.0; 100]).unwrap();
        m.set(&[2, 2], 1.0).unwrap(); // x=2..3, y=7..8 (on land)
        m.set(&[8, 8], 1.0).unwrap(); // x=8..9, y=1..2 (off land)
        crate::shapefile::mask_to_features(&m, &geo()).unwrap()
    }

    fn landmass() -> Term {
        // Land = [0,6] x [4,10].
        geometry_literal_wgs84(&teleios_geo::Geometry::Polygon(Polygon::from_envelope(
            &Envelope::new(Coord::new(0.0, 4.0), Coord::new(6.0, 10.0)),
        )))
    }

    #[test]
    fn publish_creates_five_triples_per_feature() {
        let mut db = Strabon::new();
        let n = publish_hotspots(&features(), "p1", "threshold-318", &mut db);
        assert_eq!(n, 10);
    }

    #[test]
    fn refinement_refutes_sea_hotspots() {
        let mut db = Strabon::new();
        publish_hotspots(&features(), "p1", "threshold-318", &mut db);
        let stats = refine_product_against_landmass(&mut db, &landmass(), "p1").unwrap();
        assert_eq!(stats.before, 2);
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.refuted, 1);
        // The surviving hotspot is the land one.
        let survivors = surviving_hotspot_geometries(&mut db, "p1").unwrap();
        assert_eq!(survivors.len(), 1);
        assert!(survivors[0].envelope().contains_coord(Coord::new(2.5, 7.5)));
    }

    #[test]
    fn refinement_is_idempotent() {
        let mut db = Strabon::new();
        publish_hotspots(&features(), "p1", "threshold-318", &mut db);
        refine_product_against_landmass(&mut db, &landmass(), "p1").unwrap();
        let second = refine_product_against_landmass(&mut db, &landmass(), "p1").unwrap();
        assert_eq!(second.refuted, 1); // still one refuted from before
        assert_eq!(second.kept, 1);
    }

    #[test]
    fn update_statements_shapes() {
        let [refute, clip] = refinement_updates_scoped(&landmass(), None);
        assert!(refute.contains("strdf:disjoint"));
        assert!(refute.contains("RefutedHotspot"));
        assert!(clip.contains("strdf:intersection"));
        assert!(clip.contains("BIND"));
    }

    #[test]
    fn scoped_refinement_leaves_other_products_alone() {
        let mut db = Strabon::new();
        publish_hotspots(&features(), "p1", "threshold-318", &mut db);
        publish_hotspots(&features(), "p2", "threshold-318", &mut db);
        let stats = refine_product_against_landmass(&mut db, &landmass(), "p1").unwrap();
        assert_eq!(stats.before, 2);
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.refuted, 1);
        // p2 is untouched: both of its hotspots still classified.
        let p2 = db
            .query(&format!(
                "PREFIX noa: <{}> SELECT ?h WHERE {{ ?h a noa:Hotspot ; \
                 noa:isDerivedFrom <http://teleios.di.uoa.gr/products/p2> }}",
                noa::NS
            ))
            .unwrap();
        assert_eq!(p2.len(), 2);
    }

    #[test]
    fn per_product_passes_add_up_to_the_global_pass() {
        let mut global = Strabon::new();
        publish_hotspots(&features(), "p1", "threshold-318", &mut global);
        publish_hotspots(&features(), "p2", "threshold-318", &mut global);
        let count = |db: &mut Strabon, class: &str| {
            db.query(&format!("SELECT ?h WHERE {{ ?h a <{class}> }}")).unwrap().len()
        };
        let before = count(&mut global, noa::HOTSPOT);
        let [refute, clip] = refinement_updates_scoped(&landmass(), None);
        global.update(&refute).unwrap();
        // Each clipped hotspot is one delete plus one insert.
        let clipped = global.update(&clip).unwrap() / 2;
        let kept = count(&mut global, noa::HOTSPOT);
        let refuted = count(&mut global, REFUTED_HOTSPOT);

        let mut scoped = Strabon::new();
        publish_hotspots(&features(), "p1", "threshold-318", &mut scoped);
        publish_hotspots(&features(), "p2", "threshold-318", &mut scoped);
        let s1 = refine_product_against_landmass(&mut scoped, &landmass(), "p1").unwrap();
        let s2 = refine_product_against_landmass(&mut scoped, &landmass(), "p2").unwrap();
        assert_eq!(before, s1.before + s2.before);
        assert_eq!(kept, s1.kept + s2.kept);
        assert_eq!(refuted, s1.refuted + s2.refuted);
        assert_eq!(clipped, s1.clipped + s2.clipped);
        // The two passes also leave the same store behind.
        assert_eq!(count(&mut scoped, noa::HOTSPOT), kept);
        assert_eq!(count(&mut scoped, REFUTED_HOTSPOT), refuted);
    }

    #[test]
    fn scoped_updates_carry_the_product_constraint() {
        let [refute, clip] = refinement_updates_scoped(&landmass(), Some("p9"));
        assert!(refute.contains("noa:isDerivedFrom <http://teleios.di.uoa.gr/products/p9>"));
        assert!(clip.contains("noa:isDerivedFrom <http://teleios.di.uoa.gr/products/p9>"));
        let unscoped = refinement_updates_scoped(&landmass(), None);
        assert!(!unscoped[0].contains("isDerivedFrom"));
        assert!(!unscoped[1].contains("isDerivedFrom"));
    }

    #[test]
    fn features_to_mask_roundtrip() {
        let fs = features();
        let polys: Vec<&Polygon> = fs.iter().map(|f| &f.polygon).collect();
        let mask = features_to_mask(&polys, &geo(), 10, 10);
        assert_eq!(mask.sum(), 2.0);
        assert_eq!(mask.get(&[2, 2]).unwrap(), 1.0);
        assert_eq!(mask.get(&[8, 8]).unwrap(), 1.0);
        assert_eq!(mask.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn confidence_grows_with_size() {
        let mut m = NdArray::matrix(10, 10, vec![0.0; 100]).unwrap();
        m.set(&[1, 1], 1.0).unwrap();
        for r in 4..8 {
            for c in 4..8 {
                m.set(&[r, c], 1.0).unwrap();
            }
        }
        let fs = crate::shapefile::mask_to_features(&m, &geo()).unwrap();
        let mut db = Strabon::new();
        publish_hotspots(&fs, "p", "c", &mut db);
        let sols = db
            .query(&format!(
                "PREFIX noa: <{}> SELECT ?c WHERE {{ ?h noa:hasConfidence ?c }} ORDER BY ?c",
                noa::NS
            ))
            .unwrap();
        assert_eq!(sols.len(), 2);
        let lo = sols.get(0, "c").unwrap().as_f64().unwrap();
        let hi = sols.get(1, "c").unwrap().as_f64().unwrap();
        assert!(lo < hi);
    }
}
