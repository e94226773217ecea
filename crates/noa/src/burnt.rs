//! Burnt-area mapping: accumulating hotspot detections over time.
//!
//! The TELEIOS ontology distinguishes active *fires* from *burned areas*
//! (paper §1: "concepts such as forest fires, flood" / Fig. 1 knowledge
//! discovery). The NOA service derives burnt-area products by
//! accumulating the refined hotspot masks of consecutive acquisitions:
//! a pixel that burned at any time during the event belongs to the scar.

use crate::shapefile::{mask_to_features, HotspotFeature};
use teleios_ingest::raster::GeoTransform;
use teleios_monet::array::NdArray;
use teleios_monet::{DbError, Result};
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::{noa, rdf, strdf};
use teleios_strabon::Strabon;

/// Class IRI of burnt-area products.
pub const BURNT_AREA: &str =
    "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#BurntArea";

/// Accumulate hotspot masks (same shape) into a burnt-area mask: the
/// per-pixel maximum, i.e. "ever detected burning".
pub fn accumulate_masks(masks: &[NdArray]) -> Result<NdArray> {
    let first = masks
        .first()
        .ok_or_else(|| DbError::Execution("no masks to accumulate".into()))?;
    let mut out = first.clone();
    for m in &masks[1..] {
        out = out.zip_map(m, f64::max)?;
    }
    Ok(out)
}

/// Dissolve the burnt-area mask into scar polygons.
pub fn burnt_area_features(
    masks: &[NdArray],
    geo: &GeoTransform,
) -> Result<Vec<HotspotFeature>> {
    let acc = accumulate_masks(masks)?;
    mask_to_features(&acc, geo)
}

/// Publish burnt-area features as stRDF, linked to the fire event's
/// period. Returns triples added.
pub fn publish_burnt_area(
    features: &[HotspotFeature],
    event_id: &str,
    period: &teleios_rdf::strdf::Period,
    db: &mut Strabon,
) -> usize {
    let mut n = 0;
    let type_p = Term::iri(rdf::TYPE);
    let geom_p = Term::iri(strdf::HAS_GEOMETRY);
    let time_p = Term::iri(strdf::HAS_VALID_TIME);
    let period_lit = teleios_rdf::strdf::period_literal(period);
    for f in features {
        let s = Term::iri(format!(
            "http://teleios.di.uoa.gr/products/{event_id}/burnt/{}",
            f.id
        ));
        n += db.insert(&s, &type_p, &Term::iri(BURNT_AREA)) as usize;
        n += db.insert(&s, &geom_p, &geometry_literal_wgs84(&f.geometry())) as usize;
        n += db.insert(&s, &time_p, &period_lit) as usize;
        n += db.insert(
            &s,
            &Term::iri(noa::IS_DERIVED_FROM),
            &Term::iri(format!("http://teleios.di.uoa.gr/events/{event_id}")),
        ) as usize;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_rdf::strdf::Period;

    fn geo() -> GeoTransform {
        GeoTransform { origin_x: 0.0, origin_y: 10.0, pixel_w: 1.0, pixel_h: 1.0 }
    }

    fn mask(on: &[(usize, usize)]) -> NdArray {
        let mut m = NdArray::matrix(6, 6, vec![0.0; 36]).unwrap();
        for &(r, c) in on {
            m.set(&[r, c], 1.0).unwrap();
        }
        m
    }

    #[test]
    fn accumulation_is_union() {
        let a = mask(&[(1, 1), (1, 2)]);
        let b = mask(&[(1, 2), (2, 2)]);
        let acc = accumulate_masks(&[a, b]).unwrap();
        assert_eq!(acc.sum(), 3.0);
    }

    #[test]
    fn moving_fire_front_leaves_connected_scar() {
        // The front advances one column per timestep; the scar dissolves
        // into a single feature covering all three.
        let masks = vec![mask(&[(2, 1)]), mask(&[(2, 2)]), mask(&[(2, 3)])];
        let features = burnt_area_features(&masks, &geo()).unwrap();
        assert_eq!(features.len(), 1);
        assert_eq!(features[0].cells, 3);
        assert!((features[0].polygon.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_errors() {
        assert!(accumulate_masks(&[]).is_err());
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = mask(&[(0, 0)]);
        let b = NdArray::matrix(3, 3, vec![0.0; 9]).unwrap();
        assert!(accumulate_masks(&[a, b]).is_err());
    }

    #[test]
    fn publish_carries_valid_time() {
        let masks = vec![mask(&[(2, 1)]), mask(&[(2, 2)])];
        let features = burnt_area_features(&masks, &geo()).unwrap();
        let mut db = Strabon::new();
        let period = Period::new("2007-08-25T10:00:00Z", "2007-08-25T16:00:00Z");
        let n = publish_burnt_area(&features, "fire-42", &period, &mut db);
        assert_eq!(n, features.len() * 4);
        let sols = db
            .query(&format!("SELECT ?b ?t WHERE {{ ?b a <{BURNT_AREA}> . ?b <{}> ?t }}", strdf::HAS_VALID_TIME))
            .unwrap();
        assert_eq!(sols.len(), features.len());
        let t = sols.get(0, "t").unwrap();
        let parsed = teleios_rdf::strdf::parse_period(t).unwrap();
        assert_eq!(parsed, period);
    }
}
