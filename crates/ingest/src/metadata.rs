//! Product metadata as stRDF triples.
//!
//! Every ingested product is described in the NOA ontology: type,
//! acquisition time (with an stRDF valid-time period), acquiring
//! satellite, and geographic footprint as an `strdf:WKT` literal.

use crate::raster::GeoRaster;
use teleios_geo::Geometry;
use teleios_geo::geometry::Polygon;
use teleios_rdf::store::TripleStore;
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::{noa, rdf, strdf};

/// Mint the product IRI for a scene identifier.
pub(crate) fn product_iri(id: &str) -> Term {
    Term::iri(format!("http://teleios.di.uoa.gr/products/{id}"))
}

/// Describe a raw-image product in the store. Returns triples added.
pub fn describe_raw_image(id: &str, raster: &GeoRaster, store: &mut TripleStore) -> usize {
    let before = store.len();
    let s = product_iri(id);
    store.insert_terms(&s, &Term::iri(rdf::TYPE), &Term::iri(noa::RAW_IMAGE));
    store.insert_terms(
        &s,
        &Term::iri(noa::HAS_ACQUISITION_TIME),
        &Term::date_time(raster.acquisition.clone()),
    );
    store.insert_terms(
        &s,
        &Term::iri(noa::ACQUIRED_BY),
        &Term::iri(format!("http://teleios.di.uoa.gr/satellites/{}", raster.satellite)),
    );
    store.insert_terms(
        &s,
        &Term::iri(strdf::HAS_GEOMETRY),
        &geometry_literal_wgs84(&Geometry::Polygon(Polygon::from_envelope(&raster.envelope()))),
    );
    store.len() - before
}

/// Describe a derived product linked to the raw product it came from.
/// Returns triples added.
pub fn describe_derived(
    id: &str,
    raw_id: &str,
    chain: &str,
    footprint: &Geometry,
    store: &mut TripleStore,
) -> usize {
    let before = store.len();
    let s = product_iri(id);
    store.insert_terms(&s, &Term::iri(rdf::TYPE), &Term::iri(noa::DERIVED_PRODUCT));
    store.insert_terms(&s, &Term::iri(noa::IS_DERIVED_FROM), &product_iri(raw_id));
    store.insert_terms(
        &s,
        &Term::iri(noa::PRODUCED_BY_CHAIN),
        &Term::iri(format!("http://teleios.di.uoa.gr/chains/{chain}")),
    );
    store.insert_terms(
        &s,
        &Term::iri(strdf::HAS_GEOMETRY),
        &geometry_literal_wgs84(footprint),
    );
    store.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::GeoTransform;
    use teleios_monet::array::{Dim, NdArray};

    fn raster() -> GeoRaster {
        let data = NdArray::zeros(vec![
            Dim::new("band", 1),
            Dim::new("y", 4),
            Dim::new("x", 4),
        ]);
        let geo = GeoTransform { origin_x: 21.0, origin_y: 39.0, pixel_w: 0.5, pixel_h: 0.5 };
        GeoRaster::new(data, geo, "2007-08-25T12:00:00Z", "MSG2").unwrap()
    }

    #[test]
    fn raw_image_triples() {
        let mut st = TripleStore::new();
        let n = describe_raw_image("scene-1", &raster(), &mut st);
        assert_eq!(n, 4);
        let s = product_iri("scene-1");
        assert_eq!(st.objects(&s, &Term::iri(rdf::TYPE)), vec![Term::iri(noa::RAW_IMAGE)]);
        let geoms = st.objects(&s, &Term::iri(strdf::HAS_GEOMETRY));
        assert_eq!(geoms.len(), 1);
        let (g, _) = teleios_rdf::strdf::parse_geometry(&geoms[0]).unwrap();
        // The footprint covers the raster envelope.
        assert_eq!(g.envelope(), raster().envelope());
    }

    #[test]
    fn derived_product_links_to_raw() {
        let mut st = TripleStore::new();
        describe_raw_image("scene-1", &raster(), &mut st);
        let fp = Geometry::Point(teleios_geo::geometry::Point::new(22.0, 38.0));
        let n = describe_derived("hot-1", "scene-1", "threshold-318", &fp, &mut st);
        assert_eq!(n, 4);
        let derived = st.subjects(
            &Term::iri(noa::IS_DERIVED_FROM),
            &product_iri("scene-1"),
        );
        assert_eq!(derived, vec![product_iri("hot-1")]);
    }

    #[test]
    fn idempotent_description() {
        let mut st = TripleStore::new();
        describe_raw_image("scene-1", &raster(), &mut st);
        let n = describe_raw_image("scene-1", &raster(), &mut st);
        assert_eq!(n, 0);
    }
}
