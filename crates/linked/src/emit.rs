//! Emit the synthetic world as stRDF triples under linked-data
//! namespaces, mirroring how GeoNames / LinkedGeoData / CORINE /
//! coastline datasets appear on the linked data web.

use crate::world::World;
use teleios_geo::Geometry;
use teleios_geo::geometry::Point;
use teleios_rdf::store::TripleStore;
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::{linked, rdf, rdfs, strdf};

fn a() -> Term {
    Term::iri(rdf::TYPE)
}

fn geom_prop() -> Term {
    Term::iri(strdf::HAS_GEOMETRY)
}

/// Emit GeoNames-like populated places. Returns triples added.
pub(crate) fn emit_geonames(world: &World, store: &mut TripleStore) -> usize {
    let before = store.len();
    let class = Term::iri(format!("{}ontology#PopulatedPlace", linked::GEONAMES));
    let name_p = Term::iri(format!("{}ontology#name", linked::GEONAMES));
    let pop_p = Term::iri(format!("{}ontology#population", linked::GEONAMES));
    for (i, place) in world.places.iter().enumerate() {
        let s = Term::iri(format!("{}place/{i}", linked::GEONAMES));
        store.insert_terms(&s, &a(), &class);
        store.insert_terms(&s, &name_p, &Term::literal(place.name.clone()));
        store.insert_terms(&s, &pop_p, &Term::int(place.population as i64));
        store.insert_terms(
            &s,
            &geom_prop(),
            &geometry_literal_wgs84(&Geometry::Point(Point(place.location))),
        );
    }
    store.len() - before
}

/// Emit DBpedia-like archaeological sites. Returns triples added.
pub(crate) fn emit_sites(world: &World, store: &mut TripleStore) -> usize {
    let before = store.len();
    let class = Term::iri("http://dbpedia.org/ontology/ArchaeologicalSite");
    for (i, site) in world.sites.iter().enumerate() {
        let s = Term::iri(format!("http://dbpedia.org/resource/Site_{i}"));
        store.insert_terms(&s, &a(), &class);
        store.insert_terms(&s, &Term::iri(rdfs::LABEL), &Term::literal(site.name.clone()));
        store.insert_terms(
            &s,
            &geom_prop(),
            &geometry_literal_wgs84(&Geometry::Point(Point(site.location))),
        );
    }
    store.len() - before
}

/// Emit CORINE-like land-cover areas. Returns triples added.
pub(crate) fn emit_corine(world: &World, store: &mut TripleStore) -> usize {
    let before = store.len();
    let class = Term::iri(format!("{}ontology#Area", linked::CORINE));
    let cover_p = Term::iri(format!("{}ontology#hasLandCover", linked::CORINE));
    for (i, (poly, kind)) in world.landcover.iter().enumerate() {
        let s = Term::iri(format!("{}area/{i}", linked::CORINE));
        store.insert_terms(&s, &a(), &class);
        store.insert_terms(
            &s,
            &cover_p,
            &Term::iri(format!("{}ontology#{}", linked::CORINE, kind.concept())),
        );
        store.insert_terms(
            &s,
            &geom_prop(),
            &geometry_literal_wgs84(&Geometry::Polygon(poly.clone())),
        );
    }
    store.len() - before
}

/// Emit LinkedGeoData-like roads. Returns triples added.
pub(crate) fn emit_roads(world: &World, store: &mut TripleStore) -> usize {
    let before = store.len();
    let class = Term::iri(format!("{}Road", linked::LGD));
    for (i, road) in world.roads.iter().enumerate() {
        let s = Term::iri(format!("{}road/{i}", linked::LGD));
        store.insert_terms(&s, &a(), &class);
        store.insert_terms(
            &s,
            &geom_prop(),
            &geometry_literal_wgs84(&Geometry::LineString(road.clone())),
        );
    }
    store.len() - before
}

/// Emit the coastline dataset: the landmass polygon as a single feature.
/// Returns triples added. The refinement step of scenario 2 checks
/// hotspot geometries against this feature.
pub(crate) fn emit_coastline(world: &World, store: &mut TripleStore) -> usize {
    let before = store.len();
    let s = Term::iri(format!("{}landmass/0", linked::COASTLINE));
    store.insert_terms(&s, &a(), &Term::iri(format!("{}ontology#LandMass", linked::COASTLINE)));
    store.insert_terms(
        &s,
        &geom_prop(),
        &geometry_literal_wgs84(&Geometry::Polygon(world.land.clone())),
    );
    store.len() - before
}

/// Emit every dataset. Returns total triples added.
pub fn emit_all(world: &World, store: &mut TripleStore) -> usize {
    emit_geonames(world, store)
        + emit_sites(world, store)
        + emit_corine(world, store)
        + emit_roads(world, store)
        + emit_coastline(world, store)
}

/// The landmass geometry as an stRDF WKT literal (for ad-hoc FILTERs).
pub fn landmass_literal(world: &World) -> Term {
    geometry_literal_wgs84(&Geometry::Polygon(world.land.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{CoverClass, WorldSpec};
    use teleios_rdf::strdf::parse_geometry;

    fn world() -> World {
        World::generate(WorldSpec::default())
    }

    #[test]
    fn geonames_triples_count() {
        let w = world();
        let mut st = TripleStore::new();
        let n = emit_geonames(&w, &mut st);
        assert_eq!(n, w.places.len() * 4);
    }

    #[test]
    fn sites_have_geometries() {
        let w = world();
        let mut st = TripleStore::new();
        emit_sites(&w, &mut st);
        let geoms = st.match_terms(None, Some(&geom_prop()), None);
        assert_eq!(geoms.len(), w.sites.len());
        for (_, _, lit) in geoms {
            assert!(parse_geometry(&lit).is_ok());
        }
    }

    #[test]
    fn corine_covers_classes() {
        let w = world();
        let mut st = TripleStore::new();
        emit_corine(&w, &mut st);
        let cover_p = Term::iri(format!("{}ontology#hasLandCover", linked::CORINE));
        let covers = st.match_terms(None, Some(&cover_p), None);
        assert_eq!(covers.len(), w.landcover.len());
    }

    #[test]
    fn coastline_single_feature() {
        let w = world();
        let mut st = TripleStore::new();
        let n = emit_coastline(&w, &mut st);
        assert_eq!(n, 2);
        let lit = landmass_literal(&w);
        let (g, srid) = parse_geometry(&lit).unwrap();
        assert_eq!(srid, 4326);
        assert!(matches!(g, Geometry::Polygon(_)));
    }

    #[test]
    fn emit_all_sums() {
        let w = world();
        let mut st = TripleStore::new();
        let n = emit_all(&w, &mut st);
        assert_eq!(n, st.len());
        assert!(n > 100);
    }

    #[test]
    fn cover_class_concepts() {
        assert_eq!(CoverClass::Forest.concept(), "Forest");
        assert_eq!(CoverClass::Water.concept(), "Water");
    }
}
