//! Semantic annotation: publishing classified patches as stRDF.
//!
//! Annotations link an image product to concepts from the domain
//! ontology per patch, with the patch footprint as an `strdf:WKT`
//! geometry — "in this way, we attempt to close the semantic gap that
//! exists between user requests and searchable information available
//! explicitly in the archive" (paper §1).

use crate::classify::Classifier;
use crate::ontology::Ontology;
use teleios_geo::Geometry;
use teleios_geo::geometry::Polygon;
use teleios_ingest::features::Patch;
use teleios_rdf::store::TripleStore;
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::strdf;

/// Property linking a product to one of its patch annotations.
pub(crate) const HAS_ANNOTATION: &str =
    "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAnnotation";
/// Property linking an annotation to its concept.
pub(crate) const DEPICTS: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#depicts";

/// Annotate every patch of a product with the classifier's concept and
/// publish the result. Returns the number of annotations created.
pub fn annotate_product(
    product_id: &str,
    patches: &[Patch],
    classifier: &Classifier,
    store: &mut TripleStore,
) -> usize {
    let product = Term::iri(format!("http://teleios.di.uoa.gr/products/{product_id}"));
    for patch in patches {
        let concept = classifier.classify(&patch.features).to_string();
        let ann = Term::iri(format!(
            "http://teleios.di.uoa.gr/annotations/{product_id}/p{}-{}",
            patch.py, patch.px
        ));
        store.insert_terms(&product, &Term::iri(HAS_ANNOTATION), &ann);
        store.insert_terms(&ann, &Term::iri(DEPICTS), &Term::iri(concept));
        store.insert_terms(
            &ann,
            &Term::iri(strdf::HAS_GEOMETRY),
            &geometry_literal_wgs84(&Geometry::Polygon(Polygon::from_envelope(&patch.envelope))),
        );
    }
    patches.len()
}

/// Semantic search over annotations: annotation IRIs whose concept is a
/// subclass of `concept` (subsumption-aware, the ontology's added value
/// over raw metadata search — experiment E8).
pub(crate) fn find_annotations_by_concept(
    concept: &str,
    ontology: &Ontology,
    store: &TripleStore,
) -> Vec<Term> {
    let depicts = Term::iri(DEPICTS);
    store
        .match_terms(None, Some(&depicts), None)
        .into_iter()
        .filter(|(_, _, obj)| {
            obj.as_iri().is_some_and(|c| ontology.is_subclass_of(c, concept))
        })
        .map(|(s, _, _)| s)
        .collect()
}

/// Products having at least one annotation whose concept subsumes under
/// `concept`.
pub fn find_products_by_concept(
    concept: &str,
    ontology: &Ontology,
    store: &TripleStore,
) -> Vec<Term> {
    let has_ann = Term::iri(HAS_ANNOTATION);
    let mut products: Vec<Term> = find_annotations_by_concept(concept, ontology, store)
        .into_iter()
        .flat_map(|ann| store.subjects(&has_ann, &ann))
        .collect();
    products.sort();
    products.dedup();
    products
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::LabeledExample;
    use crate::ontology::{concept, Ontology};
    use teleios_geo::{Coord, Envelope};

    fn patch(py: usize, px: usize, features: Vec<f64>) -> Patch {
        Patch {
            py,
            px,
            envelope: Envelope::new(
                Coord::new(px as f64, py as f64),
                Coord::new(px as f64 + 1.0, py as f64 + 1.0),
            ),
            features,
        }
    }

    fn classifier() -> Classifier {
        Classifier::train_knn(
            1,
            vec![
                LabeledExample { features: vec![0.0], label: concept("Sea") },
                LabeledExample { features: vec![10.0], label: concept("ForestFire") },
            ],
        )
    }

    #[test]
    fn annotation_triples_created() {
        let mut st = TripleStore::new();
        let patches = vec![patch(0, 0, vec![0.1]), patch(0, 1, vec![9.5])];
        let n = annotate_product("scene-1", &patches, &classifier(), &mut st);
        assert_eq!(n, 2);
        assert_eq!(st.len(), 6);
    }

    #[test]
    fn semantic_search_uses_subsumption() {
        let mut st = TripleStore::new();
        let patches = vec![patch(0, 0, vec![0.1]), patch(0, 1, vec![9.5])];
        annotate_product("scene-1", &patches, &classifier(), &mut st);
        let o = Ontology::teleios();
        // Searching for the *superclass* Fire finds the ForestFire patch.
        let fire_anns = find_annotations_by_concept(&concept("Fire"), &o, &st);
        assert_eq!(fire_anns.len(), 1);
        // Searching for LandCover finds the Sea patch.
        let lc_anns = find_annotations_by_concept(&concept("LandCover"), &o, &st);
        assert_eq!(lc_anns.len(), 1);
        // Searching Concept finds both.
        assert_eq!(find_annotations_by_concept(&concept("Concept"), &o, &st).len(), 2);
    }

    #[test]
    fn products_by_concept_dedup() {
        let mut st = TripleStore::new();
        let patches = vec![patch(0, 0, vec![9.0]), patch(0, 1, vec![9.5])];
        annotate_product("scene-1", &patches, &classifier(), &mut st);
        let o = Ontology::teleios();
        let products = find_products_by_concept(&concept("Fire"), &o, &st);
        assert_eq!(products.len(), 1);
        assert_eq!(
            products[0],
            Term::iri("http://teleios.di.uoa.gr/products/scene-1")
        );
    }

    #[test]
    fn exact_concept_search_excludes_siblings() {
        let mut st = TripleStore::new();
        annotate_product("s", &[patch(0, 0, vec![9.9])], &classifier(), &mut st);
        let o = Ontology::teleios();
        assert!(find_annotations_by_concept(&concept("AgriculturalFire"), &o, &st).is_empty());
        assert_eq!(find_annotations_by_concept(&concept("ForestFire"), &o, &st).len(), 1);
    }

    #[test]
    fn annotations_carry_geometry() {
        let mut st = TripleStore::new();
        annotate_product("s", &[patch(2, 3, vec![0.0])], &classifier(), &mut st);
        let anns = find_annotations_by_concept(&concept("Sea"), &Ontology::teleios(), &st);
        let geom = st.objects(&anns[0], &Term::iri(strdf::HAS_GEOMETRY));
        assert_eq!(geom.len(), 1);
        let (g, _) = teleios_rdf::strdf::parse_geometry(&geom[0]).unwrap();
        assert_eq!(g.envelope().min, Coord::new(3.0, 2.0));
    }
}
