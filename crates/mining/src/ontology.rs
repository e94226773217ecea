//! The domain concept ontology with subsumption reasoning.
//!
//! Hierarchies of domain concepts (land cover, environmental events) are
//! "formalized using OWL ontologies and used to annotate standard
//! products" (paper §2). We model the fragment the demo needs: named
//! classes, `rdfs:subClassOf` axioms, labels, and transitive-closure
//! subsumption.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use teleios_rdf::store::TripleStore;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::{rdf, rdfs};

/// Base namespace of the TELEIOS land-cover/monitoring ontology.
pub(crate) const ONTOLOGY_NS: &str = "http://teleios.di.uoa.gr/ontologies/landcover.owl#";

/// Build the IRI of a concept in the TELEIOS ontology.
pub fn concept(local: &str) -> String {
    format!("{ONTOLOGY_NS}{local}")
}

/// An ontology: concepts plus subclass axioms.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    /// Direct superclasses per class IRI. Ordered, because [`Self::emit`]
    /// walks them while the store's dictionary assigns ids in insertion
    /// order: a hash-ordered walk made ids (and the persisted bytes)
    /// differ from run to run.
    supers: BTreeMap<String, BTreeSet<String>>,
    /// Human labels.
    labels: HashMap<String, String>,
}

impl Ontology {
    /// Empty ontology.
    pub(crate) fn new() -> Ontology {
        Ontology::default()
    }

    /// The TELEIOS land-cover / environmental-monitoring hierarchy used
    /// throughout the demo:
    ///
    /// ```text
    /// Concept
    /// ├── LandCover
    /// │   ├── WaterBody ── Sea, Lake
    /// │   ├── Vegetation ── Forest, Agriculture
    /// │   └── ArtificialSurface ── Urban
    /// └── EnvironmentalEvent
    ///     ├── Fire ── ForestFire, AgriculturalFire
    ///     ├── BurntArea
    ///     └── Flood
    /// ```
    pub fn teleios() -> Ontology {
        let mut o = Ontology::new();
        let axioms = [
            ("LandCover", "Concept"),
            ("WaterBody", "LandCover"),
            ("Sea", "WaterBody"),
            ("Lake", "WaterBody"),
            ("Vegetation", "LandCover"),
            ("Forest", "Vegetation"),
            ("Agriculture", "Vegetation"),
            ("ArtificialSurface", "LandCover"),
            ("Urban", "ArtificialSurface"),
            ("EnvironmentalEvent", "Concept"),
            ("Fire", "EnvironmentalEvent"),
            ("ForestFire", "Fire"),
            ("AgriculturalFire", "Fire"),
            ("BurntArea", "EnvironmentalEvent"),
            ("Flood", "EnvironmentalEvent"),
            ("Cloud", "Concept"),
        ];
        for (sub, sup) in axioms {
            o.add_subclass(&concept(sub), &concept(sup));
            o.set_label(&concept(sub), sub);
        }
        o.set_label(&concept("Concept"), "Concept");
        o
    }

    /// Add a subclass axiom (both classes become known).
    pub(crate) fn add_subclass(&mut self, sub: &str, sup: &str) {
        self.supers.entry(sub.to_string()).or_default().insert(sup.to_string());
        self.supers.entry(sup.to_string()).or_default();
    }

    /// Set a class label.
    pub(crate) fn set_label(&mut self, class: &str, label: &str) {
        self.labels.insert(class.to_string(), label.to_string());
    }

    /// True when no classes are known.
    pub fn is_empty(&self) -> bool {
        self.supers.is_empty()
    }

    /// Transitive-reflexive superclass closure of a class.
    pub(crate) fn ancestors(&self, class: &str) -> HashSet<String> {
        let mut out = HashSet::new();
        let mut stack = vec![class.to_string()];
        while let Some(c) = stack.pop() {
            if out.insert(c.clone()) {
                if let Some(sups) = self.supers.get(&c) {
                    stack.extend(sups.iter().cloned());
                }
            }
        }
        out
    }

    /// RDFS subsumption: is `sub` a (reflexive, transitive) subclass of
    /// `sup`?
    pub(crate) fn is_subclass_of(&self, sub: &str, sup: &str) -> bool {
        self.ancestors(sub).contains(sup)
    }

    /// Publish the ontology as RDFS triples. Returns triples added.
    pub fn emit(&self, store: &mut TripleStore) -> usize {
        let before = store.len();
        let owl_class = Term::iri("http://www.w3.org/2002/07/owl#Class");
        for (sub, sups) in &self.supers {
            store.insert_terms(&Term::iri(sub.clone()), &Term::iri(rdf::TYPE), &owl_class);
            for sup in sups {
                store.insert_terms(
                    &Term::iri(sub.clone()),
                    &Term::iri(rdfs::SUB_CLASS_OF),
                    &Term::iri(sup.clone()),
                );
            }
            if let Some(label) = self.labels.get(sub) {
                store.insert_terms(
                    &Term::iri(sub.clone()),
                    &Term::iri(rdfs::LABEL),
                    &Term::literal(label.clone()),
                );
            }
        }
        store.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teleios_hierarchy_subsumption() {
        let o = Ontology::teleios();
        assert!(o.is_subclass_of(&concept("ForestFire"), &concept("Fire")));
        assert!(o.is_subclass_of(&concept("ForestFire"), &concept("EnvironmentalEvent")));
        assert!(o.is_subclass_of(&concept("ForestFire"), &concept("Concept")));
        assert!(o.is_subclass_of(&concept("Sea"), &concept("LandCover")));
        assert!(!o.is_subclass_of(&concept("Sea"), &concept("Fire")));
        assert!(!o.is_subclass_of(&concept("Fire"), &concept("ForestFire")));
    }

    #[test]
    fn subsumption_is_reflexive() {
        let o = Ontology::teleios();
        assert!(o.is_subclass_of(&concept("Fire"), &concept("Fire")));
    }

    #[test]
    fn emit_assigns_the_same_dictionary_ids_to_every_fresh_store() {
        // Two instances, so a hash-ordered walk (each `HashMap` has its
        // own random keys) would hand the two stores different ids.
        let sequences: Vec<Vec<(u32, Term)>> = (0..2)
            .map(|_| {
                let mut st = TripleStore::new();
                Ontology::teleios().emit(&mut st);
                let dict = st.dictionary();
                (0..dict.len() as u32).map(|id| (id, dict.term(id).clone())).collect()
            })
            .collect();
        assert!(!sequences[0].is_empty());
        assert_eq!(sequences[0], sequences[1]);
    }

    #[test]
    fn cycle_tolerated() {
        // Pathological input must not hang the closure computation.
        let mut o = Ontology::new();
        o.add_subclass("http://x/A", "http://x/B");
        o.add_subclass("http://x/B", "http://x/A");
        assert!(o.is_subclass_of("http://x/A", "http://x/B"));
        assert!(o.is_subclass_of("http://x/B", "http://x/A"));
    }

    #[test]
    fn unknown_class_has_singleton_closure() {
        let o = Ontology::teleios();
        let a = o.ancestors("http://unknown/");
        assert_eq!(a.len(), 1);
    }
}
