//! Spatial sidecar: geometry cache and R-tree over WKT literals.
//!
//! Strabon keeps geometries in the dictionary as `strdf:WKT` literals;
//! parsing WKT on every FILTER evaluation would dominate query time, so
//! the sidecar caches parsed geometries per term id and maintains an
//! R-tree of their envelopes.
//!
//! The sidecar indexes dictionary ids, not triples, and the dictionary
//! is append-only (removing a triple never removes a term), so in-place
//! mutation of the store can only leave the sidecar *short*, never
//! wrong: catching up means reading the ids interned since last time.
//! A replaced store brings another dictionary, whose ids may name other
//! terms; the sidecar sees its other [`Dictionary::identity`] and
//! starts over.
//!
//! [`Dictionary::identity`]: teleios_rdf::dictionary::Dictionary::identity

use std::collections::HashMap;
use std::sync::Arc;
use teleios_exec::WorkerPool;
use teleios_geo::index::RTree;
use teleios_geo::{Envelope, Geometry};
use teleios_rdf::dictionary::TermId;
use teleios_rdf::store::TripleStore;
use teleios_rdf::strdf;

/// Spatial index over every `strdf:WKT` literal of a store's dictionary.
#[derive(Debug, Default)]
pub(crate) struct SpatialSidecar {
    /// Identity of the dictionary read so far (0: none yet).
    dictionary: u64,
    /// High-water mark: dictionary ids below it have been read.
    mark: TermId,
    geometries: HashMap<TermId, Arc<Geometry>>,
    /// The R-tree's entries, in id order — what a from-scratch build
    /// would bulk-load.
    items: Vec<(Envelope, TermId)>,
    rtree: RTree<TermId>,
}

impl SpatialSidecar {
    /// Read the dictionary ids interned since the last call, starting
    /// over when `store` holds another dictionary than last time. Only
    /// when one of the new ids is a geometry is the R-tree bulk-loaded
    /// again, on `pool`, over all entries ([`RTree::bulk_load_with`] —
    /// the same tree at every pool size, and the tree a from-scratch
    /// build of this dictionary produces).
    pub(crate) fn catch_up(&mut self, store: &TripleStore, pool: &WorkerPool) {
        let dict = store.dictionary();
        if self.dictionary != dict.identity() {
            *self = SpatialSidecar { dictionary: dict.identity(), ..SpatialSidecar::default() };
        }
        let indexed = self.items.len();
        for id in self.mark..dict.len() as TermId {
            let term = dict.term(id);
            if strdf::is_geometry_literal(term) {
                if let Ok((g, _srid)) = strdf::parse_geometry(term) {
                    let env = g.envelope();
                    self.geometries.insert(id, Arc::new(g));
                    if !env.is_empty() {
                        self.items.push((env, id));
                    }
                }
            }
        }
        self.mark = dict.len() as TermId;
        if self.items.len() > indexed {
            self.rtree = RTree::bulk_load_with(pool, self.items.clone());
        }
    }

    /// Parsed geometry for a term id (after `catch_up`).
    pub(crate) fn geometry(&self, id: TermId) -> Option<Arc<Geometry>> {
        self.geometries.get(&id).cloned()
    }

    /// Term ids whose envelope intersects `query` (candidate set for
    /// spatial FILTER pre-filtering).
    pub(crate) fn candidates(&self, query: &Envelope) -> std::collections::HashSet<TermId> {
        self.rtree.query(query).into_iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::geometry::Point;
    use teleios_rdf::term::Term;

    fn store_with_points(n: usize) -> TripleStore {
        let mut st = TripleStore::new();
        for i in 0..n {
            let g = Geometry::Point(Point::new(i as f64, 0.0));
            st.insert_terms(
                &Term::iri(format!("http://x/f{i}")),
                &Term::iri(teleios_rdf::vocab::strdf::HAS_GEOMETRY),
                &strdf::geometry_literal_wgs84(&g),
            );
        }
        st
    }

    #[test]
    fn builds_and_finds_candidates() {
        let st = store_with_points(10);
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        assert_eq!(sc.geometries.len(), 10);
        let q = Envelope::new(
            teleios_geo::Coord::new(2.5, -1.0),
            teleios_geo::Coord::new(5.5, 1.0),
        );
        let cands = sc.candidates(&q);
        assert_eq!(cands.len(), 3); // points 3, 4, 5
    }

    #[test]
    fn geometry_lookup() {
        let st = store_with_points(3);
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        let lit = strdf::geometry_literal_wgs84(&Geometry::Point(Point::new(1.0, 0.0)));
        let id = st.id_of(&lit).unwrap();
        let g = sc.geometry(id).unwrap();
        assert_eq!(g.envelope().min.x, 1.0);
    }

    #[test]
    fn writes_through_store_mut_keep_the_parsed_geometries() {
        let mut db = crate::Strabon::new();
        let has_geometry = Term::iri(teleios_rdf::vocab::strdf::HAS_GEOMETRY);
        let point = |x: f64| strdf::geometry_literal_wgs84(&Geometry::Point(Point::new(x, 0.0)));
        db.insert(&Term::iri("http://x/a"), &has_geometry, &point(1.0));
        let pool = db.pool();
        db.spatial.catch_up(&db.store, &pool);
        let a = db.store.id_of(&point(1.0)).unwrap();
        let cached = db.spatial.geometry(a).unwrap();
        db.store_mut().insert_terms(&Term::iri("http://x/b"), &has_geometry, &point(2.0));
        db.spatial.catch_up(&db.store, &pool);
        assert!(Arc::ptr_eq(&cached, &db.spatial.geometry(a).unwrap()), "a was parsed again");
        let b = db.store.id_of(&point(2.0)).unwrap();
        assert_eq!(db.spatial.geometry(b).unwrap().envelope().min.x, 2.0);
        assert_eq!(db.spatial.candidates(&Geometry::Point(Point::new(2.0, 0.0)).envelope()).len(), 1);
    }

    #[test]
    fn non_geometry_literals_ignored() {
        let mut st = TripleStore::new();
        st.insert_terms(
            &Term::iri("http://x/a"),
            &Term::iri("http://x/p"),
            &Term::literal("POINT (1 2)"), // plain literal, not strdf:WKT
        );
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        assert!(sc.geometries.is_empty());
    }

    #[test]
    fn malformed_wkt_skipped() {
        let mut st = TripleStore::new();
        st.insert_terms(
            &Term::iri("http://x/a"),
            &Term::iri("http://x/p"),
            &Term::typed_literal("NOT WKT", teleios_rdf::vocab::strdf::WKT),
        );
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        assert!(sc.geometries.is_empty());
    }
}
