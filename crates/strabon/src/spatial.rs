//! Spatial sidecar: geometry cache and R-tree over WKT literals.
//!
//! Strabon keeps geometries in the dictionary as `strdf:WKT` literals;
//! parsing WKT on every FILTER evaluation would dominate query time, so
//! the sidecar caches parsed geometries per term id and maintains an
//! R-tree of their envelopes. The sidecar is rebuilt lazily after any
//! store mutation.

use std::collections::HashMap;
use std::sync::Arc;
use teleios_exec::WorkerPool;
use teleios_geo::index::RTree;
use teleios_geo::{Envelope, Geometry};
use teleios_rdf::dictionary::TermId;
use teleios_rdf::store::TripleStore;
use teleios_rdf::strdf;

/// Lazily built spatial index over every `strdf:WKT` literal in a store.
#[derive(Debug, Default)]
pub struct SpatialSidecar {
    built: bool,
    geometries: HashMap<TermId, Arc<Geometry>>,
    rtree: RTree<TermId>,
}

impl SpatialSidecar {
    /// Drop the index (call after any store mutation).
    pub fn invalidate(&mut self) {
        self.built = false;
        self.geometries.clear();
        self.rtree = RTree::new();
    }

    /// True when the sidecar reflects the current store contents.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Build the index from the store's dictionary if not yet built,
    /// bulk-loading the R-tree on `pool` ([`RTree::bulk_load_with`] —
    /// the same tree at every pool size).
    pub fn ensure_built(&mut self, store: &TripleStore, pool: &WorkerPool) {
        if self.built {
            return;
        }
        let dict = store.dictionary();
        let mut items: Vec<(Envelope, TermId)> = Vec::new();
        for id in 0..dict.len() as TermId {
            let term = dict.term(id);
            if strdf::is_geometry_literal(term) {
                if let Ok((g, _srid)) = strdf::parse_geometry(term) {
                    let env = g.envelope();
                    self.geometries.insert(id, Arc::new(g));
                    if !env.is_empty() {
                        items.push((env, id));
                    }
                }
            }
        }
        self.rtree = RTree::bulk_load_with(pool, items);
        self.built = true;
    }

    /// Parsed geometry for a term id (after `ensure_built`).
    pub fn geometry(&self, id: TermId) -> Option<Arc<Geometry>> {
        self.geometries.get(&id).cloned()
    }

    /// Number of indexed geometries.
    pub fn len(&self) -> usize {
        self.geometries.len()
    }

    /// True when no geometries are indexed.
    pub fn is_empty(&self) -> bool {
        self.geometries.is_empty()
    }

    /// Term ids whose envelope intersects `query` (candidate set for
    /// spatial FILTER pre-filtering).
    pub fn candidates(&self, query: &Envelope) -> std::collections::HashSet<TermId> {
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
        sc.ensure_built(&st, &WorkerPool::with_threads(2));
        assert_eq!(sc.len(), 10);
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
        sc.ensure_built(&st, &WorkerPool::with_threads(2));
        let lit = strdf::geometry_literal_wgs84(&Geometry::Point(Point::new(1.0, 0.0)));
        let id = st.id_of(&lit).unwrap();
        let g = sc.geometry(id).unwrap();
        assert_eq!(g.envelope().min.x, 1.0);
    }

    #[test]
    fn invalidate_clears() {
        let st = store_with_points(2);
        let mut sc = SpatialSidecar::default();
        sc.ensure_built(&st, &WorkerPool::with_threads(2));
        assert!(sc.is_built());
        sc.invalidate();
        assert!(!sc.is_built());
        assert!(sc.is_empty());
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
        sc.ensure_built(&st, &WorkerPool::with_threads(2));
        assert!(sc.is_empty());
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
        sc.ensure_built(&st, &WorkerPool::with_threads(2));
        assert!(sc.is_empty());
    }
}
