//! Spatial sidecar: geometry cache and R-tree over WKT literals, the
//! one spatial access path of stSPARQL.
//!
//! Strabon keeps geometries in the dictionary as `strdf:WKT` literals;
//! parsing WKT on every FILTER evaluation would dominate query time, so
//! the sidecar caches parsed geometries per term id and maintains an
//! R-tree of their envelopes. Every spatial FILTER the planner
//! recognizes is a spatial step over it: as a join, a constant probe
//! geometry queries the R-tree with its [`window`], the exact predicate
//! runs on the candidates' cached geometries, and
//! [`SpatialSidecar::estimate`] costs the probe; as a check, the exact
//! predicate runs on the two bound arguments' cached geometries.
//! `Rows::geometry` hands the cached geometries to front ends by id.
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
    /// Geometries without coordinates (`… EMPTY`): no envelope, so no
    /// R-tree entry, in id order.
    empty: Vec<TermId>,
    /// The union of the entries' envelopes and the sums of their widths
    /// and heights: what [`SpatialSidecar::estimate`] reads.
    extent: Envelope,
    sizes: (f64, f64),
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
                    if env.is_empty() {
                        self.empty.push(id);
                    } else {
                        self.items.push((env, id));
                        self.extent = self.extent.union(&env);
                        self.sizes = (self.sizes.0 + env.width(), self.sizes.1 + env.height());
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

    /// Term ids whose envelope intersects `query`, in id order (row
    /// order is part of the determinism contract); for an empty
    /// `query` — the probe of a geometry without coordinates — the
    /// geometries without coordinates.
    pub(crate) fn candidates(&self, query: &Envelope) -> Vec<TermId> {
        if query.is_empty() {
            return self.empty.clone();
        }
        let mut ids: Vec<TermId> = self.rtree.query(query).into_iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Expected [`SpatialSidecar::candidates`] of a probe envelope grown
    /// by `reach`: every entry whose envelope meets it, under a uniform
    /// spread over the extent — entries × (probe width + mean entry
    /// width) × (probe height + mean entry height) ÷ extent area, the
    /// Minkowski sum of probe and entry over the area they fall in; at
    /// most every entry.
    pub(crate) fn estimate(&self, probe: &Envelope, reach: f64) -> f64 {
        let n = self.items.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let grown = |p: f64, sum: f64| (p + 2.0 * reach + sum / n).max(0.0);
        let area = self.extent.area();
        if area > 0.0 { (n * grown(probe.width(), self.sizes.0) * grown(probe.height(), self.sizes.1) / area).min(n) } else { n }
    }
}

/// The R-tree window of a probe envelope: grown by `reach` (a distance
/// bound; 0 for the topological predicates) plus a slack of 1e-9 times
/// the coordinates' magnitude (at least 1e-9) — above the 1e-12
/// tolerance of `strdf:equals` and the rounding of the exact
/// predicates' arithmetic, so the window never drops a geometry the
/// exact predicate keeps.
pub(crate) fn window(probe: &Envelope, reach: f64) -> Envelope {
    let magnitude = [probe.min.x, probe.min.y, probe.max.x, probe.max.y, reach].map(f64::abs);
    probe.buffer(reach + 1e-9 * magnitude.into_iter().fold(1.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::geometry::Point;
    use teleios_geo::Coord;
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
    fn candidates_come_in_id_order() {
        let st = store_with_points(10);
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        assert_eq!(sc.geometries.len(), 10);
        let id = |x: f64| st.id_of(&strdf::geometry_literal_wgs84(&Geometry::Point(Point::new(x, 0.0)))).unwrap();
        let q = Envelope::new(Coord::new(2.5, -1.0), Coord::new(5.5, 1.0));
        assert_eq!(sc.candidates(&q), vec![id(3.0), id(4.0), id(5.0)]);
        assert_eq!(sc.geometry(id(1.0)).unwrap().envelope().min.x, 1.0);
    }

    #[test]
    fn estimate_scales_the_entries_by_the_probe_area() {
        // Points on a 10 × 10 grid: a 3 × 3 window holds 9 of 100.
        let mut st = TripleStore::new();
        for i in 0..100 {
            let g = Geometry::Point(Point::new((i % 10) as f64, (i / 10) as f64));
            let literal = strdf::geometry_literal_wgs84(&g);
            st.insert_terms(&Term::iri(format!("http://x/f{i}")), &Term::iri("http://x/p"), &literal);
        }
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(1));
        let q = Envelope::new(Coord::new(2.5, 2.5), Coord::new(5.5, 5.5));
        assert_eq!(sc.candidates(&q).len(), 9);
        assert!((sc.estimate(&q, 0.0) - 100.0 * 9.0 / 81.0).abs() < 1e-9);
        // Grown by a distance bound of 1 on every side: a 5 × 5 window.
        assert!((sc.estimate(&q, 1.0) - 100.0 * 25.0 / 81.0).abs() < 1e-9);
        assert_eq!(SpatialSidecar::default().estimate(&q, 0.0), 0.0);
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
    fn non_geometries_are_skipped_and_empty_ones_kept_apart() {
        let mut st = TripleStore::new();
        let (a, p) = (Term::iri("http://x/a"), Term::iri("http://x/p"));
        // A plain literal is no strdf:WKT, and malformed WKT no geometry.
        st.insert_terms(&a, &p, &Term::literal("POINT (1 2)"));
        st.insert_terms(&a, &p, &Term::typed_literal("NOT WKT", teleios_rdf::vocab::strdf::WKT));
        let mut sc = SpatialSidecar::default();
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        assert!(sc.geometries.is_empty());
        // A geometry without coordinates has no R-tree entry; an empty
        // probe's candidates are such geometries.
        let empty = Term::typed_literal("MULTIPOINT EMPTY", teleios_rdf::vocab::strdf::WKT);
        st.insert_terms(&a, &p, &empty);
        sc.catch_up(&st, &WorkerPool::with_threads(2));
        assert!(sc.items.is_empty());
        assert_eq!(sc.candidates(&Envelope::EMPTY), vec![st.id_of(&empty).unwrap()]);
    }
}
