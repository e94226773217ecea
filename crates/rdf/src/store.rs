//! The triple store: three BTree orderings for index-backed matching.

use crate::dictionary::{Dictionary, TermId};
use crate::term::Term;
use crate::triple::{Triple, TriplePattern};
use std::collections::BTreeSet;

/// A triple store over a term dictionary.
///
/// Three complete orderings — SPO, POS and OSP — are maintained so that
/// every triple-pattern shape resolves through an index range scan:
///
/// | bound positions | index used |
/// |---|---|
/// | S, SP, SPO | SPO |
/// | P, PO | POS |
/// | O, OS | OSP |
/// | (none) | SPO full scan |
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    dict: Dictionary,
    spo: BTreeSet<(TermId, TermId, TermId)>,
    pos: BTreeSet<(TermId, TermId, TermId)>,
    osp: BTreeSet<(TermId, TermId, TermId)>,
}

impl TripleStore {
    /// Empty store.
    pub fn new() -> TripleStore {
        TripleStore::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// The term dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Intern a term (exposed so callers can pre-encode constants).
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.dict.intern(term)
    }

    /// Id of a term if already interned.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dict.id_of(term)
    }

    /// Resolve an id to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// Insert an encoded triple. Returns false when it already existed.
    pub(crate) fn insert(&mut self, t: Triple) -> bool {
        if !self.spo.insert((t.s, t.p, t.o)) {
            return false;
        }
        self.pos.insert((t.p, t.o, t.s));
        self.osp.insert((t.o, t.s, t.p));
        true
    }

    /// Intern terms and insert the triple.
    pub fn insert_terms(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let t = Triple::new(self.dict.intern(s), self.dict.intern(p), self.dict.intern(o));
        self.insert(t)
    }

    /// Remove a triple. Returns false when it was absent.
    pub fn remove(&mut self, t: &Triple) -> bool {
        if !self.spo.remove(&(t.s, t.p, t.o)) {
            return false;
        }
        self.pos.remove(&(t.p, t.o, t.s));
        self.osp.remove(&(t.o, t.s, t.p));
        true
    }

    /// Match a pattern, returning the triples in SPO order.
    pub fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        use std::ops::Bound::Included;
        match (pat.s, pat.p, pat.o) {
            // SPO index.
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&(s, p, o)) {
                    vec![Triple::new(s, p, o)]
                } else {
                    Vec::new()
                }
            }
            (Some(s), Some(p), None) => self
                .spo
                .range((Included((s, p, TermId::MIN)), upper_2(s, p)))
                .map(|&(s, p, o)| Triple::new(s, p, o))
                .collect(),
            (Some(s), None, o) => self
                .spo
                .range((Included((s, TermId::MIN, TermId::MIN)), upper_1(s)))
                .filter(|&&(_, _, to)| o.is_none_or(|o| o == to))
                .map(|&(s, p, o)| Triple::new(s, p, o))
                .collect(),
            // POS index.
            (None, Some(p), Some(o)) => self
                .pos
                .range((Included((p, o, TermId::MIN)), upper_2(p, o)))
                .map(|&(p, o, s)| Triple::new(s, p, o))
                .collect(),
            (None, Some(p), None) => self
                .pos
                .range((Included((p, TermId::MIN, TermId::MIN)), upper_1(p)))
                .map(|&(p, o, s)| Triple::new(s, p, o))
                .collect(),
            // OSP index.
            (None, None, Some(o)) => self
                .osp
                .range((Included((o, TermId::MIN, TermId::MIN)), upper_1(o)))
                .map(|&(o, s, p)| Triple::new(s, p, o))
                .collect(),
            // Full scan.
            (None, None, None) => {
                self.spo.iter().map(|&(s, p, o)| Triple::new(s, p, o)).collect()
            }
        }
    }

    /// Selectivity estimate used by the BGP optimizer.
    ///
    /// For patterns with at least one bound position the exact match
    /// count is computed from the index ranges without materializing
    /// triples (this is the role MonetDB's column statistics play for
    /// Strabon); the S+O shape and the full wildcard fall back to cheap
    /// upper bounds.
    pub fn estimate_pattern(&self, pat: &TriplePattern) -> usize {
        use std::ops::Bound::Included;
        match (pat.s, pat.p, pat.o) {
            (None, None, None) => self.len().max(1),
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)) as usize,
            (Some(s), Some(p), None) => self
                .spo
                .range((Included((s, p, TermId::MIN)), upper_2(s, p)))
                .count(),
            (Some(s), None, None) => self
                .spo
                .range((Included((s, TermId::MIN, TermId::MIN)), upper_1(s)))
                .count(),
            (None, Some(p), Some(o)) => self
                .pos
                .range((Included((p, o, TermId::MIN)), upper_2(p, o)))
                .count(),
            (None, Some(p), None) => self
                .pos
                .range((Included((p, TermId::MIN, TermId::MIN)), upper_1(p)))
                .count(),
            (None, None, Some(o)) => self
                .osp
                .range((Included((o, TermId::MIN, TermId::MIN)), upper_1(o)))
                .count(),
            // S and O bound, P free: bounded by the subject's degree.
            (Some(s), None, Some(_)) => self
                .spo
                .range((Included((s, TermId::MIN, TermId::MIN)), upper_1(s)))
                .count(),
        }
    }

    /// Iterate all triples (SPO order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(|&(s, p, o)| Triple::new(s, p, o))
    }

    /// Convenience: match on *terms*, returning decoded term triples.
    pub fn match_terms(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Vec<(Term, Term, Term)> {
        // An un-interned constant matches nothing.
        let encode = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                Some(term) => self.dict.id_of(term).map(Some),
            }
        };
        let (Some(s), Some(p), Some(o)) = (encode(s), encode(p), encode(o)) else {
            return Vec::new();
        };
        self.match_pattern(&TriplePattern::new(s, p, o))
            .into_iter()
            .map(|t| {
                (
                    self.dict.term(t.s).clone(),
                    self.dict.term(t.p).clone(),
                    self.dict.term(t.o).clone(),
                )
            })
            .collect()
    }

    /// Objects of `(s, p, ?o)` as terms.
    pub fn objects(&self, s: &Term, p: &Term) -> Vec<Term> {
        self.match_terms(Some(s), Some(p), None)
            .into_iter()
            .map(|(_, _, o)| o)
            .collect()
    }

    /// Subjects of `(?s, p, o)` as terms.
    pub fn subjects(&self, p: &Term, o: &Term) -> Vec<Term> {
        self.match_terms(None, Some(p), Some(o))
            .into_iter()
            .map(|(s, _, _)| s)
            .collect()
    }
}

fn upper_1(a: TermId) -> std::ops::Bound<(TermId, TermId, TermId)> {
    match a.checked_add(1) {
        Some(next) => std::ops::Bound::Excluded((next, TermId::MIN, TermId::MIN)),
        None => std::ops::Bound::Unbounded,
    }
}

fn upper_2(a: TermId, b: TermId) -> std::ops::Bound<(TermId, TermId, TermId)> {
    match b.checked_add(1) {
        Some(next) => std::ops::Bound::Excluded((a, next, TermId::MIN)),
        None => upper_1(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn setup() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_terms(&iri("img1"), &iri("type"), &iri("RawImage"));
        st.insert_terms(&iri("img2"), &iri("type"), &iri("RawImage"));
        st.insert_terms(&iri("h1"), &iri("type"), &iri("Hotspot"));
        st.insert_terms(&iri("h1"), &iri("from"), &iri("img1"));
        st.insert_terms(&iri("img1"), &iri("cloud"), &Term::double(0.3));
        st
    }

    #[test]
    fn insert_dedup() {
        let mut st = setup();
        assert_eq!(st.len(), 5);
        assert!(!st.insert_terms(&iri("img1"), &iri("type"), &iri("RawImage")));
        assert_eq!(st.len(), 5);
    }

    #[test]
    fn match_by_predicate_object() {
        let st = setup();
        let subs = st.subjects(&iri("type"), &iri("RawImage"));
        assert_eq!(subs.len(), 2);
        assert!(subs.contains(&iri("img1")));
        assert!(subs.contains(&iri("img2")));
    }

    #[test]
    fn match_by_subject() {
        let st = setup();
        let all = st.match_terms(Some(&iri("img1")), None, None);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn match_by_subject_predicate() {
        let st = setup();
        let objs = st.objects(&iri("h1"), &iri("from"));
        assert_eq!(objs, vec![iri("img1")]);
    }

    #[test]
    fn match_by_object_only() {
        let st = setup();
        let hits = st.match_terms(None, None, Some(&iri("img1")));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, iri("h1"));
    }

    #[test]
    fn match_fully_bound_and_absent() {
        let st = setup();
        assert_eq!(st.match_terms(Some(&iri("img1")), Some(&iri("type")), Some(&iri("RawImage"))).len(), 1);
        assert!(st.match_terms(Some(&iri("img1")), Some(&iri("type")), Some(&iri("Hotspot"))).is_empty());
        // Constant never interned: no panic, no results.
        assert!(st.match_terms(Some(&iri("ghost")), None, None).is_empty());
    }

    #[test]
    fn full_scan() {
        let st = setup();
        assert_eq!(st.match_pattern(&TriplePattern::any()).len(), 5);
        assert_eq!(st.iter().count(), 5);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut st = setup();
        let s = st.id_of(&iri("h1")).unwrap();
        let p = st.id_of(&iri("from")).unwrap();
        let o = st.id_of(&iri("img1")).unwrap();
        let t = Triple::new(s, p, o);
        assert!(st.remove(&t));
        assert!(!st.remove(&t));
        assert_eq!(st.len(), 4);
        assert!(st.match_terms(None, Some(&iri("from")), None).is_empty());
        assert!(st.match_terms(None, None, Some(&iri("img1"))).is_empty());
    }

    #[test]
    fn index_consistency_under_churn() {
        let mut st = TripleStore::new();
        for i in 0..200 {
            st.insert_terms(&iri(&format!("s{}", i % 20)), &iri(&format!("p{}", i % 5)), &Term::int(i));
        }
        // Remove every triple with predicate p0 and verify counts agree.
        let p0 = st.id_of(&iri("p0")).unwrap();
        let to_remove = st.match_pattern(&TriplePattern::new(None, Some(p0), None));
        let n = to_remove.len();
        for t in to_remove {
            assert!(st.remove(&t));
        }
        assert_eq!(st.len(), 200 - n);
        assert!(st.match_pattern(&TriplePattern::new(None, Some(p0), None)).is_empty());
        // The other indexes agree.
        assert_eq!(st.iter().count(), st.len());
    }

    #[test]
    fn estimates_monotone_in_boundness() {
        let st = setup();
        let e3 = st.estimate_pattern(&TriplePattern::new(Some(0), Some(1), Some(2)));
        let e1 = st.estimate_pattern(&TriplePattern::new(Some(0), None, None));
        let e0 = st.estimate_pattern(&TriplePattern::any());
        assert!(e3 <= e1 && e1 <= e0);
    }
}
