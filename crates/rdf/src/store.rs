//! The triple store: three BTree orderings for index-backed matching.

use crate::dictionary::{Dictionary, TermId};
use crate::term::Term;
use crate::triple::{Triple, TriplePattern};
use std::collections::{BTreeSet, HashMap};

type Key = (TermId, TermId, TermId);

/// What the store knows about one predicate's triples — or, summed,
/// about every predicate's ([`TripleStore::predicate_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Triples.
    pub triples: usize,
    /// Distinct subjects.
    pub subjects: usize,
    /// Distinct objects.
    pub objects: usize,
}

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
///
/// `insert` and `remove`, the only writers, also keep each predicate's
/// [`PredicateStats`] — the statistics the stSPARQL planner costs on.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    dict: Dictionary,
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
    stats: HashMap<TermId, PredicateStats>,
    /// The sum of `stats` over every predicate.
    totals: PredicateStats,
}

impl TripleStore {
    /// Empty store.
    pub fn new() -> TripleStore {
        TripleStore::default()
    }

    /// A store over `dict` holding `triples` (in any order, repeats
    /// folded): each ordering collected in bulk and the statistics
    /// counted over the orderings that group them, where `insert` would
    /// probe two ranges per triple.
    pub(crate) fn bulk(dict: Dictionary, triples: &[Triple]) -> TripleStore {
        let spo: BTreeSet<Key> = triples.iter().map(|t| (t.s, t.p, t.o)).collect();
        let pos = spo.iter().map(|&(s, p, o)| (p, o, s)).collect();
        let osp = spo.iter().map(|&(s, p, o)| (o, s, p)).collect();
        let (stats, totals) = (HashMap::new(), PredicateStats::default());
        let mut store = TripleStore { dict, spo, pos, osp, stats, totals };
        // POS runs each predicate's objects together, SPO each subject's
        // predicates.
        let (mut object, mut subject) = (None, None);
        for &(p, o, _) in &store.pos {
            let new = object.replace((p, o)) != Some((p, o));
            for stats in [store.stats.entry(p).or_default(), &mut store.totals] {
                stats.triples += 1;
                stats.objects += usize::from(new);
            }
        }
        for &(s, p, _) in &store.spo {
            if subject.replace((s, p)) != Some((s, p)) {
                store.stats.entry(p).or_default().subjects += 1;
                store.totals.subjects += 1;
            }
        }
        store
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

    /// Insert a triple of this store's ids. Returns false when it
    /// already existed.
    pub fn insert(&mut self, t: Triple) -> bool {
        if !self.spo.insert((t.s, t.p, t.o)) {
            return false;
        }
        self.pos.insert((t.p, t.o, t.s));
        self.osp.insert((t.o, t.s, t.p));
        // The triple just written is its `(s, p)` / `(p, o)` pair's only
        // one exactly when the pair is new.
        let new_subject =
            self.match_pattern(&TriplePattern::new(Some(t.s), Some(t.p), None)).nth(1).is_none();
        let new_object =
            self.match_pattern(&TriplePattern::new(None, Some(t.p), Some(t.o))).nth(1).is_none();
        self.count(t.p, new_subject, new_object, true);
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
        let gone_subject =
            self.match_pattern(&TriplePattern::new(Some(t.s), Some(t.p), None)).next().is_none();
        let gone_object =
            self.match_pattern(&TriplePattern::new(None, Some(t.p), Some(t.o))).next().is_none();
        self.count(t.p, gone_subject, gone_object, false);
        true
    }

    /// Add (or take away) one triple of `p`, and one subject and one
    /// object where its pair is the first (or was the last).
    fn count(&mut self, p: TermId, subject: bool, object: bool, add: bool) {
        let step = |n: &mut usize, by: bool| {
            if add {
                *n += usize::from(by);
            } else {
                *n -= usize::from(by);
            }
        };
        for stats in [self.stats.entry(p).or_default(), &mut self.totals] {
            step(&mut stats.triples, true);
            step(&mut stats.subjects, subject);
            step(&mut stats.objects, object);
        }
        if self.stats.get(&p).is_some_and(|s| s.triples == 0) {
            self.stats.remove(&p);
        }
    }

    /// Triples, distinct subjects and distinct objects of predicate
    /// `p`, or summed over every predicate for `None`. O(1): `insert`
    /// and `remove` keep them.
    pub fn predicate_stats(&self, p: Option<TermId>) -> PredicateStats {
        match p {
            Some(p) => self.stats.get(&p).copied().unwrap_or_default(),
            None => self.totals,
        }
    }

    /// Number of distinct predicates.
    pub fn predicates(&self) -> usize {
        self.stats.len()
    }

    /// The triples matching a pattern, in the key order of the index
    /// its shape reads (the table on [`TripleStore`]). This is the one
    /// place a shape picks its index: the ordering whose key its
    /// constants lead, scanned over that bound prefix.
    pub fn match_pattern(&self, pat: &TriplePattern) -> impl Iterator<Item = Triple> + '_ {
        let (s, p, o) = (pat.s, pat.p, pat.o);
        let (index, key, triple): (_, _, fn(Key) -> Triple) = match (s, p, o) {
            (Some(_), Some(_), _) | (Some(_), None, None) | (None, None, None) => {
                (&self.spo, (s, p, o), |(s, p, o)| Triple::new(s, p, o))
            }
            (None, Some(_), _) => (&self.pos, (p, o, s), |(p, o, s)| Triple::new(s, p, o)),
            (_, None, Some(_)) => (&self.osp, (o, s, p), |(o, s, p)| Triple::new(s, p, o)),
        };
        let fill = |id: TermId| (key.0.unwrap_or(id), key.1.unwrap_or(id), key.2.unwrap_or(id));
        index.range(fill(TermId::MIN)..=fill(TermId::MAX)).map(move |&k| triple(k))
    }

    /// Match count of a pattern's constants, taken once per pattern by
    /// the BGP planner.
    ///
    /// A predicate alone reads its [`PredicateStats`]; other shapes
    /// with a bound position count their index range without
    /// materializing triples (this is the role MonetDB's column
    /// statistics play for Strabon); the S+O shape and the full
    /// wildcard fall back to cheap upper bounds.
    pub fn estimate_pattern(&self, pat: &TriplePattern) -> usize {
        match (pat.s, pat.p, pat.o) {
            (None, None, None) => self.len().max(1),
            (None, Some(p), None) => self.predicate_stats(Some(p)).triples,
            // S and O bound, P free: bounded by the subject's degree.
            (Some(s), None, Some(_)) => {
                self.match_pattern(&TriplePattern::new(Some(s), None, None)).count()
            }
            _ => self.match_pattern(pat).count(),
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
        self.match_terms(Some(s), Some(p), None).into_iter().map(|(_, _, o)| o).collect()
    }

    /// Subjects of `(?s, p, o)` as terms.
    pub fn subjects(&self, p: &Term, o: &Term) -> Vec<Term> {
        self.match_terms(None, Some(p), Some(o)).into_iter().map(|(s, _, _)| s).collect()
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
        assert_eq!(
            st.match_terms(Some(&iri("img1")), Some(&iri("type")), Some(&iri("RawImage"))).len(),
            1
        );
        assert!(st
            .match_terms(Some(&iri("img1")), Some(&iri("type")), Some(&iri("Hotspot")))
            .is_empty());
        // Constant never interned: no panic, no results.
        assert!(st.match_terms(Some(&iri("ghost")), None, None).is_empty());
    }

    #[test]
    fn full_scan() {
        let st = setup();
        assert_eq!(st.match_pattern(&TriplePattern::any()).count(), 5);
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
            st.insert_terms(
                &iri(&format!("s{}", i % 20)),
                &iri(&format!("p{}", i % 5)),
                &Term::int(i),
            );
        }
        // Remove every triple with predicate p0 and verify counts agree.
        let p0 = st.id_of(&iri("p0")).unwrap();
        let to_remove: Vec<_> =
            st.match_pattern(&TriplePattern::new(None, Some(p0), None)).collect();
        let n = to_remove.len();
        for t in to_remove {
            assert!(st.remove(&t));
        }
        assert_eq!(st.len(), 200 - n);
        assert!(st.match_pattern(&TriplePattern::new(None, Some(p0), None)).next().is_none());
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
