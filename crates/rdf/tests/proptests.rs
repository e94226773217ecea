//! Property-based tests for the RDF layer: Turtle roundtrips and store
//! index consistency under random workloads.

use std::collections::{BTreeMap, BTreeSet};
use teleios_check::{forall, Gen};
use teleios_rdf::persist::{load_triple_store, persist_triple_store};
use teleios_rdf::store::{PredicateStats, TripleStore};
use teleios_rdf::term::Term;
use teleios_rdf::triple::{Triple, TriplePattern};
use teleios_rdf::turtle;
use teleios_store::{transact, DurableBackend, DurableConfig, MemMedium};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGITS: &str = "abcdefghijklmnopqrstuvwxyz0123456789";

fn iri(g: &mut Gen) -> Term {
    let local = g.string(LOWER, 1..2) + &g.string(LOWER_DIGITS, 0..9);
    Term::iri(format!("http://example.org/{local}"))
}

fn literal(g: &mut Gen) -> Term {
    match g.below(5) {
        // Plain strings including characters that need escaping.
        0 => {
            let printable: String = (' '..='~').collect();
            Term::literal(g.string(&printable, 0..21))
        }
        1 => Term::int(g.int(i64::MIN..i64::MAX)),
        2 => Term::double(g.float(-1.0e6..1.0e6)),
        3 => Term::boolean(g.bool()),
        _ => Term::lang_literal(g.string(LOWER, 1..9), g.string(LOWER, 2..3)),
    }
}

fn term(g: &mut Gen) -> Term {
    if g.bool() {
        iri(g)
    } else {
        literal(g)
    }
}

type Triples = Vec<(Term, Term, Term)>;

fn triples(g: &mut Gen) -> Triples {
    g.vec(0..60, |g| (iri(g), iri(g), term(g)))
}

fn store_of(triples: &Triples) -> TripleStore {
    let mut store = TripleStore::new();
    for (s, p, o) in triples {
        store.insert_terms(s, p, o);
    }
    store
}

/// Writing a store to Turtle and reading it back preserves content.
#[test]
fn turtle_roundtrip() {
    forall(triples, |triples| {
        let store = store_of(&triples);
        let text = turtle::write_store(&store);
        let mut store2 = TripleStore::new();
        turtle::parse_into(&text, &mut store2).unwrap();
        assert_eq!(store.len(), store2.len());
        for t in store.iter() {
            let (s, p, o) =
                (store.term(t.s).clone(), store.term(t.p).clone(), store.term(t.o).clone());
            assert_eq!(
                store2.match_terms(Some(&s), Some(&p), Some(&o)).len(),
                1,
                "missing {} {} {}",
                s,
                p,
                o
            );
        }
    });
}

/// Pattern matching agrees with a linear scan for all eight shapes, in
/// the key order of the index each shape reads, and the planner's
/// estimate is the exact count wherever it counts the matches.
#[test]
fn pattern_matching_matches_scan() {
    type Key = (u32, u32, u32);
    let spo: fn(&Triple) -> Key = |t| (t.s, t.p, t.o);
    let pos: fn(&Triple) -> Key = |t| (t.p, t.o, t.s);
    let osp: fn(&Triple) -> Key = |t| (t.o, t.s, t.p);
    forall(triples, |triples| {
        let store = store_of(&triples);
        let all: Vec<_> = store.iter().collect();
        // Probe with ids taken from the stored triples (plus wildcards).
        for probe in all.iter().take(10) {
            let (s, p, o) = (Some(probe.s), Some(probe.p), Some(probe.o));
            // Each shape, its index's key, and whether its estimate is
            // the exact count (S+O and the full wildcard are bounds).
            for ((s, p, o), key, exact) in [
                ((s, p, o), spo, true),
                ((s, p, None), spo, true),
                ((s, None, None), spo, true),
                ((None, p, o), pos, true),
                ((None, p, None), pos, true),
                ((None, None, o), osp, true),
                ((s, None, o), osp, false),
                ((None, None, None), spo, false),
            ] {
                let pat = TriplePattern::new(s, p, o);
                let from_index: Vec<Triple> = store.match_pattern(&pat).collect();
                let mut from_scan: Vec<_> =
                    all.iter().filter(|t| pat.matches(t)).copied().collect();
                from_scan.sort_by_key(key);
                assert_eq!(from_index, from_scan, "{pat:?}");
                let estimate = store.estimate_pattern(&pat);
                if exact {
                    assert_eq!(estimate, from_scan.len(), "{pat:?}");
                } else {
                    assert!(estimate >= from_scan.len(), "{pat:?}");
                }
            }
        }
    });
}

/// Removing everything returns the store to empty with consistent
/// indexes.
#[test]
fn remove_all_empties_store() {
    forall(triples, |triples| {
        let mut store = store_of(&triples);
        let all: Vec<_> = store.iter().collect();
        for t in &all {
            assert!(store.remove(t));
        }
        assert!(store.is_empty());
        assert_eq!(store.match_pattern(&TriplePattern::any()).count(), 0);
    });
}

/// One write of [`statistics_equal_a_recount`]'s sequences, over a
/// vocabulary small enough that pairs repeat: `(insert, s, p, o)`.
type Write = (bool, usize, usize, usize);

fn writes(g: &mut Gen) -> Vec<Write> {
    g.vec(0..80, |g| (g.below(3) != 0, g.below(5), g.below(3), g.below(5)))
}

/// Per-predicate statistics counted from scratch over `iter()`, with
/// the all-predicate sums under `None`.
fn recount(store: &TripleStore) -> BTreeMap<Option<u32>, PredicateStats> {
    let mut pairs: BTreeMap<u32, (usize, BTreeSet<u32>, BTreeSet<u32>)> = BTreeMap::new();
    for t in store.iter() {
        let (n, subjects, objects) = pairs.entry(t.p).or_default();
        *n += 1;
        subjects.insert(t.s);
        objects.insert(t.o);
    }
    let mut out: BTreeMap<Option<u32>, PredicateStats> = BTreeMap::new();
    for (p, (triples, subjects, objects)) in pairs {
        let stats = PredicateStats { triples, subjects: subjects.len(), objects: objects.len() };
        out.insert(Some(p), stats);
        let total = out.entry(None).or_default();
        total.triples += stats.triples;
        total.subjects += stats.subjects;
        total.objects += stats.objects;
    }
    out
}

fn assert_stats_recount(store: &TripleStore) {
    let expected = recount(store);
    assert_eq!(store.predicates(), expected.len().saturating_sub(1));
    assert_eq!(store.predicate_stats(None), expected.get(&None).copied().unwrap_or_default());
    for p in 0..store.dictionary().len() as u32 {
        assert_eq!(
            store.predicate_stats(Some(p)),
            expected.get(&Some(p)).copied().unwrap_or_default(),
            "predicate {p}"
        );
    }
}

/// The statistics `insert` and `remove` maintain equal a recount from
/// the triples after any write sequence — duplicate inserts and
/// removals of absent triples included — and after a persist round
/// trip, whose load counts them in bulk.
#[test]
fn statistics_equal_a_recount() {
    forall(writes, |writes| {
        let mut store = TripleStore::new();
        let term = |kind: &str, i: usize| Term::iri(format!("http://x/{kind}{i}"));
        for (insert, s, p, o) in writes {
            let (s, p, o) = (term("s", s), term("p", p), term("o", o));
            if insert {
                store.insert_terms(&s, &p, &o);
            } else {
                let t = Triple::new(store.intern(&s), store.intern(&p), store.intern(&o));
                store.remove(&t);
            }
            assert_stats_recount(&store);
        }
        let mut backend = DurableBackend::open(MemMedium::new(), DurableConfig::default()).unwrap();
        transact(&mut backend, |b| persist_triple_store(&store, b)).unwrap();
        let loaded = load_triple_store(&backend).unwrap().unwrap();
        assert_stats_recount(&loaded);
        assert_eq!(loaded.predicate_stats(None), store.predicate_stats(None));
    });
}

/// Writes over a small pool of terms of every kind, so that inserts
/// repeat and removals hit: `(pool, [(insert, s, p, o)])` with
/// indexes into the pool.
fn churn(g: &mut Gen) -> (Vec<Term>, Vec<Write>) {
    let pool = g.vec(1..12, term);
    let n = pool.len();
    (pool, g.vec(0..80, |g| (g.below(3) != 0, g.below(n), g.below(n), g.below(n))))
}

/// A persisted store loads back equal to the original: every id names
/// the same term, each of the three orderings holds the same triples
/// in the same order, and every predicate's statistics and their
/// totals match.
#[test]
fn persist_and_load_reproduce_the_store() {
    forall(churn, |(pool, writes)| {
        let mut store = TripleStore::new();
        for (insert, s, p, o) in writes {
            if insert {
                store.insert_terms(&pool[s], &pool[p], &pool[o]);
            } else {
                let mut id = |i: usize| store.intern(&pool[i]);
                let t = Triple::new(id(s), id(p), id(o));
                store.remove(&t);
            }
        }
        let mut backend = DurableBackend::open(MemMedium::new(), DurableConfig::default()).unwrap();
        transact(&mut backend, |b| persist_triple_store(&store, b)).unwrap();
        let loaded = load_triple_store(&backend).unwrap().unwrap();
        assert_eq!(loaded.dictionary().len(), store.dictionary().len());
        assert_eq!(loaded.iter().collect::<Vec<_>>(), store.iter().collect::<Vec<_>>());
        assert_eq!(loaded.predicates(), store.predicates());
        assert_eq!(loaded.predicate_stats(None), store.predicate_stats(None));
        for id in 0..store.dictionary().len() as u32 {
            assert_eq!(loaded.term(id), store.term(id));
            assert_eq!(loaded.id_of(store.term(id)), Some(id));
            assert_eq!(loaded.predicate_stats(Some(id)), store.predicate_stats(Some(id)));
            let by_p = TriplePattern::new(None, Some(id), None);
            for pat in [by_p, TriplePattern::new(None, None, Some(id))] {
                let order = |s: &TripleStore| s.match_pattern(&pat).collect::<Vec<_>>();
                assert_eq!(order(&loaded), order(&store), "{pat:?}");
            }
        }
    });
}

/// Turtle fixtures: every construct the reader accepts.
const TURTLE_SEEDS: [&str; 3] = [
    "@prefix ex: <http://x/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
     ex:s a ex:C ; ex:p ex:o1, ex:o2 ;\n  ex:n -3, +5, 2.50, .5, 1e3, 007 ;\n  ex:b true ;\n\
     ex:l \"fire\"@en, \"a\\\"b\\\\c\\nd\", \"3.5\"^^xsd:double ;\n  ex:Πελοπόννησος _:b1 ; .\n",
    "# header\n<http://x/s> <http://x/p> \"<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (23.7 38)\"^^<http://strdf.di.uoa.gr/ontology#WKT> . # trailing\n",
    "_:b1 <http://x/p> _:b2 .\n<http://x/s> <http://x/p> \"2007-08-25T00:00:00Z\"^^<http://www.w3.org/2001/XMLSchema#dateTime> .",
];

#[test]
fn turtle_answers_every_mangled_document_with_ok_or_err() {
    for seed in TURTLE_SEEDS {
        turtle::parse_triples(seed, |_, _, _| {}).unwrap();
    }
    teleios_check::fuzz_text(&TURTLE_SEEDS, |text| turtle::parse_triples(text, |_, _, _| {}));
}
