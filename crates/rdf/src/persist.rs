//! Persistence of the triple store onto a `teleios-store`
//! [`StorageBackend`].
//!
//! Encoding (keyspace `rdf/dict`, key `terms`): the dictionary's
//! terms in id order — a tag byte (0 = IRI, 1 = blank, 2 = plain
//! literal, 3 = typed literal, 4 = language-tagged literal) followed
//! by the term's length-prefixed strings. Because `Dictionary::intern`
//! assigns dense sequential ids in insertion order, re-interning the
//! decoded terms into a fresh dictionary reproduces the identical
//! id assignment, so the delta-coded triples below remain valid.
//!
//! Encoding (keyspace `rdf/spo`, key `triples`): a varint triple
//! count, then per triple (in SPO index order) the zigzag-varint
//! deltas `(Δs, Δp, Δo)` against the previous triple, starting from
//! `(0, 0, 0)`. Sorted SPO ids make consecutive deltas tiny, so the
//! log and snapshot stay compact without a general-purpose
//! compressor.

use teleios_store::codec::{put_str, put_varint, put_zigzag, Reader};
use teleios_store::{StorageBackend, StoreError};

use crate::store::TripleStore;
use crate::term::Term;
use crate::triple::Triple;

/// Keyspace holding the dictionary page.
pub(crate) const DICT_KEYSPACE: &str = "rdf/dict";
/// Keyspace holding the delta-coded triple page.
pub(crate) const SPO_KEYSPACE: &str = "rdf/spo";
/// Key for the term dictionary within [`DICT_KEYSPACE`].
pub(crate) const TERMS_KEY: &[u8] = b"terms";
/// Key for the triple page within [`SPO_KEYSPACE`].
pub(crate) const TRIPLES_KEY: &[u8] = b"triples";

const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_PLAIN: u8 = 2;
const TAG_TYPED: u8 = 3;
const TAG_LANG: u8 = 4;

fn encode_terms(store: &TripleStore) -> Vec<u8> {
    let dict = store.dictionary();
    let mut out = Vec::new();
    put_varint(&mut out, dict.len() as u64);
    for id in 0..dict.len() as u32 {
        match dict.term(id) {
            Term::Iri(value) => {
                out.push(TAG_IRI);
                put_str(&mut out, value);
            }
            Term::Blank(label) => {
                out.push(TAG_BLANK);
                put_str(&mut out, label);
            }
            Term::Literal { lexical, datatype: Some(dt), .. } => {
                out.push(TAG_TYPED);
                put_str(&mut out, lexical);
                put_str(&mut out, dt);
            }
            Term::Literal { lexical, lang: Some(lang), .. } => {
                out.push(TAG_LANG);
                put_str(&mut out, lexical);
                put_str(&mut out, lang);
            }
            Term::Literal { lexical, .. } => {
                out.push(TAG_PLAIN);
                put_str(&mut out, lexical);
            }
        }
    }
    out
}

fn decode_terms(bytes: &[u8]) -> Result<Vec<Term>, StoreError> {
    let mut r = Reader::new(bytes);
    let n = r.varint()?;
    // A term is at least a tag byte and a one-byte length.
    let mut terms = Vec::with_capacity(r.capacity_for(n, 2));
    for _ in 0..n {
        let term = match r.u8()? {
            TAG_IRI => Term::Iri(r.string()?),
            TAG_BLANK => Term::Blank(r.string()?),
            TAG_PLAIN => Term::literal(r.string()?),
            TAG_TYPED => {
                let lexical = r.string()?;
                let dt = r.string()?;
                Term::typed_literal(lexical, dt)
            }
            TAG_LANG => {
                let lexical = r.string()?;
                let lang = r.string()?;
                Term::lang_literal(lexical, lang)
            }
            other => {
                return Err(StoreError::Codec(format!("unknown term tag {other}")));
            }
        };
        terms.push(term);
    }
    if !r.is_empty() {
        return Err(StoreError::Codec("trailing bytes after term dictionary".into()));
    }
    Ok(terms)
}

fn encode_triples(store: &TripleStore) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, store.len() as u64);
    let (mut ps, mut pp, mut po) = (0i64, 0i64, 0i64);
    for t in store.iter() {
        put_zigzag(&mut out, t.s as i64 - ps);
        put_zigzag(&mut out, t.p as i64 - pp);
        put_zigzag(&mut out, t.o as i64 - po);
        ps = t.s as i64;
        pp = t.p as i64;
        po = t.o as i64;
    }
    out
}

fn id_from(v: i64) -> Result<u32, StoreError> {
    u32::try_from(v).map_err(|_| StoreError::Codec(format!("term id {v} out of range")))
}

fn decode_triples(bytes: &[u8]) -> Result<Vec<Triple>, StoreError> {
    let mut r = Reader::new(bytes);
    let n = r.varint()?;
    // A triple is at least three one-byte deltas.
    let mut triples = Vec::with_capacity(r.capacity_for(n, 3));
    let (mut s, mut p, mut o) = (0i64, 0i64, 0i64);
    for _ in 0..n {
        s += r.zigzag()?;
        p += r.zigzag()?;
        o += r.zigzag()?;
        triples.push(Triple::new(id_from(s)?, id_from(p)?, id_from(o)?));
    }
    if !r.is_empty() {
        return Err(StoreError::Codec("trailing bytes after triple page".into()));
    }
    Ok(triples)
}

/// Stage the triple store's pages as puts inside the backend's open
/// transaction (the caller owns it — `teleios_store::transact` — so a
/// catalog, a triple store, and table pages can share one atomic
/// commit).
pub fn persist_triple_store(
    store: &TripleStore,
    backend: &mut dyn StorageBackend,
) -> Result<(), StoreError> {
    backend.put(DICT_KEYSPACE, TERMS_KEY, &encode_terms(store))?;
    backend.put(SPO_KEYSPACE, TRIPLES_KEY, &encode_triples(store))?;
    Ok(())
}

/// Load the triple store persisted by [`persist_triple_store`];
/// `Ok(None)` if nothing was ever persisted. The two pages are written
/// in one transaction and the triple page always starts with its
/// count, so a dictionary without a triple page, or an empty one, is
/// damage: `Err(Codec)`, not an empty store.
pub fn load_triple_store(
    backend: &dyn StorageBackend,
) -> Result<Option<TripleStore>, StoreError> {
    let Some(term_bytes) = backend.get(DICT_KEYSPACE, TERMS_KEY)? else {
        return Ok(None);
    };
    let Some(triple_bytes) = backend.get(SPO_KEYSPACE, TRIPLES_KEY)? else {
        return Err(StoreError::Codec("term dictionary without a triple page".into()));
    };
    let terms = decode_terms(&term_bytes)?;
    let mut store = TripleStore::new();
    for (expect_id, term) in terms.iter().enumerate() {
        let id = store.intern(term);
        if id as usize != expect_id {
            return Err(StoreError::Codec(format!(
                "dictionary replay assigned id {id}, expected {expect_id}"
            )));
        }
    }
    let dict_len = store.dictionary().len() as i64;
    for t in decode_triples(&triple_bytes)? {
        if t.s as i64 >= dict_len || t.p as i64 >= dict_len || t.o as i64 >= dict_len {
            return Err(StoreError::Codec(
                "triple references a term id beyond the dictionary".into(),
            ));
        }
        store.insert(t);
    }
    Ok(Some(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_check::Edits;
    use teleios_store::{transact, DurableBackend, DurableConfig, MemMedium};

    type MemBackend = DurableBackend<MemMedium>;

    fn mem_backend() -> MemBackend {
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).unwrap()
    }

    fn save(store: &TripleStore, backend: &mut MemBackend) {
        transact(backend, |b| persist_triple_store(store, b)).unwrap();
    }

    fn sample_store() -> TripleStore {
        let mut store = TripleStore::new();
        let img = Term::iri("http://teleios.example/img/0042");
        let hotspot = Term::iri("http://teleios.example/hotspot/7");
        store.insert_terms(
            &img,
            &Term::iri("http://teleios.example/hasCloudCover"),
            &Term::typed_literal("0.25", "http://www.w3.org/2001/XMLSchema#double"),
        );
        store.insert_terms(
            &hotspot,
            &Term::iri("http://teleios.example/observedIn"),
            &img,
        );
        store.insert_terms(
            &hotspot,
            &Term::iri("http://www.w3.org/2000/01/rdf-schema#label"),
            &Term::lang_literal("Brandherd", "de"),
        );
        store.insert_terms(
            &Term::blank("b0"),
            &Term::iri("http://teleios.example/comment"),
            &Term::literal("plain note"),
        );
        store
    }

    fn assert_stores_equal(a: &TripleStore, b: &TripleStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dictionary().len(), b.dictionary().len());
        for id in 0..a.dictionary().len() as u32 {
            assert_eq!(a.dictionary().term(id), b.dictionary().term(id), "term id {id}");
        }
        let ta: Vec<_> = a.iter().collect();
        let tb: Vec<_> = b.iter().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn round_trip_through_memory_backend() {
        let store = sample_store();
        let mut backend = mem_backend();
        save(&store, &mut backend);
        let loaded = load_triple_store(&backend).unwrap().unwrap();
        assert_stores_equal(&store, &loaded);
    }

    #[test]
    fn round_trip_survives_crash_recovery() {
        let store = sample_store();
        let mut backend = mem_backend();
        save(&store, &mut backend);
        let mut medium = backend.into_medium();
        medium.crash();
        let recovered = DurableBackend::open(medium, DurableConfig::default()).unwrap();
        let loaded = load_triple_store(&recovered).unwrap().unwrap();
        assert_stores_equal(&store, &loaded);
    }

    #[test]
    fn empty_store_round_trips() {
        let store = TripleStore::new();
        let mut backend = mem_backend();
        save(&store, &mut backend);
        let loaded = load_triple_store(&backend).unwrap().unwrap();
        assert_eq!(loaded.len(), 0);
        assert_eq!(loaded.dictionary().len(), 0);
    }

    #[test]
    fn missing_state_loads_as_none() {
        assert!(load_triple_store(&mem_backend()).unwrap().is_none());
    }

    #[test]
    fn saving_twice_overwrites_cleanly() {
        let mut backend = mem_backend();
        save(&sample_store(), &mut backend);
        let mut smaller = TripleStore::new();
        smaller.insert_terms(
            &Term::iri("http://teleios.example/only"),
            &Term::iri("http://teleios.example/p"),
            &Term::literal("v"),
        );
        save(&smaller, &mut backend);
        let loaded = load_triple_store(&backend).unwrap().unwrap();
        assert_stores_equal(&smaller, &loaded);
    }

    /// A backend holding exactly `pages`, as `(keyspace, key, bytes)`.
    fn backend_with(pages: &[(&str, &[u8], &[u8])]) -> MemBackend {
        let mut backend = mem_backend();
        transact(&mut backend, |b| {
            pages.iter().try_for_each(|(keyspace, key, bytes)| b.put(keyspace, key, bytes))
        })
        .unwrap();
        backend
    }

    fn huge_count() -> Vec<u8> {
        let mut page = Vec::new();
        put_varint(&mut page, 1 << 40);
        page
    }

    #[test]
    fn a_missing_triple_page_is_a_codec_error() {
        let backend = backend_with(&[(DICT_KEYSPACE, TERMS_KEY, &encode_terms(&sample_store()))]);
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }

    #[test]
    fn an_empty_triple_page_is_a_codec_error() {
        let backend = backend_with(&[
            (DICT_KEYSPACE, TERMS_KEY, &encode_terms(&sample_store())),
            (SPO_KEYSPACE, TRIPLES_KEY, &[]),
        ]);
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }

    #[test]
    fn term_count_beyond_the_page_is_a_codec_error_not_an_allocation() {
        // Six bytes claiming 2^40 terms.
        let backend = backend_with(&[(DICT_KEYSPACE, TERMS_KEY, &huge_count())]);
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }

    #[test]
    fn triple_count_beyond_the_page_is_a_codec_error_not_an_allocation() {
        // An empty dictionary, then six bytes claiming 2^40 triples.
        let backend = backend_with(&[
            (DICT_KEYSPACE, TERMS_KEY, &[0]),
            (SPO_KEYSPACE, TRIPLES_KEY, &huge_count()),
        ]);
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }

    /// Each page `persist_triple_store` writes, put through the byte loop
    /// in place (the other page intact) and loaded back: `Ok` or `Err`,
    /// never a panic, an abort or a hang.
    #[test]
    fn every_page_survives_the_byte_loop() {
        let store = sample_store();
        let pages = [(DICT_KEYSPACE, TERMS_KEY, encode_terms(&store)), (SPO_KEYSPACE, TRIPLES_KEY, encode_triples(&store))];
        for (i, (_, _, page)) in pages.iter().enumerate() {
            teleios_check::fuzz_bytes(&[page], Edits::Binary, |_| {}, |bytes| {
                let staged: Vec<(&str, &[u8], &[u8])> = pages
                    .iter()
                    .enumerate()
                    .map(|(j, (ks, key, v))| (*ks, *key, if i == j { bytes } else { v.as_slice() }))
                    .collect();
                load_triple_store(&backend_with(&staged))
            });
        }
    }

    #[test]
    fn corrupt_term_page_is_a_codec_error_not_a_panic() {
        let mut backend = mem_backend();
        save(&sample_store(), &mut backend);
        let mut bytes = backend.get(DICT_KEYSPACE, TERMS_KEY).unwrap().unwrap();
        bytes.truncate(bytes.len() / 2);
        transact(&mut backend, |b| b.put(DICT_KEYSPACE, TERMS_KEY, &bytes)).unwrap();
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }
}
