//! Persistence of the triple store onto a `teleios-store`
//! [`StorageBackend`].
//!
//! Encoding (keyspace `rdf/dict`, key `terms`): the dictionary's
//! terms in id order — a tag byte (0 = IRI, 1 = blank, 2 = plain
//! literal, 3 = typed literal, 4 = language-tagged literal) followed
//! by the term's length-prefixed strings. Because `Dictionary::intern`
//! assigns dense sequential ids in insertion order, the decoded terms
//! in page order are the identical id assignment, so the delta-coded
//! triples below remain valid; a term the page repeats is damage.
//!
//! Encoding (keyspace `rdf/spo`, key `triples`): per triple (in SPO
//! index order) the zigzag-varint deltas `(Δs, Δp, Δo)` against the
//! previous triple, starting from `(0, 0, 0)`. Sorted SPO ids make
//! consecutive deltas tiny, so the log and snapshot stay compact
//! without a general-purpose compressor.
//!
//! Each page ends with its item count as a fixed 8-byte little-endian
//! trailer, not a leading varint: a grown dictionary, or triples that
//! sort last, leave the page's earlier bytes as they were, and the
//! store logs the re-put as a patch of the bytes that changed.

use teleios_store::codec::{put_str, put_zigzag, Reader};
use teleios_store::{StorageBackend, StoreError};

use crate::dictionary::Dictionary;
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

/// A term's tag and its one or two strings.
fn parts(term: &Term) -> (u8, &str, Option<&str>) {
    match term {
        Term::Iri(value) => (TAG_IRI, value, None),
        Term::Blank(label) => (TAG_BLANK, label, None),
        Term::Literal { lexical, datatype: Some(dt), .. } => (TAG_TYPED, lexical, Some(dt)),
        Term::Literal { lexical, lang: Some(lang), .. } => (TAG_LANG, lexical, Some(lang)),
        Term::Literal { lexical, .. } => (TAG_PLAIN, lexical, None),
    }
}

/// Close a page with its item count.
fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u64).to_le_bytes());
}

/// A page's items and the count its trailer claims.
fn split_count<'a>(page: &'a [u8], what: &str) -> Result<(Reader<'a>, u64), StoreError> {
    let (items, count) = page
        .split_last_chunk::<8>()
        .ok_or_else(|| StoreError::Codec(format!("{what} page shorter than its count")))?;
    Ok((Reader::new(items), u64::from_le_bytes(*count)))
}

fn encode_terms(store: &TripleStore) -> Vec<u8> {
    let dict = store.dictionary();
    let terms = (0..dict.len() as u32).map(|id| parts(dict.term(id)));
    // A tag and two 5-byte lengths bound a term's framing.
    let size: usize = terms.clone().map(|(_, a, b)| 11 + a.len() + b.map_or(0, str::len)).sum();
    let mut out = Vec::with_capacity(size + 8);
    for (tag, a, b) in terms {
        out.push(tag);
        put_str(&mut out, a);
        if let Some(b) = b {
            put_str(&mut out, b);
        }
    }
    put_count(&mut out, dict.len());
    out
}

fn decode_terms(bytes: &[u8]) -> Result<Vec<Term>, StoreError> {
    let (mut r, n) = split_count(bytes, "term")?;
    // A term is at least a tag byte and a one-byte length.
    let mut terms = Vec::with_capacity(r.capacity_for(n, 2));
    while !r.is_empty() {
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
    if terms.len() as u64 != n {
        return Err(StoreError::Codec(format!("term page holds {} terms, counts {n}", terms.len())));
    }
    Ok(terms)
}

fn encode_triples(store: &TripleStore) -> Vec<u8> {
    // Three deltas of at most 33 bits take at most 15 bytes.
    let mut out = Vec::with_capacity(15 * store.len() + 8);
    let (mut ps, mut pp, mut po) = (0i64, 0i64, 0i64);
    for t in store.iter() {
        put_zigzag(&mut out, t.s as i64 - ps);
        put_zigzag(&mut out, t.p as i64 - pp);
        put_zigzag(&mut out, t.o as i64 - po);
        ps = t.s as i64;
        pp = t.p as i64;
        po = t.o as i64;
    }
    put_count(&mut out, store.len());
    out
}

fn id_from(v: i64) -> Result<u32, StoreError> {
    u32::try_from(v).map_err(|_| StoreError::Codec(format!("term id {v} out of range")))
}

fn decode_triples(bytes: &[u8]) -> Result<Vec<Triple>, StoreError> {
    let (mut r, n) = split_count(bytes, "triple")?;
    // A triple is at least three one-byte deltas.
    let mut triples = Vec::with_capacity(r.capacity_for(n, 3));
    let (mut s, mut p, mut o) = (0i64, 0i64, 0i64);
    while !r.is_empty() {
        s += r.zigzag()?;
        p += r.zigzag()?;
        o += r.zigzag()?;
        triples.push(Triple::new(id_from(s)?, id_from(p)?, id_from(o)?));
    }
    if triples.len() as u64 != n {
        return Err(StoreError::Codec(format!(
            "triple page holds {} triples, counts {n}",
            triples.len()
        )));
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
/// in one transaction and the triple page always ends with its count,
/// so a dictionary without a triple page, or an empty one, is damage:
/// `Err(Codec)`, not an empty store. The dictionary and the three
/// orderings are built in bulk, not triple by triple.
pub fn load_triple_store(
    backend: &dyn StorageBackend,
) -> Result<Option<TripleStore>, StoreError> {
    let Some(term_bytes) = backend.get(DICT_KEYSPACE, TERMS_KEY)? else {
        return Ok(None);
    };
    let Some(triple_bytes) = backend.get(SPO_KEYSPACE, TRIPLES_KEY)? else {
        return Err(StoreError::Codec("term dictionary without a triple page".into()));
    };
    let dict = Dictionary::from_terms(decode_terms(&term_bytes)?)
        .ok_or_else(|| StoreError::Codec("the term dictionary repeats a term".into()))?;
    let triples = decode_triples(&triple_bytes)?;
    let known = |id: u32| (id as usize) < dict.len();
    if !triples.iter().all(|t| known(t.s) && known(t.p) && known(t.o)) {
        return Err(StoreError::Codec("triple references a term id beyond the dictionary".into()));
    }
    Ok(Some(TripleStore::bulk(dict, &triples)))
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
        (1u64 << 40).to_le_bytes().to_vec()
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
        // A trailer claiming 2^40 terms.
        let backend = backend_with(&[(DICT_KEYSPACE, TERMS_KEY, &huge_count())]);
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }

    #[test]
    fn triple_count_beyond_the_page_is_a_codec_error_not_an_allocation() {
        // An empty dictionary, then a trailer claiming 2^40 triples.
        let backend = backend_with(&[
            (DICT_KEYSPACE, TERMS_KEY, &[0; 8]),
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

    /// Pages once led with a varint count; such a page, and a page
    /// naming one term twice, are refused, never loaded.
    #[test]
    fn a_leading_count_page_or_a_repeated_term_is_a_codec_error() {
        let store = sample_store();
        let triples = encode_triples(&store);
        let terms = encode_terms(&store);
        let body = &terms[..terms.len() - 8];
        let mut leading = vec![store.dictionary().len() as u8];
        leading.extend_from_slice(body);
        let first_term_len = 1 + 1 + "http://teleios.example/img/0042".len();
        let mut repeated = [&body[..first_term_len], body].concat();
        repeated.extend_from_slice(&(store.dictionary().len() as u64 + 1).to_le_bytes());
        for page in [leading, repeated] {
            let backend = backend_with(&[
                (DICT_KEYSPACE, TERMS_KEY, &page),
                (SPO_KEYSPACE, TRIPLES_KEY, &triples),
            ]);
            assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
        }
        let mut leading = vec![store.len() as u8];
        leading.extend_from_slice(&triples[..triples.len() - 8]);
        let backend = backend_with(&[
            (DICT_KEYSPACE, TERMS_KEY, &terms),
            (SPO_KEYSPACE, TRIPLES_KEY, &leading),
        ]);
        assert!(matches!(load_triple_store(&backend), Err(StoreError::Codec(_))));
    }

    /// A grown dictionary re-encodes as the old page's terms, then the
    /// new ones, then the count: the store's patch keeps the prefix.
    #[test]
    fn a_grown_store_keeps_its_pages_prefixes() {
        let mut store = sample_store();
        let (terms, triples) = (encode_terms(&store), encode_triples(&store));
        let last = Term::iri("http://teleios.example/zzz");
        store.insert_terms(&last, &last, &last);
        let (grown_terms, grown_triples) = (encode_terms(&store), encode_triples(&store));
        assert!(grown_terms.starts_with(&terms[..terms.len() - 8]));
        assert!(grown_triples.starts_with(&triples[..triples.len() - 8]));
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
