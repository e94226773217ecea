//! Term dictionary: interning RDF terms to dense integer ids.
//!
//! Strabon stores dictionary-encoded triples in its relational backend;
//! this mirrors that design. Ids are dense `u32`s so the triple indexes
//! stay compact and comparisons are integer comparisons.

use crate::term::Term;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dense id of an interned term.
pub type TermId = u32;

/// Source of [`Dictionary::identity`]; 0 is never handed out.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);

/// Bidirectional Term ↔ id mapping.
#[derive(Debug)]
pub struct Dictionary {
    by_term: HashMap<Term, TermId>,
    by_id: Vec<Term>,
    identity: u64,
}

impl Default for Dictionary {
    fn default() -> Dictionary {
        Dictionary {
            by_term: HashMap::new(),
            by_id: Vec::new(),
            identity: NEXT_IDENTITY.fetch_add(1, Ordering::SeqCst),
        }
    }
}

/// A clone is another dictionary: it may grow apart from the original,
/// so it gets its own identity.
impl Clone for Dictionary {
    fn clone(&self) -> Dictionary {
        Dictionary { by_term: self.by_term.clone(), by_id: self.by_id.clone(), ..Dictionary::default() }
    }
}

impl Dictionary {
    /// Process-unique identity, fixed for this dictionary's lifetime.
    /// Interning keeps it, and ids are never reassigned, so a reader
    /// that remembers `(identity, len)` knows the ids below `len` still
    /// name the terms it read. Any other dictionary — a new one or a
    /// clone — has another identity.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Intern a term, returning its id (idempotent).
    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = self.by_id.len() as TermId;
        self.by_id.push(term.clone());
        self.by_term.insert(term.clone(), id);
        id
    }

    /// Look up an already-interned term.
    pub(crate) fn id_of(&self, term: &Term) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// Resolve an id back to its term. Panics on an unknown id, which
    /// indicates a store invariant violation.
    pub fn term(&self, id: TermId) -> &Term {
        &self.by_id[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::default();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::iri("http://x/b"));
        let a2 = d.intern(&Term::iri("http://x/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn roundtrip() {
        let mut d = Dictionary::default();
        let t = Term::typed_literal("3.5", crate::vocab::xsd::DOUBLE);
        let id = d.intern(&t);
        assert_eq!(d.term(id), &t);
        assert_eq!(d.id_of(&t), Some(id));
    }

    #[test]
    fn distinct_literal_forms_distinct_ids() {
        let mut d = Dictionary::default();
        let plain = d.intern(&Term::literal("x"));
        let typed = d.intern(&Term::typed_literal("x", crate::vocab::xsd::STRING));
        let tagged = d.intern(&Term::lang_literal("x", "en"));
        assert_ne!(plain, typed);
        assert_ne!(plain, tagged);
        assert_ne!(typed, tagged);
    }

    #[test]
    fn identity_survives_interning_but_not_cloning() {
        let mut d = Dictionary::default();
        let before = d.identity();
        d.intern(&Term::iri("http://x/a"));
        assert_eq!(d.identity(), before);
        let copy = d.clone();
        assert_ne!(copy.identity(), before);
        assert_eq!(copy.term(0), d.term(0));
        assert_ne!(Dictionary::default().identity(), before);
    }
}
