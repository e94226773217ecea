//! Dictionary-encoded triples and triple patterns.

use crate::dictionary::TermId;

/// A dictionary-encoded triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

impl Triple {
    /// New triple.
    pub fn new(s: TermId, p: TermId, o: TermId) -> Triple {
        Triple { s, p, o }
    }
}

/// A triple pattern: `None` positions are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TriplePattern {
    /// Subject constraint.
    pub s: Option<TermId>,
    /// Predicate constraint.
    pub p: Option<TermId>,
    /// Object constraint.
    pub o: Option<TermId>,
}

impl TriplePattern {
    /// Fully wild pattern.
    pub fn any() -> TriplePattern {
        TriplePattern::default()
    }

    /// Pattern with the given constraints.
    pub fn new(s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> TriplePattern {
        TriplePattern { s, p, o }
    }

    /// True when the triple matches this pattern.
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_matching() {
        let t = Triple::new(1, 2, 3);
        assert!(TriplePattern::any().matches(&t));
        assert!(TriplePattern::new(Some(1), None, None).matches(&t));
        assert!(TriplePattern::new(Some(1), Some(2), Some(3)).matches(&t));
        assert!(!TriplePattern::new(Some(9), None, None).matches(&t));
        assert!(!TriplePattern::new(None, None, Some(9)).matches(&t));
    }

    #[test]
    fn triple_ordering_is_spo() {
        let a = Triple::new(1, 5, 9);
        let b = Triple::new(1, 6, 0);
        let c = Triple::new(2, 0, 0);
        assert!(a < b && b < c);
    }
}
