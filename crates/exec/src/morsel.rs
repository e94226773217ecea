//! Morsel partitioning: split an index space into contiguous,
//! ordered, non-empty ranges.
//!
//! `morsels` (behind [`crate::WorkerPool::morsels_for`]) splits
//! `0..len` into at most `parts` near-equal ranges. Its user, the
//! R-tree bulk load, does per-element work that in-order
//! concatenation ([`concat`]) reconstructs exactly, so its output is
//! the sequential scan's.

use std::ops::Range;

/// Split `0..len` into at most `parts` contiguous, ordered,
/// near-equal, non-empty ranges. Returns an empty vector when
/// `len == 0`; never returns more than `len` ranges.
///
/// Concatenating the ranges in order always reproduces `0..len`, so
/// any per-morsel computation whose outputs concatenate in morsel
/// order is identical to the sequential scan.
pub(crate) fn morsels(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// In-order merge of per-morsel outputs. The first run is extended
/// with the rest, so the single run of an inline execution comes back
/// as is, without a copy.
pub fn concat<T>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut runs = runs.into_iter();
    let mut out = runs.next().unwrap_or_default();
    for run in runs {
        out.extend(run);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_exactly() {
        for len in [0usize, 1, 2, 7, 100, 1001] {
            for parts in [1usize, 2, 3, 4, 8, 200] {
                let ms = morsels(len, parts);
                let mut next = 0;
                for m in &ms {
                    assert_eq!(m.start, next, "len={len} parts={parts}");
                    assert!(!m.is_empty(), "empty morsel for len={len} parts={parts}");
                    next = m.end;
                }
                assert_eq!(next, len);
                assert!(ms.len() <= parts.max(1));
                assert!(ms.len() <= len.max(1) || len == 0);
            }
        }
    }

    #[test]
    fn morsels_are_balanced() {
        let ms = morsels(10, 3);
        let sizes: Vec<usize> = ms.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }
}
