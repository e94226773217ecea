//! An R-tree over envelopes with attached payloads.
//!
//! There is one way to build it: Sort-Tile-Recursive bulk loading
//! ([`RTree::bulk_load`]), which packs near-optimal trees and is what
//! Strabon's spatial sidecar rebuilds after its dictionary grows. The
//! one query is envelope intersection ([`RTree::query`]).

use crate::coord::Envelope;
use std::cmp::Ordering;
use teleios_exec::{concat, WorkerPool};

const MAX_ENTRIES: usize = 16;

/// Entry count below which [`RTree::bulk_load_with`] sorts inline:
/// under this size the sorts are too cheap to amortize task setup.
pub const PAR_BULK_LOAD_THRESHOLD: usize = 4096;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { env: Envelope, entries: Vec<(Envelope, T)> },
    Inner { env: Envelope, children: Vec<Node<T>> },
}

impl<T> Node<T> {
    fn envelope(&self) -> Envelope {
        match self {
            Node::Leaf { env, .. } | Node::Inner { env, .. } => *env,
        }
    }

    fn recompute_env(&mut self) {
        match self {
            Node::Leaf { env, entries } => {
                *env = entries
                    .iter()
                    .fold(Envelope::EMPTY, |acc, (e, _)| acc.union(e));
            }
            Node::Inner { env, children } => {
                *env = children
                    .iter()
                    .fold(Envelope::EMPTY, |acc, c| acc.union(&c.envelope()));
            }
        }
    }
}

/// R-tree mapping envelopes to payload values of type `T`.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Empty tree.
    pub fn new() -> Self {
        RTree { root: Node::Leaf { env: Envelope::EMPTY, entries: Vec::new() }, len: 0 }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Envelope covering every entry (empty envelope when empty).
    pub fn envelope(&self) -> Envelope {
        self.root.envelope()
    }

    /// Bulk-load entries with Sort-Tile-Recursive packing on the
    /// default worker pool. See [`RTree::bulk_load_with`].
    pub fn bulk_load(items: Vec<(Envelope, T)>) -> Self
    where
        T: Send,
    {
        Self::bulk_load_with(&WorkerPool::default(), items)
    }

    /// Bulk-load entries with STR packing, both sort passes cut along
    /// `pool`'s morsels — a single inline one under
    /// [`PAR_BULK_LOAD_THRESHOLD`] entries or at one thread.
    ///
    /// The tree is the same at every pool size: the x-sort runs as
    /// per-morsel stable sorts merged with ties favoring the earlier
    /// morsel (morsels are contiguous input ranges, so the merge
    /// reproduces the global stable sort), and the per-strip y-sort +
    /// leaf packing concatenates in strip order.
    pub fn bulk_load_with(pool: &WorkerPool, items: Vec<(Envelope, T)>) -> Self
    where
        T: Send,
    {
        let len = items.len();
        if len <= MAX_ENTRIES {
            let mut leaf = Node::Leaf { env: Envelope::EMPTY, entries: items };
            leaf.recompute_env();
            return RTree { root: leaf, len };
        }
        // STR: sort by centre x, slice into vertical strips, sort each
        // strip by centre y, pack runs of MAX_ENTRIES into leaves.
        let mut rest = items.into_iter();
        let runs: Vec<Vec<(Envelope, T)>> = pool.run(
            pool.morsels_for(len, PAR_BULK_LOAD_THRESHOLD, 1)
                .into_iter()
                .map(|r| {
                    let mut run: Vec<_> = rest.by_ref().take(r.len()).collect();
                    move || {
                        run.sort_by(cmp_center_x);
                        run
                    }
                })
                .collect(),
        );
        let (_, per_strip) = str_strip_layout(len);
        let mut strips = chunk_every(merge_by_center_x(runs), per_strip).into_iter();
        // The threshold counts entries; in strips it is that many
        // entries' worth.
        let leaves: Vec<Vec<Node<T>>> = pool.run(
            pool.morsels_for(strips.len(), PAR_BULK_LOAD_THRESHOLD.div_ceil(per_strip), 1)
                .into_iter()
                .map(|r| {
                    let mine: Vec<_> = strips.by_ref().take(r.len()).collect();
                    move || {
                        let mut leaves = Vec::new();
                        for mut strip in mine {
                            strip.sort_by(cmp_center_y);
                            leaves.extend(pack_leaves(strip));
                        }
                        leaves
                    }
                })
                .collect(),
        );
        // The upward pack touches only ~len/16 nodes per level; serial
        // is already memory-bound here.
        RTree { root: pack_upward(concat(leaves)), len }
    }

    /// All values whose envelope intersects `query`.
    pub fn query(&self, query: &Envelope) -> Vec<&T> {
        let mut out = Vec::new();
        query_rec(&self.root, query, &mut out);
        out
    }
}

/// STR layout for `len` entries: `(strip_count, per_strip)`.
fn str_strip_layout(len: usize) -> (usize, usize) {
    let leaf_count = len.div_ceil(MAX_ENTRIES);
    let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
    let per_strip = len.div_ceil(strip_count.max(1));
    (strip_count, per_strip.max(1))
}

/// Centre-x comparator used by the STR outer sort. Incomparable keys
/// (NaN centres) tie, which a stable sort leaves in input order.
fn cmp_center_x<T>(a: &(Envelope, T), b: &(Envelope, T)) -> Ordering {
    a.0.center().x.partial_cmp(&b.0.center().x).unwrap_or(Ordering::Equal)
}

/// Centre-y comparator used by the per-strip inner sort.
fn cmp_center_y<T>(a: &(Envelope, T), b: &(Envelope, T)) -> Ordering {
    a.0.center().y.partial_cmp(&b.0.center().y).unwrap_or(Ordering::Equal)
}

/// Split `items` into owned runs of `size` (the last may be shorter),
/// preserving order. Owned (rather than borrowed) runs let the bulk
/// load move each run into its task.
fn chunk_every<E>(items: Vec<E>, size: usize) -> Vec<Vec<E>> {
    let size = size.max(1);
    let mut out = Vec::with_capacity(items.len().div_ceil(size).max(1));
    let mut rest = items;
    while rest.len() > size {
        let tail = rest.split_off(size);
        out.push(std::mem::replace(&mut rest, tail));
    }
    if !rest.is_empty() {
        out.push(rest);
    }
    out
}

/// Merge chunks that are each sorted by [`cmp_center_x`] into one
/// sorted run. Ties — and NaN centres, which compare as ties — pick
/// the earliest chunk; since chunks are contiguous input ranges this
/// reproduces the global stable sort exactly.
fn merge_by_center_x<T>(mut chunks: Vec<Vec<(Envelope, T)>>) -> Vec<(Envelope, T)> {
    if chunks.len() <= 1 {
        return chunks.pop().unwrap_or_default();
    }
    let total = chunks.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = chunks.into_iter().map(|c| c.into_iter().peekable()).collect();
    let mut out: Vec<(Envelope, T)> = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (m, it) in iters.iter_mut().enumerate() {
            if let Some((env, _)) = it.peek() {
                let x = env.center().x;
                best = match best {
                    Some((bm, bx)) if x.partial_cmp(&bx) != Some(Ordering::Less) => {
                        Some((bm, bx))
                    }
                    _ => Some((m, x)),
                };
            }
        }
        match best {
            Some((m, _)) => {
                if let Some(item) = iters[m].next() {
                    out.push(item);
                }
            }
            None => break,
        }
    }
    out
}

/// Pack a y-sorted strip into STR leaves of up to `MAX_ENTRIES`.
fn pack_leaves<T>(strip: Vec<(Envelope, T)>) -> Vec<Node<T>> {
    chunk_every(strip, MAX_ENTRIES)
        .into_iter()
        .map(|entries| {
            let mut leaf = Node::Leaf { env: Envelope::EMPTY, entries };
            leaf.recompute_env();
            leaf
        })
        .collect()
}

/// Pack a level of nodes upward until a single root remains. An empty
/// input (impossible from the bulk-load paths, which early-return on
/// empty) falls back to an empty leaf.
fn pack_upward<T>(leaves: Vec<Node<T>>) -> Node<T> {
    let mut level = leaves;
    while level.len() > 1 {
        level = chunk_every(level, MAX_ENTRIES)
            .into_iter()
            .map(|children| {
                let mut inner = Node::Inner { env: Envelope::EMPTY, children };
                inner.recompute_env();
                inner
            })
            .collect();
    }
    level
        .pop()
        .unwrap_or(Node::Leaf { env: Envelope::EMPTY, entries: Vec::new() })
}

fn query_rec<'a, T>(node: &'a Node<T>, query: &Envelope, out: &mut Vec<&'a T>) {
    if !node.envelope().intersects(query) {
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            for (env, v) in entries {
                if env.intersects(query) {
                    out.push(v);
                }
            }
        }
        Node::Inner { children, .. } => {
            for ch in children {
                query_rec(ch, query, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    impl<T> RTree<T> {
        /// Visit every entry in tree order.
        fn for_each<F: FnMut(&Envelope, &T)>(&self, mut f: F) {
            collect_entries(&self.root, &mut f);
        }

        /// Height of the tree (1 for a single leaf).
        fn height(&self) -> usize {
            let mut h = 1;
            let mut node = &self.root;
            while let Node::Inner { children, .. } = node {
                h += 1;
                node = &children[0];
            }
            h
        }
    }

    fn collect_entries<T, F: FnMut(&Envelope, &T)>(node: &Node<T>, f: &mut F) {
        match node {
            Node::Leaf { entries, .. } => {
                for (env, v) in entries {
                    f(env, v);
                }
            }
            Node::Inner { children, .. } => {
                for ch in children {
                    collect_entries(ch, f);
                }
            }
        }
    }

    fn env(x: f64, y: f64) -> Envelope {
        Envelope::new(Coord::new(x, y), Coord::new(x + 1.0, y + 1.0))
    }

    fn grid(n: usize) -> Vec<(Envelope, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64 * 2.0;
                let y = (i / 100) as f64 * 2.0;
                (env(x, y), i)
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.query(&env(0.0, 0.0)).is_empty());
    }

    #[test]
    fn bulk_load_matches_linear_scan() {
        let items = grid(1000);
        let t = RTree::bulk_load(items.clone());
        assert_eq!(t.len(), 1000);
        let q = Envelope::new(Coord::new(10.0, 2.0), Coord::new(30.0, 7.0));
        let mut from_tree: Vec<usize> = t.query(&q).into_iter().copied().collect();
        from_tree.sort_unstable();
        let mut from_scan: Vec<usize> = items
            .iter()
            .filter(|(e, _)| e.intersects(&q))
            .map(|(_, i)| *i)
            .collect();
        from_scan.sort_unstable();
        assert_eq!(from_tree, from_scan);
    }

    #[test]
    fn bulk_load_small() {
        let t = RTree::bulk_load(vec![(env(0.0, 0.0), 'a'), (env(5.0, 5.0), 'b')]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.query(&env(5.2, 5.2)), vec![&'b']);
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = RTree::bulk_load(grid(4000));
        // 4000 entries at fanout 16: height 3 (16^3 = 4096).
        assert!(t.height() <= 4, "height was {}", t.height());
    }

    #[test]
    fn bulk_load_builds_the_same_tree_at_every_thread_count() {
        // Grid data has heavy centre-x ties (100 columns), stressing
        // the tie-stability of the run merge. Sizes straddle the
        // single-leaf cutoff and the parallel threshold.
        const T: usize = PAR_BULK_LOAD_THRESHOLD;
        for n in [0, MAX_ENTRIES, MAX_ENTRIES + 1, T - 1, T, T + 1, 10_000] {
            let items = grid(n);
            let one = RTree::bulk_load_with(&WorkerPool::with_threads(1), items.clone());
            assert_eq!(one.len(), n);
            // Identical tree structure implies identical traversal
            // order, not just an equal entry set.
            let mut a = Vec::new();
            one.for_each(|_, &v| a.push(v));
            for threads in [2usize, 3, 4, 8] {
                let pool = WorkerPool::with_threads(threads);
                let many = RTree::bulk_load_with(&pool, items.clone());
                assert_eq!(many.len(), one.len(), "n={n} threads={threads}");
                assert_eq!(many.height(), one.height(), "n={n} threads={threads}");
                assert_eq!(many.envelope(), one.envelope(), "n={n} threads={threads}");
                let mut b = Vec::new();
                many.for_each(|_, &v| b.push(v));
                assert_eq!(a, b, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn bulk_load_answers_window_queries_like_a_scan() {
        let mut state = 7u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        let items: Vec<(Envelope, usize)> = (0..6000)
            .map(|i| {
                let x = next();
                let y = next();
                let w = next() / 20.0;
                let h = next() / 20.0;
                (Envelope::new(Coord::new(x, y), Coord::new(x + w, y + h)), i)
            })
            .collect();
        let serial = RTree::bulk_load_with(&WorkerPool::with_threads(1), items.clone());
        let par = RTree::bulk_load_with(&WorkerPool::with_threads(4), items.clone());
        for (x0, y0, x1, y1) in
            [(0.0, 0.0, 25.0, 25.0), (40.0, 10.0, 70.0, 30.0), (90.0, 90.0, 100.0, 100.0)]
        {
            let q = Envelope::new(Coord::new(x0, y0), Coord::new(x1, y1));
            let mut a: Vec<usize> = serial.query(&q).into_iter().copied().collect();
            let mut b: Vec<usize> = par.query(&q).into_iter().copied().collect();
            let mut scan: Vec<usize> = items
                .iter()
                .filter(|(e, _)| e.intersects(&q))
                .map(|(_, i)| *i)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            scan.sort_unstable();
            assert_eq!(a, scan);
            assert_eq!(b, scan);
        }
    }
}
