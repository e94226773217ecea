//! An R-tree over envelopes with attached payloads.
//!
//! Construction is either incremental ([`RTree::insert`], quadratic-split
//! R-tree in the style of Guttman) or bulk ([`RTree::bulk_load`],
//! Sort-Tile-Recursive packing, which produces near-optimal trees and is
//! what Strabon's spatial sidecar uses after dataset load).
//!
//! Supported queries: envelope intersection ([`RTree::query`]), point
//! containment ([`RTree::query_point`]), and k-nearest-neighbour by
//! envelope distance ([`RTree::nearest`]).

use crate::coord::{Coord, Envelope};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use teleios_exec::{concat, WorkerPool};

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 4;

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

    /// Insert one entry (Guttman insertion with quadratic split).
    pub fn insert(&mut self, env: Envelope, value: T) {
        self.len += 1;
        if let Some((left, right)) = insert_rec(&mut self.root, env, value) {
            // Root split: grow the tree.
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Inner { env: Envelope::EMPTY, children: Vec::new() },
            );
            // old_root has been replaced by `left` contents already; rebuild.
            drop(old_root);
            let mut inner = Node::Inner { env: Envelope::EMPTY, children: vec![left, right] };
            inner.recompute_env();
            self.root = inner;
        }
    }

    /// All values whose envelope intersects `query`.
    pub fn query(&self, query: &Envelope) -> Vec<&T> {
        let mut out = Vec::new();
        query_rec(&self.root, query, &mut out);
        out
    }

    /// All (envelope, value) pairs whose envelope intersects `query`.
    pub fn query_entries(&self, query: &Envelope) -> Vec<(&Envelope, &T)> {
        let mut out = Vec::new();
        query_entries_rec(&self.root, query, &mut out);
        out
    }

    /// All values whose envelope contains the point `p`.
    pub fn query_point(&self, p: Coord) -> Vec<&T> {
        self.query(&Envelope::from_coord(p))
    }

    /// The `k` entries nearest to `p` by envelope distance, closest first.
    pub fn nearest(&self, p: Coord, k: usize) -> Vec<(&Envelope, &T, f64)> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        // Best-first search over nodes and entries.
        struct Item<'a, T> {
            dist: f64,
            kind: ItemKind<'a, T>,
        }
        enum ItemKind<'a, T> {
            Node(&'a Node<T>),
            Entry(&'a Envelope, &'a T),
        }
        impl<T> PartialEq for Item<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl<T> Eq for Item<'_, T> {}
        impl<T> PartialOrd for Item<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for Item<'_, T> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for a min-heap on distance.
                other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal)
            }
        }

        let mut heap: BinaryHeap<Item<'_, T>> = BinaryHeap::new();
        heap.push(Item { dist: self.root.envelope().distance_to_coord(p), kind: ItemKind::Node(&self.root) });
        let mut out = Vec::with_capacity(k);
        while let Some(item) = heap.pop() {
            match item.kind {
                ItemKind::Node(Node::Inner { children, .. }) => {
                    for ch in children {
                        heap.push(Item {
                            dist: ch.envelope().distance_to_coord(p),
                            kind: ItemKind::Node(ch),
                        });
                    }
                }
                ItemKind::Node(Node::Leaf { entries, .. }) => {
                    for (env, v) in entries {
                        heap.push(Item {
                            dist: env.distance_to_coord(p),
                            kind: ItemKind::Entry(env, v),
                        });
                    }
                }
                ItemKind::Entry(env, v) => {
                    out.push((env, v, item.dist));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Keep only entries whose value satisfies `pred`; rebuilds the tree.
    pub fn retain<F: FnMut(&Envelope, &T) -> bool>(&mut self, mut pred: F)
    where
        T: Clone + Send,
    {
        let mut kept: Vec<(Envelope, T)> = Vec::with_capacity(self.len);
        collect_entries(&self.root, &mut |env, v| {
            if pred(env, v) {
                kept.push((*env, v.clone()));
            }
        });
        *self = RTree::bulk_load(kept);
    }

    /// Visit every entry.
    pub fn for_each<F: FnMut(&Envelope, &T)>(&self, mut f: F) {
        collect_entries(&self.root, &mut f);
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Inner { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
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

fn query_entries_rec<'a, T>(
    node: &'a Node<T>,
    query: &Envelope,
    out: &mut Vec<(&'a Envelope, &'a T)>,
) {
    if !node.envelope().intersects(query) {
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            for (env, v) in entries {
                if env.intersects(query) {
                    out.push((env, v));
                }
            }
        }
        Node::Inner { children, .. } => {
            for ch in children {
                query_entries_rec(ch, query, out);
            }
        }
    }
}

/// Recursive insert. Returns `Some((left, right))` when the node split;
/// the caller must replace the node with the pair. On split the original
/// node is left as `left` and the function returns both halves.
fn insert_rec<T>(node: &mut Node<T>, env: Envelope, value: T) -> Option<(Node<T>, Node<T>)> {
    match node {
        Node::Leaf { env: node_env, entries } => {
            entries.push((env, value));
            *node_env = node_env.union(&env);
            if entries.len() > MAX_ENTRIES {
                let (a, b) = split_leaf(std::mem::take(entries));
                Some((a, b))
            } else {
                None
            }
        }
        Node::Inner { env: node_env, children } => {
            *node_env = node_env.union(&env);
            // Choose the child needing least enlargement (ties: least area).
            let idx = children
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ea = a.envelope().enlargement(&env);
                    let eb = b.envelope().enlargement(&env);
                    ea.partial_cmp(&eb)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| {
                            a.envelope()
                                .area()
                                .partial_cmp(&b.envelope().area())
                                .unwrap_or(Ordering::Equal)
                        })
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            if let Some((a, b)) = insert_rec(&mut children[idx], env, value) {
                children[idx] = a;
                children.push(b);
                if children.len() > MAX_ENTRIES {
                    let (a, b) = split_inner(std::mem::take(children));
                    return Some((a, b));
                }
            }
            None
        }
    }
}

/// Quadratic split for leaf entries.
fn split_leaf<T>(entries: Vec<(Envelope, T)>) -> (Node<T>, Node<T>) {
    let seeds = pick_seeds(&entries.iter().map(|(e, _)| *e).collect::<Vec<_>>());
    let mut left: Vec<(Envelope, T)> = Vec::with_capacity(entries.len());
    let mut right: Vec<(Envelope, T)> = Vec::with_capacity(entries.len());
    let mut left_env = Envelope::EMPTY;
    let mut right_env = Envelope::EMPTY;
    for (i, (env, v)) in entries.into_iter().enumerate() {
        let to_left = if i == seeds.0 {
            true
        } else if i == seeds.1
            || left.len() + (MIN_ENTRIES.saturating_sub(right.len())) >= MAX_ENTRIES
        {
            false
        } else if right.len() + (MIN_ENTRIES.saturating_sub(left.len())) >= MAX_ENTRIES {
            true
        } else {
            left_env.enlargement(&env) <= right_env.enlargement(&env)
        };
        if to_left {
            left_env = left_env.union(&env);
            left.push((env, v));
        } else {
            right_env = right_env.union(&env);
            right.push((env, v));
        }
    }
    (
        Node::Leaf { env: left_env, entries: left },
        Node::Leaf { env: right_env, entries: right },
    )
}

/// Quadratic split for inner-node children.
fn split_inner<T>(children: Vec<Node<T>>) -> (Node<T>, Node<T>) {
    let seeds = pick_seeds(&children.iter().map(|c| c.envelope()).collect::<Vec<_>>());
    let mut left: Vec<Node<T>> = Vec::with_capacity(children.len());
    let mut right: Vec<Node<T>> = Vec::with_capacity(children.len());
    let mut left_env = Envelope::EMPTY;
    let mut right_env = Envelope::EMPTY;
    for (i, ch) in children.into_iter().enumerate() {
        let env = ch.envelope();
        let to_left = if i == seeds.0 {
            true
        } else if i == seeds.1
            || left.len() + (MIN_ENTRIES.saturating_sub(right.len())) >= MAX_ENTRIES
        {
            false
        } else if right.len() + (MIN_ENTRIES.saturating_sub(left.len())) >= MAX_ENTRIES {
            true
        } else {
            left_env.enlargement(&env) <= right_env.enlargement(&env)
        };
        if to_left {
            left_env = left_env.union(&env);
            left.push(ch);
        } else {
            right_env = right_env.union(&env);
            right.push(ch);
        }
    }
    (
        Node::Inner { env: left_env, children: left },
        Node::Inner { env: right_env, children: right },
    )
}

/// Pick the pair of envelopes wasting the most area together (quadratic).
fn pick_seeds(envs: &[Envelope]) -> (usize, usize) {
    let mut best = (0usize, 1usize);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..envs.len() {
        for j in (i + 1)..envs.len() {
            let waste = envs[i].union(&envs[j]).area() - envs[i].area() - envs[j].area();
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(t.nearest(Coord::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    fn insert_and_query() {
        let mut t = RTree::new();
        for (e, i) in grid(500) {
            t.insert(e, i);
        }
        assert_eq!(t.len(), 500);
        // Query a window covering cells (0,0)..(4,4) in grid steps of 2.
        let q = Envelope::new(Coord::new(0.0, 0.0), Coord::new(8.5, 8.5));
        let mut hits: Vec<usize> = t.query(&q).into_iter().copied().collect();
        hits.sort_unstable();
        // Cells with x in {0,2,4,6,8} (i%100 in 0..=4) and y rows 0..=4.
        let expected: Vec<usize> = (0..500)
            .filter(|i| (i % 100) <= 4 && (i / 100) <= 4)
            .collect();
        assert_eq!(hits, expected);
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
    fn query_point_hits_covering_envelopes() {
        let t = RTree::bulk_load(vec![
            (Envelope::new(Coord::new(0.0, 0.0), Coord::new(10.0, 10.0)), 1),
            (Envelope::new(Coord::new(5.0, 5.0), Coord::new(15.0, 15.0)), 2),
        ]);
        let mut hits: Vec<i32> = t.query_point(Coord::new(7.0, 7.0)).into_iter().copied().collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(t.query_point(Coord::new(12.0, 12.0)), vec![&2]);
    }

    #[test]
    fn nearest_orders_by_distance() {
        let t = RTree::bulk_load(vec![
            (env(0.0, 0.0), "origin"),
            (env(10.0, 0.0), "right"),
            (env(0.0, 10.0), "up"),
            (env(50.0, 50.0), "far"),
        ]);
        let nn = t.nearest(Coord::new(0.5, 0.5), 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(*nn[0].1, "origin");
        assert_eq!(nn[0].2, 0.0);
        assert!(nn[1].2 <= nn[2].2);
    }

    #[test]
    fn nearest_k_larger_than_len() {
        let t = RTree::bulk_load(vec![(env(0.0, 0.0), 1)]);
        assert_eq!(t.nearest(Coord::new(5.0, 5.0), 10).len(), 1);
    }

    #[test]
    fn retain_drops_entries() {
        let mut t = RTree::bulk_load(grid(100));
        t.retain(|_, &v| v % 2 == 0);
        assert_eq!(t.len(), 50);
        let mut all = Vec::new();
        t.for_each(|_, &v| all.push(v));
        assert!(all.iter().all(|v| v % 2 == 0));
    }

    #[test]
    fn incremental_matches_scan_on_random_data() {
        // Deterministic pseudo-random envelopes.
        let mut state = 42u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 10.0
        };
        let items: Vec<(Envelope, usize)> = (0..800)
            .map(|i| {
                let x = next();
                let y = next();
                let w = next() / 20.0;
                let h = next() / 20.0;
                (Envelope::new(Coord::new(x, y), Coord::new(x + w, y + h)), i)
            })
            .collect();
        let mut t = RTree::new();
        for (e, i) in items.clone() {
            t.insert(e, i);
        }
        let q = Envelope::new(Coord::new(20.0, 20.0), Coord::new(60.0, 60.0));
        let mut a: Vec<usize> = t.query(&q).into_iter().copied().collect();
        a.sort_unstable();
        let mut b: Vec<usize> = items
            .iter()
            .filter(|(e, _)| e.intersects(&q))
            .map(|(_, i)| *i)
            .collect();
        b.sort_unstable();
        assert_eq!(a, b);
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

    #[test]
    fn query_entries_returns_envelopes() {
        let t = RTree::bulk_load(vec![(env(1.0, 1.0), 7u32)]);
        let entries = t.query_entries(&env(1.2, 1.2));
        assert_eq!(entries.len(), 1);
        assert_eq!(*entries[0].1, 7);
        assert_eq!(entries[0].0.min, Coord::new(1.0, 1.0));
    }
}
