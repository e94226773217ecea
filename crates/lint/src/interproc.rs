//! Phase two: link every file's [`FileSummary`] into a workspace-wide
//! call graph and run the interprocedural concurrency rules over it.
//!
//! Resolution works bottom-up over the crate-dependency graph. The
//! graph is condensed with Tarjan's SCC algorithm — dependency cycles
//! (legal between dev-dependencies, and deliberately present in the
//! self-test fixture workspace) get a fixpoint iteration inside the
//! component, so facts converge even when crate A's helper calls into
//! crate B and back.
//!
//! A call site resolves to workspace `fn` items through, in order:
//! `crate::`/`self::`/`super::` paths, the file's `use`-alias map
//! (one hop — a `std` import is exclusive and ends resolution), the
//! caller crate's own `mod` declarations, and finally crate names
//! (`teleios_store::open` and, for fixture workspaces, plain member
//! names). `pub use` re-export chains are chased through facade
//! crates with a cycle guard. Method calls resolve by name within the
//! caller's crate first, then — excluding ubiquitous std method names
//! — to a unique hit in the crate's dependency closure.
//!
//! The facts computed over the linked graph:
//!
//! - **polls**: does a function transitively reach a `CancelToken`
//!   poll? (feeds L12 and the CFG call resolution);
//! - **may-block**: the first blocking primitive a function can reach
//!   (feeds L11's cross-crate call verdicts);
//! - **lock sets**: every lock a call into a function may acquire
//!   (feeds the workspace lock-order graph, L6);
//! - **L7 blocking sites**: the raw sleep/recv a pool-dispatched
//!   task can reach, with the call chain for the diagnostic.

use crate::cfg::{self, CallVerdict, Event};
use crate::rules::{Diagnostics, Rule};
use crate::summary::FileSummary;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// `(file index, fn index)` — one function in the analyzed set.
type FnKey = (usize, usize);

/// Path segments that never name a workspace member, even when a
/// member shares the name (`teleios-core` vs `::core`).
const EXCLUDED_SEGS: [&str; 6] = ["std", "core", "alloc", "crate", "self", "super"];

const POLLS: [&str; 3] = ["is_cancelled", "poll_cancellable", "sleep_cancellable"];

/// The dispatch methods that hand the task a `CancelToken` — only
/// their paths owe L12 an iteration-wise poll.
const CANCELLABLE_DISPATCHES: [&str; 1] = ["try_run_cancellable"];

/// Ubiquitous std/collection method names: a `.len()` in crate A must
/// not resolve to some crate B's `fn len` just because B is the only
/// dependency defining one. Same-crate resolution is checked first
/// and is not subject to this list.
const METHOD_COMMON: [&str; 64] = [
    "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str", "borrow",
    "borrow_mut", "chain", "chars", "clear", "clone", "cloned", "cmp", "collect", "contains",
    "contains_key", "count", "drain", "entry", "enumerate", "eq", "extend", "filter", "find",
    "first", "flatten", "flush", "fmt", "fold", "get", "get_mut", "insert", "into_iter", "is_empty",
    "iter", "iter_mut", "join", "keys", "last", "len", "map", "max", "min", "next", "parse",
    "position", "push", "push_str", "remove", "retain", "rev", "send", "sort", "split", "sum",
    "take", "to_owned", "to_string", "to_vec", "values", "zip",
];

/// Run the interprocedural rules (L6, L7, and the path-sensitive
/// L10/L11/L12) over the linked summaries, recording per-rule
/// wall-clock into `phases` for `--timings`.
pub(crate) fn link_rules(
    sums: &[FileSummary],
    diag: &mut Diagnostics,
    phases: &mut Vec<(&'static str, u128)>,
) {
    let t = std::time::Instant::now();
    let lk = Linker::new(sums);
    phases.push(("link:graph-build", t.elapsed().as_micros()));
    let t = std::time::Instant::now();
    lk.lock_order(diag);
    phases.push(("link:lock-order", t.elapsed().as_micros()));
    let t = std::time::Instant::now();
    lk.cancel_safety(diag);
    phases.push(("link:cancel-safety", t.elapsed().as_micros()));
    let t = std::time::Instant::now();
    lk.flow_rules(diag);
    phases.push(("link:flow-rules", t.elapsed().as_micros()));
}

struct Linker<'a> {
    sums: &'a [FileSummary],
    members: BTreeSet<&'a str>,
    /// crate → fn name → definitions (non-test only).
    fns_by_crate: HashMap<&'a str, HashMap<&'a str, Vec<FnKey>>>,
    /// crate → exported name → source path (first declaration wins).
    reexports: HashMap<&'a str, HashMap<&'a str, &'a [String]>>,
    /// per file: `use` binding → full path.
    imports: Vec<HashMap<&'a str, &'a [String]>>,
    /// crate → its `mod` declarations.
    mods: HashMap<&'a str, BTreeSet<&'a str>>,
    /// transitive dependency closure per crate.
    dep_closure: HashMap<&'a str, BTreeSet<&'a str>>,
    /// SCCs of the crate graph, dependencies-first.
    sccs: Vec<Vec<&'a str>>,
    /// per non-test fn: resolved targets of each summary call site,
    /// aligned with `FnEffects::calls`.
    resolved: HashMap<FnKey, Vec<Vec<FnKey>>>,
    /// fns that transitively poll the CancelToken.
    polls: HashSet<FnKey>,
    /// fn → the first blocking primitive it can reach, if any.
    any_block: HashMap<FnKey, Option<String>>,
}

impl<'a> Linker<'a> {
    fn new(sums: &'a [FileSummary]) -> Linker<'a> {
        let members: BTreeSet<&str> = sums.iter().map(|s| s.crate_name.as_str()).collect();

        let mut fns_by_crate: HashMap<&str, HashMap<&str, Vec<FnKey>>> = HashMap::new();
        for (fi, s) in sums.iter().enumerate() {
            for (k, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                fns_by_crate
                    .entry(s.crate_name.as_str())
                    .or_default()
                    .entry(f.name.as_str())
                    .or_default()
                    .push((fi, k));
            }
        }

        let mut reexports: HashMap<&str, HashMap<&str, &[String]>> = HashMap::new();
        let mut mods: HashMap<&str, BTreeSet<&str>> = HashMap::new();
        let mut imports: Vec<HashMap<&str, &[String]>> = Vec::with_capacity(sums.len());
        for s in sums {
            let c = s.crate_name.as_str();
            let re = reexports.entry(c).or_default();
            for (name, path) in &s.reexports {
                re.entry(name.as_str()).or_insert(path.as_slice());
            }
            mods.entry(c).or_default().extend(s.mods.iter().map(String::as_str));
            imports.push(
                s.imports.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect(),
            );
        }

        let mut deps: BTreeMap<&str, BTreeSet<&str>> =
            members.iter().map(|&m| (m, BTreeSet::new())).collect();
        for s in sums {
            let c = s.crate_name.as_str();
            let mut firsts: Vec<&str> = Vec::new();
            for (_, path) in &s.imports {
                firsts.extend(path.first().map(String::as_str));
            }
            for path in &s.globs {
                firsts.extend(path.first().map(String::as_str));
            }
            for (_, path) in &s.reexports {
                firsts.extend(path.first().map(String::as_str));
            }
            for f in &s.fns {
                for call in &f.calls {
                    firsts.extend(call.qual.first().map(String::as_str));
                }
            }
            for r in &s.fn_returns {
                if let Some(qc) = &r.qualified_crate {
                    if let Some(&m) = members.get(qc.as_str()) {
                        firsts.push(m);
                    }
                }
            }
            if let Some(d) = deps.get_mut(c) {
                for seg in firsts {
                    if let Some(m) = member_of(&members, seg) {
                        if m != c {
                            d.insert(m);
                        }
                    }
                }
            }
        }

        let mut dep_closure: HashMap<&str, BTreeSet<&str>> = HashMap::new();
        for &m in &members {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![m];
            while let Some(n) = stack.pop() {
                for &d in deps.get(n).into_iter().flatten() {
                    if seen.insert(d) {
                        stack.push(d);
                    }
                }
            }
            dep_closure.insert(m, seen);
        }

        let sccs = tarjan_sccs(&members, &deps);

        let mut lk = Linker {
            sums,
            members,
            fns_by_crate,
            reexports,
            imports,
            mods,
            dep_closure,
            sccs,
            resolved: HashMap::new(),
            polls: HashSet::new(),
            any_block: HashMap::new(),
        };
        lk.precompute_resolutions();
        lk.compute_polls();
        lk.compute_any_block();
        lk
    }

    // -----------------------------------------------------------
    // Name resolution
    // -----------------------------------------------------------

    /// The workspace crate a bare path segment names from `fi`'s
    /// scope, if any.
    fn crate_of_seg(&self, fi: usize, seg: &str) -> Option<&'a str> {
        let caller = self.sums[fi].crate_name.as_str();
        if matches!(seg, "crate" | "self" | "super") {
            return Some(caller);
        }
        if let Some(path) = self.imports[fi].get(seg) {
            return match path.first().map(String::as_str) {
                Some("crate" | "self" | "super") => Some(caller),
                Some(first) => member_of(&self.members, first),
                // A `std`/external import is exclusive: the name is
                // taken, and it is not ours.
                None => None,
            };
        }
        if self.mods.get(caller).is_some_and(|m| m.contains(seg)) {
            return Some(caller);
        }
        member_of(&self.members, seg)
    }

    /// Definitions of `name` in `krate`, chasing `pub use` re-export
    /// chains through facades (with a cycle guard).
    fn lookup_fn(&self, krate: &'a str, name: &str) -> Vec<FnKey> {
        let mut seen: HashSet<(&str, String)> = HashSet::new();
        self.lookup_inner(krate, name, &mut seen)
    }

    fn lookup_inner(
        &self,
        krate: &'a str,
        name: &str,
        seen: &mut HashSet<(&'a str, String)>,
    ) -> Vec<FnKey> {
        if let Some(v) = self.fns_by_crate.get(krate).and_then(|m| m.get(name)) {
            return v.clone();
        }
        if !seen.insert((krate, name.to_string())) {
            return Vec::new();
        }
        if let Some(path) = self.reexports.get(krate).and_then(|m| m.get(name)) {
            let target = match path.first().map(String::as_str) {
                Some("crate" | "self" | "super") | None => krate,
                // `pub use inner::thing` (module-relative) stays in
                // this crate; `pub use teleios_store::open` hops.
                Some(first) => member_of(&self.members, first).unwrap_or(krate),
            };
            let real = path.last().map_or(name, String::as_str);
            return self.lookup_inner(target, real, seen);
        }
        Vec::new()
    }

    /// Workspace definitions a call site may land on. Empty when the
    /// call is external (std) or unresolvable from tokens.
    fn resolve(&self, fi: usize, name: &str, qual: &[String], method: bool) -> Vec<FnKey> {
        let caller = self.sums[fi].crate_name.as_str();
        if method {
            let v = self.lookup_fn(caller, name);
            if !v.is_empty() {
                return v;
            }
            if METHOD_COMMON.contains(&name) {
                return Vec::new();
            }
            // A unique hit in the dependency closure resolves;
            // ambiguity (or no hit) stays unresolved.
            let mut hit: Option<Vec<FnKey>> = None;
            for &dep in self.dep_closure.get(caller).into_iter().flatten() {
                if dep == caller {
                    continue;
                }
                let v = self.lookup_fn(dep, name);
                if !v.is_empty() {
                    if hit.is_some() {
                        return Vec::new();
                    }
                    hit = Some(v);
                }
            }
            return hit.unwrap_or_default();
        }
        if qual.is_empty() {
            if let Some(path) = self.imports[fi].get(name) {
                let target = match path.first().map(String::as_str) {
                    Some("crate" | "self" | "super") => Some(caller),
                    Some(first) => member_of(&self.members, first),
                    None => None,
                };
                // The import is exclusive: a std binding ends
                // resolution even though the name matches nothing.
                return match target {
                    Some(t) => {
                        let real = path.last().map_or(name, String::as_str);
                        self.lookup_fn(t, real)
                    }
                    None => Vec::new(),
                };
            }
            let v = self.lookup_fn(caller, name);
            if !v.is_empty() {
                return v;
            }
            for g in &self.sums[fi].globs {
                if let Some(first) = g.first() {
                    if let Some(m) = member_of(&self.members, first) {
                        let v = self.lookup_fn(m, name);
                        if !v.is_empty() {
                            return v;
                        }
                    }
                }
            }
            return Vec::new();
        }
        match self.crate_of_seg(fi, &qual[0]) {
            Some(t) => self.lookup_fn(t, name),
            None => Vec::new(),
        }
    }

    fn precompute_resolutions(&mut self) {
        let mut resolved: HashMap<FnKey, Vec<Vec<FnKey>>> = HashMap::new();
        for (fi, s) in self.sums.iter().enumerate() {
            for (k, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let targets = f
                    .calls
                    .iter()
                    .map(|c| self.resolve(fi, &c.name, &c.qual, c.method))
                    .collect();
                resolved.insert((fi, k), targets);
            }
        }
        self.resolved = resolved;
    }

    // -----------------------------------------------------------
    // Facts
    // -----------------------------------------------------------

    /// Which fns transitively poll the CancelToken: seeded from
    /// direct poll calls, closed bottom-up over the crate SCCs (with
    /// a fixpoint inside each component), then a final global sweep
    /// in case resolution produced an edge outside the declared
    /// dependency graph.
    fn compute_polls(&mut self) {
        let mut polls: HashSet<FnKey> = HashSet::new();
        let mut by_crate: HashMap<&str, Vec<FnKey>> = HashMap::new();
        for (fi, s) in self.sums.iter().enumerate() {
            for (k, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_crate.entry(s.crate_name.as_str()).or_default().push((fi, k));
                if f.calls.iter().any(|c| POLLS.contains(&c.name.as_str())) {
                    polls.insert((fi, k));
                }
            }
        }
        let sweep = |keys: &[FnKey], polls: &mut HashSet<FnKey>| loop {
            let mut changed = false;
            for &key in keys {
                if polls.contains(&key) {
                    continue;
                }
                let reaches = self
                    .resolved
                    .get(&key)
                    .is_some_and(|ts| ts.iter().flatten().any(|t| polls.contains(t)));
                if reaches {
                    polls.insert(key);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        };
        for scc in &self.sccs {
            let keys: Vec<FnKey> = scc
                .iter()
                .flat_map(|c| by_crate.get(c).into_iter().flatten())
                .copied()
                .collect();
            sweep(&keys, &mut polls);
        }
        let all: Vec<FnKey> = {
            let mut v: Vec<FnKey> = by_crate.values().flatten().copied().collect();
            v.sort_unstable();
            v
        };
        sweep(&all, &mut polls);
        self.polls = polls;
    }

    /// Precompute the may-block fact for every fn (memoized DFS;
    /// cycles resolve to "no" — the false-negative bias every lint
    /// rule here shares).
    fn compute_any_block(&mut self) {
        let mut memo: HashMap<FnKey, Option<String>> = HashMap::new();
        for (fi, s) in self.sums.iter().enumerate() {
            for k in 0..s.fns.len() {
                let mut visiting = HashSet::new();
                self.any_block_of((fi, k), &mut memo, &mut visiting);
            }
        }
        self.any_block = memo;
    }

    fn any_block_of(
        &self,
        key: FnKey,
        memo: &mut HashMap<FnKey, Option<String>>,
        visiting: &mut HashSet<FnKey>,
    ) -> Option<String> {
        if let Some(m) = memo.get(&key) {
            return m.clone();
        }
        if !visiting.insert(key) {
            return None;
        }
        let (fi, k) = key;
        let f = &self.sums[fi].fns[k];
        let mut result: Option<String> = None;
        // The substrate blocks by design; calling into it is only a
        // finding when the call is itself a dispatch (a direct
        // Blocking event), not for its internals.
        if !self.sums[fi].policy.substrate && !f.is_test {
            if let Some(cfg) = &f.cfg {
                'outer: for b in &cfg.blocks {
                    for ev in &b.events {
                        match ev {
                            Event::Blocking { desc, .. } => {
                                result = Some(desc.clone());
                                break 'outer;
                            }
                            Event::Call { name, qual, method, .. } => {
                                for t in self.resolve(fi, name, qual, *method) {
                                    if let Some(inner) = self.any_block_of(t, memo, visiting) {
                                        result = Some(inner);
                                        break 'outer;
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        visiting.remove(&key);
        memo.insert(key, result.clone());
        result
    }

    // -----------------------------------------------------------
    // L6 lock-order — the workspace lock-acquisition graph
    // -----------------------------------------------------------

    /// Transitive closure of the lock names `key`'s function may
    /// acquire, each with a representative `(file, byte offset)`
    /// site.
    fn locks_of(
        &self,
        key: FnKey,
        memo: &mut HashMap<FnKey, BTreeMap<String, (usize, usize)>>,
        visiting: &mut HashSet<FnKey>,
    ) -> BTreeMap<String, (usize, usize)> {
        if let Some(m) = memo.get(&key) {
            return m.clone();
        }
        if !visiting.insert(key) {
            return BTreeMap::new();
        }
        let (fi, k) = key;
        let f = &self.sums[fi].fns[k];
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for a in &f.acqs {
            out.entry(a.lock.clone()).or_insert((fi, a.off));
        }
        if let Some(res) = self.resolved.get(&key) {
            for ts in res {
                for &t in ts {
                    for (n, site) in self.locks_of(t, memo, visiting) {
                        out.entry(n).or_insert(site);
                    }
                }
            }
        }
        visiting.remove(&key);
        memo.insert(key, out.clone());
        out
    }

    /// L6 — build the workspace lock-acquisition graph (edges through
    /// same-crate *and* cross-crate calls) and report every distinct
    /// cycle with `file:line` for each edge.
    fn lock_order(&self, diag: &mut Diagnostics) {
        let mut memo: HashMap<FnKey, BTreeMap<String, (usize, usize)>> = HashMap::new();
        for (fi, s) in self.sums.iter().enumerate() {
            for (k, f) in s.fns.iter().enumerate() {
                if !f.is_test {
                    let mut visiting = HashSet::new();
                    self.locks_of((fi, k), &mut memo, &mut visiting);
                }
            }
        }
        // Edges: lock A held while lock B is acquired (directly, or
        // inside a call made while A is held, wherever it resolves).
        let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
        for (fi, s) in self.sums.iter().enumerate() {
            for (k, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                for a in &f.acqs {
                    for b in &f.acqs {
                        if b.off > a.off && b.off <= a.until_off && b.lock != a.lock {
                            edges
                                .entry((a.lock.clone(), b.lock.clone()))
                                .or_insert((fi, b.off));
                        }
                    }
                    let Some(res) = self.resolved.get(&(fi, k)) else { continue };
                    for (ci, c) in f.calls.iter().enumerate() {
                        if c.off > a.off && c.off <= a.until_off {
                            for t in &res[ci] {
                                if let Some(locks) = memo.get(t) {
                                    for (lname, &site) in locks {
                                        if *lname != a.lock {
                                            edges
                                                .entry((a.lock.clone(), lname.clone()))
                                                .or_insert(site);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Cycle detection and reporting, one finding per node set.
        let adj: BTreeMap<&str, BTreeSet<&str>> = {
            let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for (a, b) in edges.keys() {
                m.entry(a.as_str()).or_default().insert(b.as_str());
            }
            m
        };
        let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
        for (a, b) in edges.keys() {
            let Some(path) = bfs_path(&adj, b, a) else { continue };
            let mut seq: Vec<&str> = vec![a.as_str()];
            seq.extend(path.iter().copied());
            let nodes: BTreeSet<String> = seq.iter().map(|s| s.to_string()).collect();
            if !reported.insert(nodes) {
                continue;
            }
            let desc = seq
                .windows(2)
                .map(|w| match edges.get(&(w[0].to_string(), w[1].to_string())) {
                    Some(&(efi, eoff)) => {
                        let (line, _) = self.sums[efi].idx.line_col(eoff);
                        format!("{} -> {} ({}:{})", w[0], w[1], self.sums[efi].label, line)
                    }
                    None => format!("{} -> {}", w[0], w[1]),
                })
                .collect::<Vec<_>>()
                .join(", ");
            let &(afi, aoff) = &edges[&(a.clone(), b.clone())];
            let msg =
                format!("lock-order cycle: {desc} — acquire these locks in one global order");
            diag.emit(&self.sums[afi], afi, aoff, Rule::LockOrder, msg);
        }
    }

    // -----------------------------------------------------------
    // L7 cancel-safety — across crate boundaries
    // -----------------------------------------------------------

    /// First raw blocking call reachable from `key`'s function
    /// through resolved calls, if any.
    fn blocks_in(
        &self,
        key: FnKey,
        memo: &mut HashMap<FnKey, Option<Site>>,
        visiting: &mut HashSet<FnKey>,
    ) -> Option<Site> {
        if let Some(m) = memo.get(&key) {
            return m.clone();
        }
        if !visiting.insert(key) {
            return None;
        }
        let (fi, k) = key;
        let f = &self.sums[fi].fns[k];
        let mut result: Option<Site> = None;
        if !self.sums[fi].policy.substrate && !f.is_test {
            if let Some((desc, off)) = f.l7_blocks.first() {
                result = Some(Site {
                    fi,
                    off: *off,
                    desc: desc.clone(),
                    chain: vec![f.name.clone()],
                });
            }
            if result.is_none() {
                if let Some(res) = self.resolved.get(&key) {
                    'calls: for (ci, ts) in res.iter().enumerate() {
                        if f.calls[ci].name == f.name {
                            continue;
                        }
                        for &t in ts {
                            if let Some(mut s) = self.blocks_in(t, memo, visiting) {
                                s.chain.insert(0, f.name.clone());
                                result = Some(s);
                                break 'calls;
                            }
                        }
                    }
                }
            }
        }
        visiting.remove(&key);
        memo.insert(key, result.clone());
        result
    }

    /// L7 — closures handed to pool dispatch must not reach raw
    /// blocking calls, followed through the workspace call graph; the
    /// cancellable doorways (`sleep_cancellable`, `poll_cancellable`)
    /// are the sanctioned ways to wait. Task closures are routinely
    /// built into a Vec before the dispatch call, so the whole
    /// dispatching function is the scope that must stay non-blocking.
    fn cancel_safety(&self, diag: &mut Diagnostics) {
        let mut memo: HashMap<FnKey, Option<Site>> = HashMap::new();
        let mut emitted: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut dispatchers: BTreeMap<FnKey, &str> = BTreeMap::new();
        for (fi, s) in self.sums.iter().enumerate() {
            // The substrate owns its threads and blocks on purpose.
            if s.policy.substrate {
                continue;
            }
            for (k, f) in s.fns.iter().enumerate() {
                if !f.is_test && !f.dispatches.is_empty() {
                    dispatchers.insert((fi, k), f.name.as_str());
                }
            }
        }
        for (&(fi, k), &entry) in &dispatchers {
            let f = &self.sums[fi].fns[k];
            let Some(res) = self.resolved.get(&(fi, k)) else { continue };
            // Walk blocking sites and calls in token order, as they
            // appear in the dispatching function's body.
            let (mut bi, mut ci) = (0usize, 0usize);
            while bi < f.l7_blocks.len() || ci < f.calls.len() {
                let take_block = ci >= f.calls.len()
                    || (bi < f.l7_blocks.len() && f.l7_blocks[bi].1 <= f.calls[ci].off);
                if take_block {
                    let (desc, off) = &f.l7_blocks[bi];
                    bi += 1;
                    report_l7(self.sums, fi, *off, desc, entry, &[], &mut emitted, diag);
                } else {
                    for &t in &res[ci] {
                        let mut visiting = HashSet::new();
                        if let Some(site) = self.blocks_in(t, &mut memo, &mut visiting) {
                            report_l7(
                                self.sums, site.fi, site.off, &site.desc, entry, &site.chain,
                                &mut emitted, diag,
                            );
                        }
                    }
                    ci += 1;
                }
            }
        }
    }

    // -----------------------------------------------------------
    // The path-sensitive rules (L10/L11/L12) over resolved CFGs
    // -----------------------------------------------------------

    /// Functions on a cancellable-dispatched path: every function
    /// containing a `*_cancellable` dispatch site, plus (transitively)
    /// every workspace function they call. Maps the fn to the
    /// dispatcher's name for the diagnostic.
    fn dispatch_reach(&self) -> HashMap<FnKey, &'a str> {
        let mut reach: HashMap<FnKey, &str> = HashMap::new();
        let mut queue: VecDeque<FnKey> = VecDeque::new();
        for (fi, s) in self.sums.iter().enumerate() {
            if s.policy.substrate {
                continue;
            }
            for (k, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                if f.dispatches.iter().any(|(m, _)| CANCELLABLE_DISPATCHES.contains(&m.as_str()))
                    && reach.insert((fi, k), f.name.as_str()).is_none()
                {
                    queue.push_back((fi, k));
                }
            }
        }
        while let Some(key) = queue.pop_front() {
            let Some(&entry) = reach.get(&key) else { continue };
            let Some(res) = self.resolved.get(&key) else { continue };
            for ts in res {
                for &t in ts {
                    if self.sums[t.0].policy.substrate || self.sums[t.0].fns[t.1].is_test {
                        continue;
                    }
                    if !reach.contains_key(&t) {
                        reach.insert(t, entry);
                        queue.push_back(t);
                    }
                }
            }
        }
        reach
    }

    /// Run L10/L11/L12 over every function's CFG, with call sites
    /// resolved against the workspace facts: a call to a polling fn
    /// becomes a `Poll` event; a cross-crate call to a fn that may
    /// block becomes a `Blocking` event with the chain described.
    fn flow_rules(&self, diag: &mut Diagnostics) {
        let reach = self.dispatch_reach();
        for (fi, s) in self.sums.iter().enumerate() {
            let mut verdicts: HashMap<(String, Vec<String>, bool), CallVerdict> = HashMap::new();
            for (k, f) in s.fns.iter().enumerate() {
                let Some(cfg) = &f.cfg else { continue };
                let resolved_cfg = cfg::resolve_calls(cfg, |name, qual, method| {
                    let vkey = (name.to_string(), qual.to_vec(), method);
                    if let Some(v) = verdicts.get(&vkey) {
                        return v.clone();
                    }
                    let targets = self.resolve(fi, name, qual, method);
                    let polls = targets.iter().any(|t| self.polls.contains(t));
                    let mut block = None;
                    for t in &targets {
                        // Same-crate blocking is already visible to
                        // the CFG's own events; the summary adds what
                        // another crate would hide.
                        if self.sums[t.0].crate_name != s.crate_name {
                            if let Some(inner) = self.any_block.get(t).cloned().flatten() {
                                block = Some(format!(
                                    "a call to `{name}` that may block on {inner}"
                                ));
                                break;
                            }
                        }
                    }
                    let v = CallVerdict { polls, block };
                    verdicts.insert(vkey, v.clone());
                    v
                });
                cfg::check_txn_leak(s, fi, &resolved_cfg, diag);
                // The substrate owns raw blocking by design; its own
                // internals are outside L11/L12 (mirrors L7's policy).
                if !s.policy.substrate {
                    cfg::check_guard_blocking(s, fi, &resolved_cfg, diag);
                    if let Some(entry) = reach.get(&(fi, k)) {
                        cfg::check_loop_polls(s, fi, &resolved_cfg, &f.name, entry, diag);
                    }
                }
            }
        }
    }
}

/// One blocking call reachable from a dispatch, with the call chain
/// that reaches it.
#[derive(Clone)]
struct Site {
    fi: usize,
    off: usize,
    desc: String,
    chain: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn report_l7(
    sums: &[FileSummary],
    fi: usize,
    off: usize,
    desc: &str,
    entry: &str,
    chain: &[String],
    emitted: &mut BTreeSet<(usize, usize)>,
    diag: &mut Diagnostics,
) {
    if !emitted.insert((fi, off)) {
        return;
    }
    let via = if chain.is_empty() {
        String::new()
    } else {
        format!(" via `{}`", chain.join("` -> `"))
    };
    diag.emit(&sums[fi], fi, off, Rule::CancelSafety, format!(
        "{desc} blocks a pool-dispatched task (entered from `{entry}`{via}): wait through CancelToken::sleep_cancellable / poll_cancellable so deadlines can interrupt it"
    ));
}

/// The workspace member a path segment names: an exact member name
/// (minus the reserved std segments) or the `teleios_<member>` crate
/// form.
fn member_of<'a>(members: &BTreeSet<&'a str>, seg: &str) -> Option<&'a str> {
    if EXCLUDED_SEGS.contains(&seg) {
        return None;
    }
    if let Some(&m) = members.get(seg) {
        return Some(m);
    }
    if let Some(rest) = seg.strip_prefix("teleios_") {
        if let Some(&m) = members.get(rest) {
            return Some(m);
        }
    }
    None
}

/// Tarjan's strongly-connected components over the crate graph.
/// Edges point dependent → dependency, so components are emitted
/// dependencies-first — the bottom-up linking order.
fn tarjan_sccs<'a>(
    members: &BTreeSet<&'a str>,
    deps: &BTreeMap<&'a str, BTreeSet<&'a str>>,
) -> Vec<Vec<&'a str>> {
    struct St<'a> {
        index: HashMap<&'a str, usize>,
        low: HashMap<&'a str, usize>,
        on: HashSet<&'a str>,
        stack: Vec<&'a str>,
        counter: usize,
        out: Vec<Vec<&'a str>>,
    }
    fn strong<'a>(v: &'a str, deps: &BTreeMap<&'a str, BTreeSet<&'a str>>, st: &mut St<'a>) {
        st.index.insert(v, st.counter);
        st.low.insert(v, st.counter);
        st.counter += 1;
        st.stack.push(v);
        st.on.insert(v);
        for &w in deps.get(v).into_iter().flatten() {
            if !st.index.contains_key(w) {
                strong(w, deps, st);
                let lw = st.low.get(w).copied().unwrap_or(0);
                if st.low.get(v).is_some_and(|&lv| lw < lv) {
                    st.low.insert(v, lw);
                }
            } else if st.on.contains(w) {
                let iw = st.index.get(w).copied().unwrap_or(0);
                if st.low.get(v).is_some_and(|&lv| iw < lv) {
                    st.low.insert(v, iw);
                }
            }
        }
        if st.low.get(v) == st.index.get(v) {
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on.remove(w);
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            st.out.push(comp);
        }
    }
    let mut st = St {
        index: HashMap::new(),
        low: HashMap::new(),
        on: HashSet::new(),
        stack: Vec::new(),
        counter: 0,
        out: Vec::new(),
    };
    for &v in members {
        if !st.index.contains_key(v) {
            strong(v, deps, &mut st);
        }
    }
    st.out
}

fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    seen.insert(from);
    queue.push_back(from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &m in adj.get(n).into_iter().flatten() {
            if seen.insert(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::rules::{analyze, FilePolicy, Finding, Rule, SourceFile};

    fn lib(krate: &str, src: &str) -> SourceFile {
        SourceFile {
            label: format!("crates/{krate}/src/lib.rs"),
            raw: src.to_string(),
            crate_name: krate.to_string(),
            is_crate_root: false,
            policy: FilePolicy::default(),
        }
    }

    fn hits(files: &[SourceFile], rule: Rule) -> Vec<Finding> {
        analyze(files).into_iter().filter(|f| f.rule == rule).collect()
    }

    #[test]
    fn cancel_safety_follows_calls_across_crates() {
        let alpha = lib(
            "alpha",
            "pub fn dispatch(pool: &P) {\n    pool.try_run_cancellable(|_t| {\n        teleios_beta::backoff();\n    });\n}",
        );
        let beta = lib(
            "beta",
            "pub fn backoff() {\n    std::thread::sleep(std::time::Duration::from_millis(5));\n}",
        );
        let f = hits(&[alpha, beta], Rule::CancelSafety);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/beta/src/lib.rs");
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("entered from `dispatch`"), "{}", f[0].msg);
        assert!(f[0].msg.contains("via `backoff`"), "{}", f[0].msg);
    }

    #[test]
    fn cancel_safety_chases_reexport_chains() {
        let alpha = lib(
            "alpha",
            "use teleios_facade::stall;\npub fn dispatch(pool: &P) {\n    pool.try_run(|| stall());\n}",
        );
        let facade = lib("facade", "pub use teleios_beta::stall;\n");
        let beta = lib(
            "beta",
            "pub fn stall(rx: &R) {\n    let _m = rx.recv();\n}",
        );
        let f = hits(&[alpha, facade, beta], Rule::CancelSafety);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/beta/src/lib.rs");
        assert!(f[0].msg.contains("via `stall`"), "{}", f[0].msg);
    }

    #[test]
    fn lock_order_cycle_spanning_two_crates() {
        let alpha = lib(
            "alpha",
            "pub fn forward(s: &S) {\n    let ga = s.alock.lock();\n    teleios_beta::take_b(s);\n    drop(ga);\n}",
        );
        let beta = lib(
            "beta",
            "pub fn take_b(s: &S) {\n    let gb = s.block.lock();\n    drop(gb);\n}\npub fn reverse(s: &S) {\n    let gb = s.block.lock();\n    teleios_alpha::take_a(s);\n    drop(gb);\n}",
        );
        let alpha2 = SourceFile {
            label: "crates/alpha/src/extra.rs".to_string(),
            raw: "pub fn take_a(s: &S) {\n    let ga = s.alock.lock();\n    drop(ga);\n}".to_string(),
            crate_name: "alpha".to_string(),
            is_crate_root: false,
            policy: FilePolicy::default(),
        };
        let f = hits(&[alpha, beta, alpha2], Rule::LockOrder);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("alock -> block"), "{}", f[0].msg);
        assert!(f[0].msg.contains("block -> alock"), "{}", f[0].msg);
    }

    #[test]
    fn guard_across_a_cross_crate_blocking_call_fires() {
        let alpha = lib(
            "alpha",
            "pub fn persist(s: &S) {\n    let g = s.state.lock();\n    teleios_beta::sync_everything(s);\n    drop(g);\n}",
        );
        let beta = lib(
            "beta",
            "pub fn sync_everything(s: &S) {\n    s.file.sync_all();\n}",
        );
        let f = hits(&[alpha, beta], Rule::GuardAcrossBlocking);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/alpha/src/lib.rs");
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].msg.contains("a call to `sync_everything` that may block on the fsync barrier"),
            "{}",
            f[0].msg
        );
    }

    #[test]
    fn loop_poll_credit_flows_across_crates() {
        // The helper crate polls; the dispatching crate's loop calls
        // it — clean. Remove the poll and the loop fires.
        let polling = lib(
            "beta",
            "pub fn poll_budget(t: &T) -> bool {\n    t.is_cancelled()\n}",
        );
        let alpha = lib(
            "alpha",
            "pub fn worker(pool: &P, t: &T) {\n    pool.try_run_cancellable(|| {}, t);\n    loop {\n        if teleios_beta::poll_budget(t) {\n            break;\n        }\n    }\n}",
        );
        assert!(hits(&[alpha.clone(), polling], Rule::LoopCancelPoll).is_empty());
        let silent = lib("beta", "pub fn poll_budget(t: &T) -> bool {\n    t.is_done()\n}");
        let f = hits(&[alpha, silent], Rule::LoopCancelPoll);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("via `worker`"), "{}", f[0].msg);
    }

    #[test]
    fn std_imports_are_exclusive_and_do_not_resolve() {
        // `take` is imported from std: the call must not resolve to
        // the workspace fn of the same name (which would block).
        let alpha = lib(
            "alpha",
            "use std::mem::take;\npub fn dispatch(pool: &P, v: &mut Vec<u8>) {\n    pool.try_run(|| {});\n    let _v = take(v);\n}",
        );
        let beta = lib(
            "beta",
            "pub fn take(rx: &R) {\n    let _m = rx.recv();\n}",
        );
        assert!(hits(&[alpha, beta], Rule::CancelSafety).is_empty());
    }

    #[test]
    fn dependency_cycles_between_crates_still_converge() {
        // alpha calls beta, beta calls alpha — a crate-graph cycle.
        // The poll credit still propagates: gamma's loop calls into
        // alpha, which polls via beta.
        let alpha = lib(
            "alpha",
            "pub fn ping(t: &T, n: u8) -> bool {\n    teleios_beta::pong(t, n)\n}",
        );
        let beta = lib(
            "beta",
            "pub fn pong(t: &T, n: u8) -> bool {\n    if n == 0 {\n        return t.is_cancelled();\n    }\n    teleios_alpha::ping(t, n - 1)\n}",
        );
        let gamma = lib(
            "gamma",
            "pub fn worker(pool: &P, t: &T) {\n    pool.try_run_cancellable(|| {}, t);\n    loop {\n        if teleios_alpha::ping(t, 3) {\n            break;\n        }\n    }\n}",
        );
        assert!(hits(&[alpha, beta, gamma], Rule::LoopCancelPoll).is_empty());
    }
}
