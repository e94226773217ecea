//! Phase two: link every file's [`FileSummary`] into a workspace-wide
//! call graph and run the interprocedural concurrency rules over it.
//!
//! Every rule here reads the same material: each function's effect
//! stream ([`crate::cfg::Cfg::stream`] — acquisitions, blocking sites,
//! call sites in source order) and one `resolved` table mapping every
//! call site to the workspace functions it may land on.
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
//! The facts over the linked graph are all instances of one worklist
//! fixpoint ([`Linker::propagate`]), so recursion and dependency
//! cycles between crates (legal between dev-dependencies, and
//! deliberately present in the self-test fixture workspace) need no
//! special case:
//!
//! - **polls**: does a function transitively reach a `CancelToken`
//!   poll? (feeds L12 and the CFG call resolution);
//! - **may-block**: the nearest blocking primitive a function can
//!   reach (feeds L11's cross-crate call verdicts);
//! - **raw blocks**: the nearest raw sleep/recv a pool-dispatched task
//!   can reach, with the call chain for the L7 diagnostic;
//! - **lock sets**: every lock a call into a function may acquire
//!   (feeds the workspace lock-order graph, L6);
//! - **dispatch reach**: the functions on a cancellable-dispatched
//!   path, the scope of L12.
//!
//! Known approximations, chosen to avoid false positives: self-edges
//! of the lock graph (re-acquiring the same name) are skipped since
//! different instances commonly share field names, and held-ness does
//! not propagate through functions *returning* guards (e.g. a
//! `lock_state()` accessor) — only through calls made while a guard is
//! live in the caller.

use crate::cfg::{self, CallVerdict, Event, Stall};
use crate::rules::{Finding, Rule};
use crate::summary::FileSummary;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// `(file index, fn index)` — one function in the analyzed set.
type FnKey = (usize, usize);

/// Path segments that never name a workspace member, even when a
/// member shares the name (`teleios-core` vs `::core`).
const EXCLUDED_SEGS: [&str; 6] = ["std", "core", "alloc", "crate", "self", "super"];

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
    diag: &mut Vec<Finding>,
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
    /// The effect stream of every non-test fn with a body.
    streams: BTreeMap<FnKey, Vec<&'a Event>>,
    /// Resolved targets of every call site, keyed by the calling fn
    /// and the call's byte offset.
    resolved: HashMap<(FnKey, usize), Vec<FnKey>>,
    /// The call graph in both directions, edges in source order.
    callees: HashMap<FnKey, Vec<FnKey>>,
    callers: HashMap<FnKey, Vec<FnKey>>,
}

impl<'a> Linker<'a> {
    fn new(sums: &'a [FileSummary]) -> Linker<'a> {
        let members: BTreeSet<&str> = sums.iter().map(|s| s.crate_name.as_str()).collect();

        let mut fns_by_crate: HashMap<&str, HashMap<&str, Vec<FnKey>>> = HashMap::new();
        let mut streams: BTreeMap<FnKey, Vec<&Event>> = BTreeMap::new();
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
                if let Some(cfg) = &f.cfg {
                    streams.insert((fi, k), cfg.stream());
                }
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
        for (fi, s) in sums.iter().enumerate() {
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
            for (_, stream) in streams.range((fi, 0)..(fi + 1, 0)) {
                for ev in stream {
                    if let Event::Call { qual, .. } = ev {
                        firsts.extend(qual.first().map(String::as_str));
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

        let mut lk = Linker {
            sums,
            members,
            fns_by_crate,
            reexports,
            imports,
            mods,
            dep_closure,
            streams,
            resolved: HashMap::new(),
            callees: HashMap::new(),
            callers: HashMap::new(),
        };
        lk.resolve_all();
        lk
    }

    // -----------------------------------------------------------
    // Name resolution
    // -----------------------------------------------------------

    /// The workspace crate a `use` / `pub use` path written in crate
    /// `from` starts in: `from` itself for `crate`/`self`/`super`
    /// paths, the member its first segment names otherwise — `None`
    /// for `std` and other external paths.
    fn home_of(&self, from: &'a str, path: &[String]) -> Option<&'a str> {
        match path.first()?.as_str() {
            "crate" | "self" | "super" => Some(from),
            first => member_of(&self.members, first),
        }
    }

    /// The workspace crate a bare path segment names from `fi`'s
    /// scope, if any.
    fn crate_of_seg(&self, fi: usize, seg: &str) -> Option<&'a str> {
        let caller = self.sums[fi].crate_name.as_str();
        if matches!(seg, "crate" | "self" | "super") {
            return Some(caller);
        }
        // A `std`/external import is exclusive: the name is taken, and
        // it is not ours.
        if let Some(path) = self.imports[fi].get(seg) {
            return self.home_of(caller, path);
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
            // `pub use inner::thing` (module-relative) stays in this
            // crate; `pub use teleios_store::open` hops.
            let target = self.home_of(krate, path).unwrap_or(krate);
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
            // The import is exclusive: a std binding ends resolution
            // even though the name matches nothing.
            if let Some(path) = self.imports[fi].get(name) {
                let real = path.last().map_or(name, String::as_str);
                let home = self.home_of(caller, path);
                return home.map_or_else(Vec::new, |t| self.lookup_fn(t, real));
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

    /// Resolve every call site once; everything downstream reads the
    /// `resolved` table and the two edge maps built from it.
    fn resolve_all(&mut self) {
        for (&key, stream) in &self.streams {
            for ev in stream {
                let Event::Call { name, qual, method, off } = ev else { continue };
                let targets = self.resolve(key.0, name, qual, *method);
                for &t in &targets {
                    let out = self.callees.entry(key).or_default();
                    if !out.contains(&t) {
                        out.push(t);
                        self.callers.entry(t).or_default().push(key);
                    }
                }
                self.resolved.insert((key, *off), targets);
            }
        }
    }

    fn targets(&self, key: FnKey, call_off: usize) -> &[FnKey] {
        self.resolved.get(&(key, call_off)).map_or(&[], Vec::as_slice)
    }

    fn name(&self, (fi, k): FnKey) -> &'a str {
        self.sums[fi].fns[k].name.as_str()
    }

    /// The substrate owns its threads and blocks on purpose: its
    /// internals are outside L7/L11/L12, and calling into it is only a
    /// finding when the call is itself a dispatch.
    fn substrate(&self, (fi, _): FnKey) -> bool {
        self.sums[fi].policy.substrate
    }

    // -----------------------------------------------------------
    // Facts
    // -----------------------------------------------------------

    /// One seed per function with a body, from its effect stream.
    fn seeds<T>(&self, seed: impl Fn(FnKey, &[&'a Event]) -> Option<T>) -> BTreeMap<FnKey, T> {
        self.streams.iter().filter_map(|(&k, s)| Some((k, seed(k, s)?))).collect()
    }

    /// Least fixpoint of a fact over the resolved call graph, by
    /// worklist. `facts` holds the seeds; whenever a function's fact
    /// moves, `join(to, to's fact, from's fact)` folds it into each
    /// neighbour along `edges` — `self.callers` carries a fact up ("may
    /// reach"), `self.callees` down ("is reached from") — and reports
    /// whether that moved too. Joins must be monotone ("keep mine if
    /// set, else take theirs"; "union"), which is all termination
    /// needs, so recursion and crate cycles are not a special case.
    /// Seeds and edges are visited in source order: a keep-first fact
    /// settles on the nearest witness, deterministically.
    fn propagate<T: Default>(
        &self,
        edges: &HashMap<FnKey, Vec<FnKey>>,
        mut facts: BTreeMap<FnKey, T>,
        join: impl Fn(FnKey, &mut T, &T) -> bool,
    ) -> BTreeMap<FnKey, T> {
        let mut work: VecDeque<FnKey> = facts.keys().copied().collect();
        let mut queued: HashSet<FnKey> = work.iter().copied().collect();
        while let Some(from) = work.pop_front() {
            queued.remove(&from);
            for &to in edges.get(&from).into_iter().flatten() {
                if to == from {
                    continue;
                }
                let mut mine = facts.remove(&to).unwrap_or_default();
                let moved = facts.get(&from).is_some_and(|theirs| join(to, &mut mine, theirs));
                facts.insert(to, mine);
                if moved && queued.insert(to) {
                    work.push_back(to);
                }
            }
        }
        facts
    }

    /// Keep-first join for witness facts outside the substrate.
    fn nearest<T: Clone>(&self, to: FnKey, mine: &mut Option<T>, theirs: &Option<T>) -> bool {
        let take = !self.substrate(to) && mine.is_none() && theirs.is_some();
        if take {
            *mine = theirs.clone();
        }
        take
    }

    // -----------------------------------------------------------
    // L6 lock-order — the workspace lock-acquisition graph
    // -----------------------------------------------------------

    /// L6 — build the workspace lock-acquisition graph (edges through
    /// same-crate *and* cross-crate calls) and report every distinct
    /// cycle with `file:line` for each edge.
    fn lock_order(&self, diag: &mut Vec<Finding>) {
        // Every lock a call into a function may acquire, each with a
        // representative `(file, byte offset)` site.
        type Locks = BTreeMap<String, (usize, usize)>;
        let own = |key: FnKey, stream: &[&Event]| {
            let mut locks = Locks::new();
            for ev in stream {
                if let Event::Acquire { lock, off, .. } = ev {
                    locks.entry(lock.clone()).or_insert((key.0, *off));
                }
            }
            (!locks.is_empty()).then_some(locks)
        };
        let locks = self.propagate(&self.callers, self.seeds(own), |_, mine: &mut Locks, theirs| {
            let before = mine.len();
            for (lock, site) in theirs {
                mine.entry(lock.clone()).or_insert(*site);
            }
            mine.len() > before
        });
        // Edges: lock A held while lock B is acquired (directly, or
        // inside a call made while A is held, wherever it resolves).
        let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
        for (&key, stream) in &self.streams {
            for held in stream {
                let Event::Acquire { lock: a, off, until_off, .. } = held else { continue };
                let mut edge = |b: &String, site: (usize, usize)| {
                    if b != a {
                        edges.entry((a.clone(), b.clone())).or_insert(site);
                    }
                };
                let while_held = |o: &usize| o > off && o <= until_off;
                for ev in stream {
                    if let Event::Acquire { lock: b, off: boff, .. } = ev {
                        if while_held(boff) {
                            edge(b, (key.0, *boff));
                        }
                    }
                }
                for ev in stream {
                    let Event::Call { off: coff, .. } = ev else { continue };
                    if while_held(coff) {
                        for t in self.targets(key, *coff) {
                            for (b, &site) in locks.get(t).into_iter().flatten() {
                                edge(b, site);
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
            diag.push(self.sums[afi].finding(aoff, Rule::LockOrder, msg));
        }
    }

    // -----------------------------------------------------------
    // L7 cancel-safety — across crate boundaries
    // -----------------------------------------------------------

    /// L7 — closures handed to pool dispatch must not reach raw
    /// blocking calls, followed through the workspace call graph; the
    /// cancellable doorways (`sleep_cancellable`, `poll_cancellable`)
    /// are the sanctioned ways to wait. Task closures are routinely
    /// built into a Vec before the dispatch call, so the whole
    /// dispatching function is the scope that must stay non-blocking.
    fn cancel_safety(&self, diag: &mut Vec<Finding>) {
        // The nearest raw blocking call each function can reach, with
        // the call chain that reaches it.
        let own = |key: FnKey, stream: &[&'a Event]| {
            let first = stream.iter().find_map(|ev| match ev {
                Event::Blocking { desc, off, class: Stall::Raw } => Some((desc.as_str(), *off)),
                _ => None,
            })?;
            let site = Site { fi: key.0, off: first.1, desc: first.0, chain: vec![self.name(key)] };
            (!self.substrate(key)).then_some(Some(site))
        };
        let raw = self.propagate(&self.callers, self.seeds(own), |to, mine, theirs| {
            let via = theirs.clone().map(|mut s: Site<'a>| {
                s.chain.insert(0, self.name(to));
                s
            });
            self.nearest(to, mine, &via)
        });
        let mut emitted: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut report = |site: &Site<'a>, entry: &str| {
            if !emitted.insert((site.fi, site.off)) {
                return;
            }
            let via = if site.chain.is_empty() {
                String::new()
            } else {
                format!(" via `{}`", site.chain.join("` -> `"))
            };
            diag.push(self.sums[site.fi].finding(site.off, Rule::CancelSafety, format!(
                "{} blocks a pool-dispatched task (entered from `{entry}`{via}): wait through CancelToken::sleep_cancellable / poll_cancellable so deadlines can interrupt it",
                site.desc.replace('`', "")
            )));
        };
        for (&key, stream) in &self.streams {
            let dispatch =
                |ev: &&Event| matches!(ev, Event::Blocking { class: Stall::Dispatch { .. }, .. });
            if self.substrate(key) || !stream.iter().any(dispatch) {
                continue;
            }
            // Blocking sites and calls in source order, as they appear
            // in the dispatching function's body.
            for ev in stream {
                match ev {
                    Event::Blocking { desc, off, class: Stall::Raw } => {
                        let own = Site { fi: key.0, off: *off, desc, chain: Vec::new() };
                        report(&own, self.name(key));
                    }
                    Event::Call { off, .. } => {
                        let reached = self.targets(key, *off).iter().filter_map(|t| raw.get(t));
                        for site in reached.flatten() {
                            report(site, self.name(key));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // -----------------------------------------------------------
    // The path-sensitive rules (L10/L11/L12) over resolved CFGs
    // -----------------------------------------------------------

    /// Run L10/L11/L12 over every function's CFG, with call sites
    /// resolved against the workspace facts: a call to a polling fn
    /// becomes a `Poll` event; a cross-crate call to a fn that may
    /// block becomes a `Blocking` event with the primitive described.
    fn flow_rules(&self, diag: &mut Vec<Finding>) {
        let cfg_of = |(fi, k): FnKey| self.sums[fi].fns[k].cfg.as_ref();
        // Which fns transitively poll the CancelToken.
        let polls = self.propagate(
            &self.callers,
            self.seeds(|key, _| cfg_of(key)?.blocks.iter().any(cfg::has_poll).then_some(true)),
            |_, mine, _| !std::mem::replace(mine, true),
        );
        // fn → the nearest blocking primitive it can reach.
        let first_block = |key: FnKey, stream: &[&'a Event]| {
            let desc = stream.iter().find_map(|ev| match ev {
                Event::Blocking { desc, .. } => Some(desc.as_str()),
                _ => None,
            })?;
            (!self.substrate(key)).then_some(Some(desc))
        };
        let may_block = self.propagate(&self.callers, self.seeds(first_block), |to, mine, theirs| {
            self.nearest(to, mine, theirs)
        });
        // Functions on a cancellable-dispatched path — every function
        // containing a `*_cancellable` dispatch site plus, transitively,
        // every workspace function it calls — mapped to the
        // dispatcher's name for the diagnostic.
        let dispatcher = |key: FnKey, stream: &[&'a Event]| {
            let cancellable = |ev: &&Event| {
                matches!(ev, Event::Blocking { class: Stall::Dispatch { cancellable: true }, .. })
            };
            (!self.substrate(key) && stream.iter().any(cancellable)).then(|| Some(self.name(key)))
        };
        let reach = self.propagate(&self.callees, self.seeds(dispatcher), |to, mine, theirs| {
            self.nearest(to, mine, theirs)
        });

        for &key in self.streams.keys() {
            let s = &self.sums[key.0];
            let Some(cfg) = cfg_of(key) else { continue };
            let resolved_cfg = cfg::resolve_calls(cfg, |name, off| {
                let targets = self.targets(key, off);
                // Same-crate blocking is already visible to the CFG's
                // own events; the summary adds what another crate
                // would hide.
                let inner = targets
                    .iter()
                    .filter(|t| self.sums[t.0].crate_name != s.crate_name)
                    .find_map(|t| may_block.get(t).copied().flatten());
                CallVerdict {
                    polls: targets.iter().any(|t| polls.get(t) == Some(&true)),
                    block: inner.map(|on| format!("a call to `{name}` that may block on {on}")),
                }
            });
            cfg::check_txn_leak(s, &resolved_cfg, diag);
            if !s.policy.substrate {
                cfg::check_guard_blocking(s, &resolved_cfg, diag);
                if let Some(Some(entry)) = reach.get(&key) {
                    cfg::check_loop_polls(s, &resolved_cfg, self.name(key), entry, diag);
                }
            }
        }
    }
}

/// One raw blocking call reachable from a dispatch, with the call
/// chain that reaches it.
#[derive(Clone)]
struct Site<'a> {
    fi: usize,
    off: usize,
    desc: &'a str,
    chain: Vec<&'a str>,
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
    use crate::rules::{analyze, scan_file, FilePolicy, Finding, Rule, SourceFile};

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

    fn scan(src: &str) -> Vec<Finding> {
        scan_file("fixture.rs", src, FilePolicy::default())
    }

    #[test]
    fn lock_order_cycle_fires_with_both_edges() {
        let src = "\
struct S { a: std::sync::Mutex<u8>, b: std::sync::Mutex<u8> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
    fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::LockOrder);
        assert!(f[0].msg.contains("a -> b"), "{}", f[0].msg);
        assert!(f[0].msg.contains("b -> a"), "{}", f[0].msg);
        assert!(f[0].msg.contains("fixture.rs:"), "{}", f[0].msg);
    }

    #[test]
    fn lock_order_sees_through_same_crate_calls() {
        let src = "\
struct S { a: std::sync::Mutex<u8>, b: std::sync::Mutex<u8> }
impl S {
    fn outer(&self) {
        let ga = self.a.lock();
        self.helper();
        drop(ga);
    }
    fn helper(&self) {
        let gb = self.b.lock();
        drop(gb);
    }
    fn inverse(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::LockOrder);
    }

    #[test]
    fn consistent_order_and_sequential_locks_are_clean() {
        let consistent = "\
struct S { a: std::sync::Mutex<u8>, b: std::sync::Mutex<u8> }
impl S {
    fn one(&self) { let ga = self.a.lock(); let gb = self.b.lock(); drop(gb); drop(ga); }
    fn two(&self) { let ga = self.a.lock(); let gb = self.b.lock(); drop(gb); drop(ga); }
}";
        assert!(scan(consistent).is_empty());
        // Statement-temporary guards don't overlap.
        let sequential = "\
struct S { a: std::sync::Mutex<u8>, b: std::sync::Mutex<u8> }
impl S {
    fn one(&self) { *self.a.lock().unwrap_or_else(|e| e.into_inner()) += 1; *self.b.lock().unwrap_or_else(|e| e.into_inner()) += 1; }
    fn two(&self) { *self.b.lock().unwrap_or_else(|e| e.into_inner()) += 1; *self.a.lock().unwrap_or_else(|e| e.into_inner()) += 1; }
}";
        assert!(scan(sequential).is_empty());
    }

    #[test]
    fn cancel_safety_fires_on_sleep_in_dispatch_closure() {
        let src = "\
fn dispatch(pool: &P) {
    pool.try_run(|| {
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
}";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::CancelSafety);
        assert!(f[0].msg.contains("dispatch"), "{}", f[0].msg);
    }

    #[test]
    fn cancel_safety_sees_through_same_crate_calls() {
        let src = "\
fn backoff() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}
fn dispatch(pool: &P) {
    pool.try_run_cancellable(|_t| {
        backoff();
    });
}";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::CancelSafety);
        assert!(f[0].msg.contains("via `backoff`"), "{}", f[0].msg);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cancel_safety_accepts_the_doorways_and_plain_run() {
        let ok = "\
fn dispatch(pool: &P, cancel: &C) {
    pool.try_run_cancellable(|t| {
        t.sleep_cancellable(std::time::Duration::from_millis(5));
        t.poll_cancellable(|| done());
    });
}";
        assert!(scan(ok).is_empty());
        // `.run(` on a non-pool receiver is not a dispatch.
        let chain = "\
fn go(chain: &Chain) {
    chain.run(|| {
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
}";
        assert!(scan(chain).is_empty());
        // ... but on a pool it is.
        let pool_run = "\
fn go(worker_pool: &P) {
    worker_pool.run(|| {
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
}";
        assert_eq!(scan(pool_run).len(), 1);
    }

    #[test]
    fn cancel_safety_covers_tasks_built_before_the_dispatch_call() {
        // The closure Vec is constructed first and the *variable* is
        // passed to the pool — the blocking call never appears inside
        // the dispatch call's argument list, only in the same fn body.
        let src = "\
fn attempt(id: u64) -> u64 {
    std::thread::sleep(std::time::Duration::from_millis(5));
    id
}
fn run_batch(pool: &P, ids: Vec<u64>) {
    let tasks: Vec<_> = ids.into_iter().map(|id| move || attempt(id)).collect();
    pool.try_run_cancellable(tasks);
}";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::CancelSafety);
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("run_batch"), "{}", f[0].msg);
        assert!(f[0].msg.contains("via `attempt`"), "{}", f[0].msg);
    }

    #[test]
    fn cancel_safety_flags_recv_in_closure() {
        let src = "\
fn drain(pool: &P, rx: &R) {
    pool.try_run(move || {
        let _msg = rx.recv();
    });
}";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::CancelSafety);
        assert!(f[0].msg.contains("recv"), "{}", f[0].msg);
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
