//! The rule engine. [`analyze`] takes every source file of a
//! workspace (or a single file, via [`scan_file`]) and runs two
//! phases:
//!
//! **Summarize** (per file, independent — see [`crate::summary`]):
//!
//! - per-token rules L1/L2/L3/L5/L9 over the [`crate::lexer`] stream,
//!   alias-aware via each file's `use` map;
//! - per-file structural rule L4 (`*Error` enums must impl
//!   `Display` + `Error`);
//! - the crate-root attribute rule on `lib.rs` files;
//! - per-function effect summaries (locks, calls, blocking sites,
//!   pool dispatches, the CFG) plus the file's import/re-export
//!   surface.
//!
//! **Link** (whole workspace, serial and deterministic):
//!
//! - L8 `swallowed-result` against a workspace-wide index of
//!   functions returning `Result<_, *Error>`;
//! - the interprocedural concurrency rules L6 `lock-order`, L7
//!   `cancel-safety`, L10/L11/L12 over the workspace call graph
//!   (see [`crate::interproc`]);
//! - unused-suppression detection: an allow marker that suppressed
//!   nothing becomes an `unused-allow` warning.
//!
//! Workspace-level policy (which crates/targets are exempt from which
//! rules) arrives via [`FilePolicy`].

use crate::lexer::{
    self, ident_at, in_test, is_ident, is_punct, stmt_end, stmt_start, AllowMarker, LineIndex,
    Tok, TokKind,
};
use crate::summary::{FileSummary, FnReturn, SwallowCand, SwallowKind};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// The architectural invariants. Names are the stable identifiers
/// used in diagnostics and in `// teleios-lint: allow(<name>)`
/// suppression markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// L1: no `std::thread::spawn` / `thread::Builder` outside the
    /// concurrency substrate (`teleios-exec`, `teleios-loom`) — not
    /// even through a renamed import.
    NoThreadSpawn,
    /// L2: no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in
    /// library code outside `#[cfg(test)]`.
    NoPanic,
    /// L3: no `println!`/`eprintln!` in library code.
    NoPrintln,
    /// L4: every public `*Error` enum implements `Display` and
    /// `std::error::Error`.
    ErrorImpls,
    /// L5: no `Ordering::Relaxed` outside `crates/exec`.
    NoRelaxed,
    /// Crate-root check: every workspace member carries
    /// `forbid(unsafe_code)` plus the clippy unwrap/expect denies.
    CrateAttrs,
    /// L6: the *workspace* lock-acquisition graph (who holds what
    /// while taking what, resolved through same-crate and cross-crate
    /// calls) must be acyclic.
    LockOrder,
    /// L7: closures handed to `WorkerPool` dispatch must not block
    /// outside the sanctioned cancellable doorways
    /// (`sleep_cancellable` / `poll_cancellable`) — followed through
    /// calls across crate boundaries.
    CancelSafety,
    /// L8: `let _ =` / statement-level `.ok()` must not discard a
    /// `Result` whose error type is a workspace `*Error` enum — nor a
    /// `flush()` / `sync_all()` / `sync_data()` durability barrier's
    /// `io::Result`.
    SwallowedResult,
    /// L9: no direct `std::fs` mutation (`write`/`rename`/`remove_*`/
    /// `create_dir*`/`copy`/…), `File::create`, or `OpenOptions`
    /// outside the storage doorway (`crates/store`) — durability goes
    /// through `teleios-store`'s `Medium`.
    NoDirectFs,
    /// L10: a `StorageBackend::begin()` must reach a `commit()` or
    /// `rollback()` on every path out of the function — including
    /// `?`-early-exits (path-sensitive, see `cfg.rs`; cross-validated
    /// at runtime by `teleios-store`'s `TxnWitness`).
    TxnLeak,
    /// L11: an exclusive `Mutex`/`OrderedMutex`/`RwLock`-write guard
    /// must not be live across a pool dispatch, `sleep_cancellable`,
    /// fsync barrier, WAL commit — or a call whose effect summary
    /// says it may block, even in another crate.
    GuardAcrossBlocking,
    /// L12: `loop`/`while` loops on a cancellable-dispatched path
    /// must poll the `CancelToken` on every iteration path, with the
    /// path followed across crate boundaries (closes the gap that
    /// let the supervisor's uninterruptible retry backoff through).
    LoopCancelPoll,
    /// An allow marker that suppressed nothing (warning; error under
    /// `--strict`).
    UnusedAllow,
}

/// Every rule with its stable name.
const RULE_NAMES: [(Rule, &str); 14] = [
    (Rule::NoThreadSpawn, "no-thread-spawn"),
    (Rule::NoPanic, "no-panic"),
    (Rule::NoPrintln, "no-println"),
    (Rule::ErrorImpls, "error-impls"),
    (Rule::NoRelaxed, "no-relaxed"),
    (Rule::CrateAttrs, "crate-attrs"),
    (Rule::LockOrder, "lock-order"),
    (Rule::CancelSafety, "cancel-safety"),
    (Rule::SwallowedResult, "swallowed-result"),
    (Rule::NoDirectFs, "no-direct-fs"),
    (Rule::TxnLeak, "txn-leak"),
    (Rule::GuardAcrossBlocking, "guard-across-blocking"),
    (Rule::LoopCancelPoll, "loop-cancel-poll"),
    (Rule::UnusedAllow, "unused-allow"),
];

impl Rule {
    pub fn name(self) -> &'static str {
        RULE_NAMES.iter().find(|(r, _)| *r == self).map_or("", |(_, n)| n)
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        RULE_NAMES.iter().find(|(_, n)| *n == name).map(|(r, _)| *r)
    }

    /// Warnings don't fail the gate unless `--strict` is set.
    pub fn is_warning(self) -> bool {
        matches!(self, Rule::UnusedAllow)
    }
}

/// One diagnostic: `path:line:col: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub rule: Rule,
    pub msg: String,
}

impl Finding {
    pub fn severity(&self) -> &'static str {
        if self.rule.is_warning() {
            "warning"
        } else {
            "error"
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.msg
        )
    }
}

/// Per-file exemptions, derived from where the file lives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FilePolicy {
    /// `crates/exec` and `crates/loom`: the substrate that is allowed
    /// to own OS threads, relaxed atomics, and raw blocking calls.
    pub substrate: bool,
    /// Binary / bench / example targets: drivers fail fast by design
    /// (L2 exempt) and print their tables (L3 exempt). The other
    /// rules still apply.
    pub bin_target: bool,
    /// `crates/store`: the one crate allowed to mutate the filesystem
    /// directly — everything else reaches disk through its `Medium`
    /// (L9 exempt).
    pub fs_doorway: bool,
}

/// One source file handed to [`analyze`]: contents plus the workspace
/// coordinates the rules need (crate membership for the concurrency
/// model, crate-root status for the attribute rule).
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub label: String,
    pub raw: String,
    pub crate_name: String,
    pub is_crate_root: bool,
    pub policy: FilePolicy,
}

/// Everything the summarize phase needs about one file, borrowed
/// from the lexed token arena in [`crate::summary::summarize`].
pub(crate) struct FileCtx<'a> {
    pub raw: &'a str,
    pub toks: &'a [Tok<'a>],
    pub idx: LineIndex,
    pub regions: Vec<(usize, usize)>,
    pub aliases: lexer::UseAliases,
    pub policy: FilePolicy,
}

/// Per-file finding collector for the summarize phase: applies this
/// file's allow markers and records which markers suppressed
/// something. The surviving findings and the used-marker set travel
/// in the [`FileSummary`], so the link phase never re-reads the file.
pub(crate) struct LocalSink<'a> {
    label: &'a str,
    idx: &'a LineIndex,
    markers: &'a [AllowMarker],
    pub(crate) findings: Vec<Finding>,
    pub(crate) used: BTreeSet<usize>,
}

/// The marker (by index) that waives a `rule` finding on `line`: one
/// on the same line or the line above.
fn waiver(markers: &[AllowMarker], rule: Rule, line: usize) -> Option<usize> {
    markers.iter().position(|m| m.rule == Some(rule) && (m.line == line || m.line + 1 == line))
}

impl<'a> LocalSink<'a> {
    pub(crate) fn new(
        label: &'a str,
        idx: &'a LineIndex,
        markers: &'a [AllowMarker],
    ) -> LocalSink<'a> {
        LocalSink { label, idx, markers, findings: Vec::new(), used: BTreeSet::new() }
    }

    pub(crate) fn emit(&mut self, off: usize, rule: Rule, msg: String) {
        let (line, col) = self.idx.line_col(off);
        if let Some(mi) = waiver(self.markers, rule, line) {
            self.used.insert(mi);
            return;
        }
        self.findings.push(Finding { path: self.label.to_string(), line, col, rule, msg });
    }

    pub(crate) fn into_parts(self) -> (Vec<Finding>, BTreeSet<usize>) {
        (self.findings, self.used)
    }
}

/// Link-phase finding collector: seeded with every file's local
/// findings and used-marker sets, it applies allow markers to the
/// cross-file rules' emissions and turns leftover markers into
/// `unused-allow` warnings at the end.
pub(crate) struct Diagnostics {
    findings: Vec<Finding>,
    used: Vec<BTreeSet<usize>>,
}

impl Diagnostics {
    pub(crate) fn new(sums: &[FileSummary]) -> Diagnostics {
        Diagnostics {
            findings: sums.iter().flat_map(|s| s.local.iter().cloned()).collect(),
            used: sums.iter().map(|s| s.used_markers.clone()).collect(),
        }
    }

    pub(crate) fn emit(
        &mut self,
        sum: &FileSummary,
        fi: usize,
        off: usize,
        rule: Rule,
        msg: String,
    ) {
        let (line, col) = sum.idx.line_col(off);
        if let Some(mi) = waiver(&sum.markers, rule, line) {
            self.used[fi].insert(mi);
            return;
        }
        self.findings.push(Finding { path: sum.label.clone(), line, col, rule, msg });
    }

    pub(crate) fn finish(mut self, sums: &[FileSummary]) -> Vec<Finding> {
        for (fi, sum) in sums.iter().enumerate() {
            for (mi, m) in sum.markers.iter().enumerate() {
                if self.used[fi].contains(&mi) {
                    continue;
                }
                // Markers inside test regions are inert (tests are
                // exempt from every rule), not stale.
                if in_test(&sum.regions, sum.idx.line_start(m.line)) {
                    continue;
                }
                let msg = match m.rule {
                    Some(_) => format!(
                        "allow({}) suppresses nothing on this or the next line — remove the stale marker",
                        m.name
                    ),
                    None => format!("allow({}) does not name a known rule", m.name),
                };
                self.findings.push(Finding {
                    path: sum.label.clone(),
                    line: m.line,
                    col: m.col,
                    rule: Rule::UnusedAllow,
                    msg,
                });
            }
        }
        self.findings.sort();
        self.findings
    }
}

/// Run every rule over a set of source files (a whole workspace, or a
/// single file via [`scan_file`]). Files sharing a `crate_name` form
/// one crate; the interprocedural rules link all crates together.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let sums: Vec<FileSummary> = files.iter().map(crate::summary::summarize).collect();
    link_timed(&sums, &mut Vec::new())
}

/// The link phase over pre-computed summaries, recording per-rule
/// wall-clock into `phases` as `(name, microseconds)` for `--timings`.
pub(crate) fn link_timed(
    sums: &[FileSummary],
    phases: &mut Vec<(&'static str, u128)>,
) -> Vec<Finding> {
    let mut diag = Diagnostics::new(sums);
    let t = std::time::Instant::now();
    swallowed_link(sums, &mut diag);
    phases.push(("link:swallowed-result", t.elapsed().as_micros()));
    crate::interproc::link_rules(sums, &mut diag, phases);
    let t = std::time::Instant::now();
    let findings = diag.finish(sums);
    phases.push(("link:finish", t.elapsed().as_micros()));
    findings
}

/// Run every rule over one file. `path` labels findings; the file is
/// its own single-file crate for the cross-file rules.
pub fn scan_file(path: &str, raw: &str, policy: FilePolicy) -> Vec<Finding> {
    analyze(&[SourceFile {
        label: path.to_string(),
        raw: raw.to_string(),
        crate_name: "file".to_string(),
        is_crate_root: false,
        policy,
    }])
}

/// One row of the forbidden-path table behind L1/L5/L9: any of `items`
/// under `module`. The written path must spell at least the last
/// `tail` segments (`fs::write`, bare `OpenOptions`) after its head is
/// canonicalised through the file's `use` aliases; diagnostics name
/// the last `show` segments and anchor on the first of the `tail`.
struct Forbidden {
    rule: Rule,
    module: &'static [&'static str],
    items: &'static [&'static str],
    tail: usize,
    show: usize,
    why: &'static str,
}

const WRITABLE_HANDLE: &str =
    " outside crates/store: writable file handles go through teleios-store's Medium";

const FORBIDDEN: [Forbidden; 5] = [
    // L1 — OS threads.
    Forbidden {
        rule: Rule::NoThreadSpawn,
        module: &["std", "thread"],
        items: &["spawn", "Builder"],
        tail: 2,
        show: 3,
        why: ": OS threads belong to teleios-exec (WorkerPool / spawn_named)",
    },
    // L9 — direct filesystem mutation outside the storage doorway.
    // Reads stay free; writes, renames, removals, and writable-open
    // handles must go through teleios-store's Medium so the WAL's
    // crash-consistency contract holds.
    Forbidden {
        rule: Rule::NoDirectFs,
        module: &["std", "fs"],
        items: &[
            "write", "rename", "remove_file", "remove_dir", "remove_dir_all", "create_dir",
            "create_dir_all", "copy", "hard_link", "set_permissions",
        ],
        tail: 2,
        show: 3,
        why: " outside crates/store: filesystem mutation goes through teleios-store's Medium",
    },
    Forbidden {
        rule: Rule::NoDirectFs,
        module: &["std", "fs", "File"],
        items: &["create", "create_new", "options"],
        tail: 2,
        show: 2,
        why: WRITABLE_HANDLE,
    },
    Forbidden {
        rule: Rule::NoDirectFs,
        module: &["std", "fs"],
        items: &["OpenOptions"],
        tail: 1,
        show: 1,
        why: WRITABLE_HANDLE,
    },
    // L5 — relaxed atomics.
    Forbidden {
        rule: Rule::NoRelaxed,
        module: &["std", "sync", "atomic", "Ordering"],
        items: &["Relaxed"],
        tail: 2,
        show: 2,
        why: " outside crates/exec: the loom model assumes SeqCst",
    },
];

/// L1/L5/L9 at the path whose first segment is token `i`: canonicalise
/// the head through the `use` aliases and look every prefix of the
/// result up in [`FORBIDDEN`].
fn forbidden_paths(ctx: &FileCtx<'_>, i: usize, sink: &mut LocalSink<'_>) {
    let toks = ctx.toks;
    let Some(head) = ident_at(toks, i) else { return };
    let path_prev = i >= 2 && is_punct(toks, i - 1, b':') && is_punct(toks, i - 2, b':');
    if path_prev && i >= 3 && ident_at(toks, i - 3).is_some() {
        return; // a later segment: its head already covered it
    }
    // The canonical path, and for each segment the token that wrote it
    // (an alias stands for every segment it expands to).
    let alias = ctx.aliases.resolve(head).filter(|_| !path_prev);
    let mut path: Vec<(&str, usize)> = match alias {
        Some(full) => full.iter().map(|s| (s.as_str(), i)).collect(),
        None => vec![(head, i)],
    };
    let mut j = i;
    while is_punct(toks, j + 1, b':') && is_punct(toks, j + 2, b':') {
        let Some(seg) = ident_at(toks, j + 3) else { break };
        j += 3;
        path.push((seg, j));
    }
    for row in &FORBIDDEN {
        let exempt = match row.rule {
            Rule::NoDirectFs => ctx.policy.fs_doorway,
            _ => ctx.policy.substrate,
        };
        let required = &row.module[row.module.len() + 1 - row.tail..];
        for k in row.tail..=path.len() {
            let (item, _) = path[k - 1];
            let under = path[k - row.tail..k - 1].iter().map(|(s, _)| s);
            if exempt || !row.items.contains(&item) || !under.eq(required) {
                continue;
            }
            let (canon, at) = path[k - row.tail];
            let off = toks[at].off;
            // L5 applies inside tests too: the loom model is
            // SeqCst-only everywhere.
            if row.rule != Rule::NoRelaxed && in_test(&ctx.regions, off) {
                continue;
            }
            let shown: Vec<&str> = row.module.iter().copied().chain([item]).collect();
            let shown = shown[shown.len() - row.show..].join("::");
            let via = match ident_at(toks, at) {
                Some(written) if written != canon => format!(" via alias `{written}`"),
                _ => String::new(),
            };
            sink.emit(off, row.rule, format!("{shown}{via}{}", row.why));
        }
    }
}

/// L1/L2/L3/L5/L9: the per-token rules.
pub(crate) fn token_rules(ctx: &FileCtx<'_>, sink: &mut LocalSink<'_>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let off = toks[i].off;
        // Import lines declare, they don't use; violations fire at
        // usage sites.
        if ctx.aliases.in_use_stmt(i) {
            continue;
        }
        forbidden_paths(ctx, i, sink);
        if ctx.policy.bin_target || in_test(&ctx.regions, off) {
            continue;
        }
        // L2 — unwrap/expect/panic!/todo!/unimplemented!
        if let Some(name @ ("unwrap" | "expect")) = ident_at(toks, i) {
            // `self.expect(..)` is a parser combinator method in
            // the WKT/SQL/SPARQL parsers, not Option/Result::expect
            // (`self` is never an Option in this workspace).
            let own_method = name == "expect" && i >= 2 && is_ident(toks, i - 2, "self");
            if !own_method && i > 0 && is_punct(toks, i - 1, b'.') && is_punct(toks, i + 1, b'(') {
                sink.emit(off, Rule::NoPanic, format!(
                    ".{name}() in library code: return a typed error instead"
                ));
            }
        }
        if let Some(name @ ("panic" | "todo" | "unimplemented")) = ident_at(toks, i) {
            if is_punct(toks, i + 1, b'!') {
                sink.emit(off, Rule::NoPanic, format!(
                    "{name}! in library code: return a typed error instead"
                ));
            }
        }
        // L3 — println!/eprintln!
        if let Some(name @ ("println" | "eprintln")) = ident_at(toks, i) {
            if is_punct(toks, i + 1, b'!') {
                sink.emit(off, Rule::NoPrintln, format!(
                    "{name}! in library code: route output through the caller or a report type"
                ));
            }
        }
    }
}

/// Trait impls in the file, as `(last trait path segment, type name)`
/// pairs — enough to verify `impl Display for FooError` and
/// `impl std::error::Error for FooError`.
fn impl_pairs<'a>(toks: &[Tok<'a>]) -> Vec<(&'a str, &'a str)> {
    let mut pairs = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks, i, "impl") {
            i += 1;
            continue;
        }
        let mut trait_seg: Option<&str> = None;
        let mut generic_depth = 0usize;
        let mut j = i + 1;
        let limit = (i + 40).min(toks.len());
        while j < limit {
            match toks[j].kind {
                TokKind::Punct(b'<') => generic_depth += 1,
                TokKind::Punct(b'>') => generic_depth = generic_depth.saturating_sub(1),
                TokKind::Punct(b'{') | TokKind::Punct(b';') => break,
                TokKind::Ident("for") if generic_depth == 0 => {
                    if let (Some(t), Some(ty)) = (trait_seg, ident_at(toks, j + 1)) {
                        pairs.push((t, ty));
                    }
                    break;
                }
                TokKind::Ident(s) => trait_seg = Some(s),
                TokKind::Punct(_) => {}
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    pairs
}

/// L4 — public `*Error` enums must impl Display + Error in this file.
pub(crate) fn error_impls(ctx: &FileCtx<'_>, sink: &mut LocalSink<'_>) {
    let toks = ctx.toks;
    let pairs = impl_pairs(toks);
    for i in 0..toks.len() {
        if !is_ident(toks, i, "pub") {
            continue;
        }
        // `pub(crate)` etc. is not public API.
        if is_punct(toks, i + 1, b'(') {
            continue;
        }
        if !is_ident(toks, i + 1, "enum") {
            continue;
        }
        let Some(name) = ident_at(toks, i + 2) else {
            continue;
        };
        if !name.ends_with("Error") || name == "Error" || in_test(&ctx.regions, toks[i].off) {
            continue;
        }
        let has_display = pairs.iter().any(|(t, ty)| *t == "Display" && *ty == name);
        let has_error = pairs.iter().any(|(t, ty)| *t == "Error" && *ty == name);
        if !has_display || !has_error {
            let missing = match (has_display, has_error) {
                (false, false) => "Display and std::error::Error",
                (false, true) => "Display",
                (true, false) => "std::error::Error",
                (true, true) => unreachable!(),
            };
            sink.emit(toks[i].off, Rule::ErrorImpls, format!(
                "public error enum {name} does not implement {missing} in this file"
            ));
        }
    }
}

/// The crate-root attribute rule: every member's `lib.rs` must carry
/// `#![forbid(unsafe_code)]` and deny clippy's unwrap/expect lints.
pub(crate) fn crate_attrs(ctx: &FileCtx<'_>, sink: &mut LocalSink<'_>) {
    if !ctx.raw.contains("forbid(unsafe_code)") {
        sink.emit(0, Rule::CrateAttrs,
            "crate root is missing #![forbid(unsafe_code)]".to_string());
    }
    if !ctx.raw.contains("clippy::unwrap_used") || !ctx.raw.contains("clippy::expect_used") {
        sink.emit(0, Rule::CrateAttrs,
            "crate root is missing deny(clippy::unwrap_used, clippy::expect_used)".to_string());
    }
}

// ---------------------------------------------------------------
// L8 swallowed-result: summarize-side extraction
// ---------------------------------------------------------------

/// Every `enum *Error` declared in the file (test regions included —
/// the index only needs the name to exist somewhere).
pub(crate) fn collect_error_enums(ctx: &FileCtx<'_>) -> Vec<String> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(toks, i, "enum") {
            if let Some(name) = ident_at(toks, i + 1) {
                if name.ends_with("Error") && name != "Error" {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// Every `type X<T> = ...;` in the file, as the alias name plus the
/// `*Error`-suffixed idents appearing in its right-hand side (in
/// order — the link phase picks the last one that names a workspace
/// error enum).
pub(crate) fn collect_type_aliases(ctx: &FileCtx<'_>) -> Vec<(String, Vec<String>)> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is_ident(toks, i, "type") {
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else { continue };
        let end = stmt_end(toks, i);
        let mut errs = Vec::new();
        for k in i + 2..end.min(toks.len()) {
            if let Some(id) = ident_at(toks, k) {
                if id.ends_with("Error") {
                    errs.push(id.to_string());
                }
            }
        }
        out.push((name.to_string(), errs));
    }
    out
}

/// The raw return-type facts of one function: the `*Error`-suffixed
/// idents in its return region (in order), whether it returns a bare
/// (crate-alias) `Result`, and the crate of a qualified
/// `teleios_<crate>::Result`. Resolution against the workspace enum
/// set happens at link time.
pub(crate) fn fn_return_raw(ctx: &FileCtx<'_>, f: &crate::summary::FnDef) -> Option<FnReturn> {
    let toks = ctx.toks;
    let stop = f.sig_end;
    // Locate the return arrow at paren/angle depth zero (skipping
    // `Fn(..) -> ..` bounds inside the parameter list or generics).
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut arrow = None;
    let mut j = f.name_idx + 1;
    while j < stop.min(toks.len()) {
        match toks[j].kind {
            TokKind::Punct(b'(') => paren += 1,
            TokKind::Punct(b')') => paren -= 1,
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => {
                if j > 0 && is_punct(toks, j - 1, b'-') {
                    if paren == 0 && angle == 0 {
                        arrow = Some(j);
                        break;
                    }
                } else {
                    angle -= 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let arrow = arrow?;
    let mut region_end = stop;
    for k in arrow + 1..stop {
        if is_ident(toks, k, "where") {
            region_end = k;
            break;
        }
    }
    let mut err_idents: Vec<String> = Vec::new();
    let mut bare_result = false;
    let mut qualified_crate: Option<String> = None;
    for k in arrow + 1..region_end.min(toks.len()) {
        if let Some(id) = ident_at(toks, k) {
            if id.ends_with("Error") {
                err_idents.push(id.to_string());
            }
            if id == "Result" {
                let path_prev = k >= 2 && is_punct(toks, k - 1, b':') && is_punct(toks, k - 2, b':');
                if !path_prev {
                    bare_result = true;
                } else if let Some(seg) = k.checked_sub(3).and_then(|p| ident_at(toks, p)) {
                    if let Some(c) = seg.strip_prefix("teleios_") {
                        qualified_crate = Some(c.to_string());
                    }
                }
            }
        }
    }
    Some(FnReturn { name: f.name.clone(), err_idents, bare_result, qualified_crate })
}

/// Candidate L8 sites in the file: `let _ = f(..);` and
/// statement-level `expr.f(..).ok();` outside tests, with every
/// structural exemption (top-level `?`, bindings, assignments)
/// already applied. Whether the callee's `Result` matters is decided
/// at link time against the workspace index.
pub(crate) fn swallow_candidates(ctx: &FileCtx<'_>) -> Vec<SwallowCand> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let off = toks[i].off;
        if in_test(&ctx.regions, off) {
            continue;
        }
        if is_ident(toks, i, "let") && is_ident(toks, i + 1, "_") && is_punct(toks, i + 2, b'=') {
            let end = stmt_end(toks, i);
            if let Some((ci, callee)) = top_level_call(toks, i + 3, end) {
                out.push(SwallowCand {
                    kind: SwallowKind::LetUnderscore,
                    off: toks[ci].off,
                    callee: callee.to_string(),
                });
            }
        }
        if is_punct(toks, i, b'.')
            && is_ident(toks, i + 1, "ok")
            && is_punct(toks, i + 2, b'(')
            && is_punct(toks, i + 3, b')')
            && is_punct(toks, i + 4, b';')
        {
            let start = stmt_start(toks, i);
            if is_ident(toks, start, "let") || is_ident(toks, start, "return") {
                continue;
            }
            if has_top_level_assign(toks, start, i) {
                continue;
            }
            if let Some(callee) = call_before(toks, i) {
                out.push(SwallowCand {
                    kind: SwallowKind::OkDiscard,
                    off: toks[i + 1].off,
                    callee: callee.to_string(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------
// L8 swallowed-result: link-side decision
// ---------------------------------------------------------------

/// L8 — decide every file's swallow candidates against the
/// workspace-wide index of functions returning `Result<_, *Error>`.
/// Durability barriers (`flush` / `sync_all` / `sync_data`) are
/// flagged whatever their error type: a discarded fsync result
/// silently loses the crash-consistency guarantee.
pub(crate) fn swallowed_link(sums: &[FileSummary], diag: &mut Diagnostics) {
    const SYNC_CALLS: [&str; 3] = ["flush", "sync_all", "sync_data"];
    // Every `enum *Error` declared anywhere in the analyzed set.
    let mut enums: HashSet<&str> = HashSet::new();
    for sum in sums {
        for e in &sum.error_enums {
            enums.insert(e.as_str());
        }
    }
    // Per-crate `type X<T> = ... SomeError ...;` aliases.
    let mut aliases: HashMap<String, HashMap<String, String>> = HashMap::new();
    for sum in sums {
        for (name, errs) in &sum.type_aliases {
            if let Some(e) = errs.iter().filter(|e| enums.contains(e.as_str())).next_back() {
                aliases
                    .entry(sum.crate_name.clone())
                    .or_default()
                    .insert(name.clone(), e.clone());
            }
        }
    }
    // Function name → the `*Error` its `Result` return carries.
    let mut index: HashMap<&str, String> = HashMap::new();
    for sum in sums {
        for r in &sum.fn_returns {
            let mut err = r
                .err_idents
                .iter()
                .filter(|e| enums.contains(e.as_str()))
                .next_back()
                .cloned();
            if err.is_none() && r.bare_result {
                err = aliases.get(&sum.crate_name).and_then(|m| m.get("Result")).cloned();
            }
            if err.is_none() {
                if let Some(c) = &r.qualified_crate {
                    err = aliases.get(c).and_then(|m| m.get("Result")).cloned();
                }
            }
            if let Some(e) = err {
                index.insert(r.name.as_str(), e);
            }
        }
    }
    // Decide the candidates.
    for (fi, sum) in sums.iter().enumerate() {
        for c in &sum.swallows {
            let callee = c.callee.as_str();
            match c.kind {
                SwallowKind::LetUnderscore => {
                    if let Some(err) = index.get(callee) {
                        diag.emit(sum, fi, c.off, Rule::SwallowedResult, format!(
                            "`let _ =` discards Result<_, {err}> from `{callee}`: handle it, propagate with `?`, or justify with an allow marker"
                        ));
                    } else if SYNC_CALLS.contains(&callee) {
                        diag.emit(sum, fi, c.off, Rule::SwallowedResult, format!(
                            "`let _ =` discards the io::Result from `{callee}`: a failed durability barrier must be handled, propagated, or justified with an allow marker"
                        ));
                    }
                }
                SwallowKind::OkDiscard => {
                    if let Some(err) = index.get(callee) {
                        diag.emit(sum, fi, c.off, Rule::SwallowedResult, format!(
                            ".ok() discards Result<_, {err}> from `{callee}` without reading it: handle the error or justify with an allow marker"
                        ));
                    } else if SYNC_CALLS.contains(&callee) {
                        diag.emit(sum, fi, c.off, Rule::SwallowedResult, format!(
                            ".ok() discards the io::Result from `{callee}` without reading it: a failed durability barrier must be handled or justified with an allow marker"
                        ));
                    }
                }
            }
        }
    }
}

/// The last call made at the top level of an expression (the one
/// whose result the statement yields), or `None` if a top-level `?`
/// already propagates errors.
fn top_level_call<'a>(toks: &[Tok<'a>], s: usize, end: usize) -> Option<(usize, &'a str)> {
    let mut depth = 0i32;
    let mut last = None;
    for k in s..end.min(toks.len()) {
        match toks[k].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'?') if depth == 0 => return None,
            TokKind::Ident(id) if depth == 0 && is_punct(toks, k + 1, b'(') => {
                last = Some((k, id));
            }
            _ => {}
        }
    }
    last
}

/// Is there a bare `=` (assignment, not `==`/`=>`/`<=` etc.) at paren
/// depth zero in `[s, i)`?
fn has_top_level_assign(toks: &[Tok<'_>], s: usize, i: usize) -> bool {
    let mut depth = 0i32;
    for k in s..i {
        match toks[k].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'=') if depth == 0 => {
                let eq_like = is_punct(toks, k + 1, b'=')
                    || is_punct(toks, k + 1, b'>')
                    || (k > 0
                        && (is_punct(toks, k - 1, b'=')
                            || is_punct(toks, k - 1, b'!')
                            || is_punct(toks, k - 1, b'<')
                            || is_punct(toks, k - 1, b'>')));
                if !eq_like {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// For `recv.f(args).ok()`: the name of the call whose parens close
/// just before the `.` at `i`.
fn call_before<'a>(toks: &[Tok<'a>], i: usize) -> Option<&'a str> {
    if i == 0 || !is_punct(toks, i - 1, b')') {
        return None;
    }
    let mut depth = 0i32;
    let mut k = i - 1;
    loop {
        if is_punct(toks, k, b')') {
            depth += 1;
        } else if is_punct(toks, k, b'(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    ident_at(toks, k.checked_sub(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_file("fixture.rs", src, FilePolicy::default())
    }

    fn rules_hit(src: &str) -> Vec<(usize, Rule)> {
        scan(src).into_iter().map(|f| (f.line, f.rule)).collect()
    }

    /// Every row of the forbidden-path table, every item, in every
    /// spelling: the full path, the item `use`d by name, the item and
    /// its module under renamed aliases, the bare module-qualified
    /// form — then inside `#[cfg(test)]` and under the exempting
    /// policy.
    #[test]
    fn forbidden_path_table_fires_in_every_spelling() {
        for row in &FORBIDDEN {
            let module = row.module.join("::");
            let parent = row.module[row.module.len() - 1];
            for item in row.items {
                let body = |path: &str| format!("fn f() {{\n    let _x = {path};\n}}\n");
                let spellings = [
                    ("full path", body(&format!("{module}::{item}")), false),
                    ("use", format!("use {module}::{item};\n{}", body(item)), false),
                    ("renamed item", format!("use {module}::{item} as zz;\n{}", body("zz")), true),
                    (
                        "renamed module",
                        format!("use {module} as zz;\n{}", body(&format!("zz::{item}"))),
                        true,
                    ),
                ];
                for (what, src, aliased) in &spellings {
                    let f = scan(src);
                    let line = src.lines().count() - 1;
                    let hits: Vec<_> = f.iter().map(|f| (f.line, f.rule)).collect();
                    assert_eq!(hits, vec![(line, row.rule)], "{what} of {module}::{item}: {f:?}");
                    // The alias is named when the anchor segment was
                    // written through it (`zz::OpenOptions` anchors on
                    // the item itself).
                    let via = *aliased && (row.tail > 1 || *what == "renamed item");
                    assert_eq!(f[0].msg.contains("via alias `zz`"), via, "{what}: {}", f[0].msg);
                    assert!(f[0].msg.ends_with(row.why), "{what}: {}", f[0].msg);
                }
                // `fs::write`, `File::create`, `Ordering::Relaxed`: the
                // tail alone is enough, imported or not.
                if row.tail == 2 {
                    let f = scan(&body(&format!("{parent}::{item}")));
                    assert_eq!(f.len(), 1, "tail form of {module}::{item}: {f:?}");
                }
                let full = &spellings[0].1;
                // Test code is exempt — except from L5: the loom model
                // is SeqCst-only everywhere.
                let in_test = format!("#[cfg(test)]\nmod tests {{\n{full}}}\n");
                assert_eq!(scan(&in_test).len(), usize::from(row.rule == Rule::NoRelaxed), "{in_test}");
                // The substrate may own threads and relaxed atomics;
                // the storage doorway may mutate the filesystem — and
                // neither exemption covers the other's rules.
                let substrate = FilePolicy { substrate: true, ..FilePolicy::default() };
                let doorway = FilePolicy { fs_doorway: true, ..FilePolicy::default() };
                let is_fs = row.rule == Rule::NoDirectFs;
                assert_eq!(scan_file("x.rs", full, substrate).len(), usize::from(is_fs), "{full}");
                assert_eq!(scan_file("x.rs", full, doorway).len(), usize::from(!is_fs), "{full}");
            }
        }
    }

    #[test]
    fn forbidden_paths_leave_lookalikes_alone() {
        // An unrelated alias named like the std items must not fire.
        assert!(scan("use crate::jobs::spawn;\nfn f() {\n    spawn(|| {});\n}").is_empty());
        // A `Relaxed` not imported from an Ordering is not ours.
        assert!(scan("use crate::policy::Relaxed;\nfn f() {\n    let _p = Relaxed;\n}").is_empty());
        // An unrelated `write` (fmt, io) must not fire.
        assert!(scan("use std::fmt::Write;\nfn f(s: &mut String) {\n    s.write_str(\"x\").ok();\n}").is_empty());
        // Reads are free everywhere.
        assert!(scan("fn f(p: &str) -> std::io::Result<Vec<u8>> {\n    std::fs::read(p)\n}").is_empty());
        assert!(scan("fn f(p: &str) -> std::io::Result<String> {\n    std::fs::read_to_string(p)\n}").is_empty());
        // Import lines declare, they don't use.
        assert!(scan("use std::fs::{write, OpenOptions};\nuse std::thread::spawn;\n").is_empty());
        // An allow marker justifies a deliberate site.
        let marked = "fn f(p: &str) -> std::io::Result<()> {\n    // teleios-lint: allow(no-direct-fs) — legacy export\n    std::fs::write(p, b\"{}\")\n}";
        assert!(scan(marked).is_empty());
        // One finding per offending path, anchored on the module segment.
        let f = scan("fn f(p: &str) -> std::io::Result<std::fs::File> {\n    std::fs::OpenOptions::new().append(true).open(p)\n}");
        assert_eq!(f.iter().map(|f| (f.line, f.col, f.rule)).collect::<Vec<_>>(), vec![(2, 14, Rule::NoDirectFs)]);
    }

    #[test]
    fn l2_fires_outside_tests_only() {
        assert_eq!(rules_hit("fn f(v: Option<u8>) {\n    v.unwrap();\n}"), vec![(2, Rule::NoPanic)]);
        assert_eq!(rules_hit("fn f() {\n    panic!(\"x\");\n}"), vec![(2, Rule::NoPanic)]);
        assert_eq!(rules_hit("fn f() {\n    todo!();\n}"), vec![(2, Rule::NoPanic)]);
        assert!(scan("#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"x\"); }\n}").is_empty());
    }

    #[test]
    fn l2_whole_token_matching() {
        // unwrap_or_else / expect_kw must not match; method paths
        // without a leading dot must not match.
        assert!(scan("fn f(v: Option<u8>) -> u8 {\n    v.unwrap_or_else(|| 0)\n}").is_empty());
        assert!(scan("fn f(p: &mut P) {\n    p.expect_kw(\"SET\");\n}").is_empty());
        // The parsers' own `self.expect(..)` combinator is not
        // Option::expect; `other.expect(..)` still fires.
        assert!(scan("fn f(&mut self) -> Result<()> {\n    self.expect(b'(')?;\n    Ok(())\n}").is_empty());
        assert_eq!(
            rules_hit("fn f(v: Option<u8>) -> u8 {\n    v.expect(\"msg\")\n}"),
            vec![(2, Rule::NoPanic)]
        );
    }

    #[test]
    fn l3_fires_and_bin_targets_are_exempt() {
        let src = "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n}";
        assert_eq!(rules_hit(src), vec![(2, Rule::NoPrintln), (3, Rule::NoPrintln)]);
        let f = scan_file("x.rs", src, FilePolicy { bin_target: true, ..FilePolicy::default() });
        assert!(f.is_empty());
    }

    #[test]
    fn l4_missing_impls_reported_with_specifics() {
        let hits = rules_hit("pub enum LoneError {\n    A,\n}");
        assert_eq!(hits, vec![(1, Rule::ErrorImpls)]);
        let src = "pub enum HalfError { A }\nimpl std::fmt::Display for HalfError {\n    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result { Ok(()) }\n}";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("std::error::Error"), "{}", f[0].msg);
        assert!(!f[0].msg.contains("Display and"), "{}", f[0].msg);
    }

    #[test]
    fn l4_satisfied_and_non_public_skipped() {
        let ok = "pub enum FineError { A }\nimpl std::fmt::Display for FineError {\n    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result { Ok(()) }\n}\nimpl std::error::Error for FineError {}";
        assert!(scan(ok).is_empty());
        assert!(scan("pub(crate) enum InnerError { A }").is_empty());
        assert!(scan("enum PrivateError { A }").is_empty());
    }

    #[test]
    fn l8_swallowed_workspace_result() {
        let src = "enum DbError { X }\nfn load() -> Result<u8, DbError> { Err(DbError::X) }\nfn f() {\n    let _ = load();\n}";
        assert_eq!(rules_hit(src), vec![(4, Rule::SwallowedResult)]);
        let ok_stmt = "enum DbError { X }\nfn load() -> Result<u8, DbError> { Err(DbError::X) }\nfn f(x: &S) {\n    x.load().ok();\n}";
        assert_eq!(rules_hit(ok_stmt), vec![(4, Rule::SwallowedResult)]);
    }

    #[test]
    fn l8_resolves_crate_result_alias() {
        let src = "enum DbError { X }\ntype Result<T> = std::result::Result<T, DbError>;\nfn load() -> Result<u8> { Err(DbError::X) }\nfn f() {\n    let _ = load();\n}";
        assert_eq!(rules_hit(src), vec![(5, Rule::SwallowedResult)]);
    }

    #[test]
    fn l8_exemptions() {
        // `?` propagates; binding keeps the value; non-workspace error
        // types and tests are out of scope.
        let qmark = "enum DbError { X }\nfn load() -> Result<u8, DbError> { Err(DbError::X) }\nfn g() -> Result<u8, DbError> {\n    let _ = load()?;\n    Ok(0)\n}";
        assert!(scan(qmark).is_empty());
        let bound = "enum DbError { X }\nfn load() -> Result<u8, DbError> { Err(DbError::X) }\nfn f() {\n    let v = load().ok();\n    drop(v);\n}";
        assert!(scan(bound).is_empty());
        let io = "fn probe() -> Result<u8, std::io::Error> { Ok(0) }\nfn f() {\n    let _ = probe();\n}";
        assert!(scan(io).is_empty());
        let test = "enum DbError { X }\nfn load() -> Result<u8, DbError> { Err(DbError::X) }\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = super::load(); }\n}";
        assert!(scan(test).is_empty());
    }

    #[test]
    fn l8_flags_discarded_durability_barriers() {
        // flush/sync_all/sync_data fire regardless of error type —
        // no workspace *Error enum involved.
        assert_eq!(
            rules_hit("fn f(file: &std::fs::File) {\n    let _ = file.sync_all();\n}"),
            vec![(2, Rule::SwallowedResult)]
        );
        assert_eq!(
            rules_hit("fn f(w: &mut W) {\n    w.flush().ok();\n}"),
            vec![(2, Rule::SwallowedResult)]
        );
        assert_eq!(
            rules_hit("fn f(file: &std::fs::File) {\n    let _ = file.sync_data();\n}"),
            vec![(2, Rule::SwallowedResult)]
        );
        // Propagated, bound, or test-scoped syncs stay silent.
        let qmark = "fn f(w: &mut W) -> std::io::Result<()> {\n    let _ = w.flush()?;\n    Ok(())\n}";
        assert!(scan(qmark).is_empty());
        let bound = "fn f(file: &std::fs::File) {\n    let r = file.sync_all();\n    drop(r);\n}";
        assert!(scan(bound).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t(file: &std::fs::File) { let _ = file.sync_all(); }\n}";
        assert!(scan(test).is_empty());
    }

    #[test]
    fn unused_allow_marker_warns() {
        let stale = "fn f() {\n    // teleios-lint: allow(no-panic) — nothing here panics\n    let x = 1;\n    drop(x);\n}";
        let f = scan(stale);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (2, Rule::UnusedAllow));
        assert_eq!(f[0].severity(), "warning");
        let unknown = "fn f() {\n    // teleios-lint: allow(no-such-rule)\n}";
        let f = scan(unknown);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("unknown rule") || f[0].msg.contains("does not name"), "{}", f[0].msg);
    }

    #[test]
    fn masked_text_never_fires() {
        let src = "fn f() {\n    let _ = \"x.unwrap() println! thread::spawn Ordering::Relaxed\";\n    // panic!(\"in comment\")\n}";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let same = "fn f() {\n    panic!(\"x\"); // teleios-lint: allow(no-panic) — deliberate\n}";
        assert!(scan(same).is_empty());
        let above = "fn f() {\n    // teleios-lint: allow(no-panic) — deliberate\n    panic!(\"x\");\n}";
        assert!(scan(above).is_empty());
        // A marker for the wrong rule suppresses nothing — the real
        // finding stands and the marker itself is flagged as stale.
        let wrong_rule = "fn f() {\n    // teleios-lint: allow(no-println)\n    panic!(\"x\");\n}";
        assert_eq!(
            rules_hit(wrong_rule),
            vec![(2, Rule::UnusedAllow), (3, Rule::NoPanic)]
        );
    }

    #[test]
    fn cfg_attr_not_test_is_not_a_test_region() {
        let src = "#![cfg_attr(not(test), deny(clippy::unwrap_used))]\nfn f(v: Option<u8>) {\n    v.unwrap();\n}";
        assert_eq!(rules_hit(src), vec![(3, Rule::NoPanic)]);
    }

    #[test]
    fn finding_display_format() {
        let f = scan("fn f() {\n    panic!(\"x\");\n}");
        assert_eq!(format!("{}", f[0]), "fixture.rs:2:5: [no-panic] panic! in library code: return a typed error instead");
    }

    #[test]
    fn crate_attrs_fire_on_roots_only() {
        let bare = SourceFile {
            label: "crates/x/src/lib.rs".to_string(),
            raw: "pub fn f() {}\n".to_string(),
            crate_name: "x".to_string(),
            is_crate_root: true,
            policy: FilePolicy::default(),
        };
        let f = analyze(&[bare.clone()]);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == Rule::CrateAttrs && f.line == 1 && f.col == 1));
        let not_root = SourceFile { is_crate_root: false, ..bare };
        assert!(analyze(&[not_root]).is_empty());
    }
}
