//! The rule engine. [`analyze`] takes every source file of a
//! workspace (or a single file, via [`scan_file`]) and runs two
//! phases:
//!
//! **Summarize** (per file, independent — see [`crate::summary`]):
//!
//! - the per-token rule L5 over the [`crate::lexer`] stream,
//!   alias-aware via each file's `use` map;
//! - per-file structural rule L4 (`*Error` enums must impl
//!   `Display` + `Error`);
//! - the crate-root attribute rule on `lib.rs` files;
//! - per-function effect summaries (locks, calls, blocking sites,
//!   pool dispatches, the CFG) plus the file's import/re-export
//!   surface.
//!
//! **Link** (whole workspace, serial and deterministic): the
//! interprocedural concurrency rules L6 `lock-order`, L7
//! `cancel-safety`, L10/L11/L12 over the workspace call graph (see
//! [`crate::interproc`]).
//!
//! Workspace-level policy (which crates are exempt from which rules)
//! arrives via [`FilePolicy`].

use crate::lexer::{self, ident_at, in_test, is_ident, is_punct, LineIndex, Tok, TokKind};
use crate::summary::FileSummary;
use std::fmt;

/// The architectural invariants teleios-lint owns — the ones clippy
/// cannot check (the rest live in the root `clippy.toml` and
/// `scripts/check.sh`'s lint list). Names are the stable identifiers
/// used in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// L4: every public `*Error` enum implements `Display` and
    /// `std::error::Error`.
    ErrorImpls,
    /// L5: no `Ordering::Relaxed` outside `crates/exec` — clippy has
    /// no lint for an enum variant.
    NoRelaxed,
    /// Crate-root check: every workspace member carries
    /// `forbid(unsafe_code)`.
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
}

impl Rule {
    /// Every rule with its stable name.
    pub const ALL: [(Rule, &'static str); 8] = [
        (Rule::ErrorImpls, "error-impls"),
        (Rule::NoRelaxed, "no-relaxed"),
        (Rule::CrateAttrs, "crate-attrs"),
        (Rule::LockOrder, "lock-order"),
        (Rule::CancelSafety, "cancel-safety"),
        (Rule::TxnLeak, "txn-leak"),
        (Rule::GuardAcrossBlocking, "guard-across-blocking"),
        (Rule::LoopCancelPoll, "loop-cancel-poll"),
    ];

    pub fn name(self) -> &'static str {
        Rule::ALL.iter().find(|(r, _)| *r == self).map_or("", |(_, n)| n)
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().find(|(_, n)| *n == name).map(|(r, _)| *r)
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
    /// The finding for `rule` at byte offset `off` of the file `path`.
    pub(crate) fn at(path: &str, idx: &LineIndex, off: usize, rule: Rule, msg: String) -> Finding {
        let (line, col) = idx.line_col(off);
        Finding { path: path.to_string(), line, col, rule, msg }
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
    /// to own relaxed atomics and raw blocking calls (L5/L7/L11/L12).
    pub substrate: bool,
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
    pub label: &'a str,
    pub raw: &'a str,
    pub toks: &'a [Tok<'a>],
    pub idx: LineIndex,
    pub regions: Vec<(usize, usize)>,
    pub aliases: lexer::UseAliases,
    pub policy: FilePolicy,
}

impl FileCtx<'_> {
    fn finding(&self, off: usize, rule: Rule, msg: String) -> Finding {
        Finding::at(self.label, &self.idx, off, rule, msg)
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
/// Returns every finding, local and linked, sorted.
pub(crate) fn link_timed(
    sums: &[FileSummary],
    phases: &mut Vec<(&'static str, u128)>,
) -> Vec<Finding> {
    let mut findings: Vec<Finding> = sums.iter().flat_map(|s| s.local.iter().cloned()).collect();
    crate::interproc::link_rules(sums, &mut findings, phases);
    findings.sort();
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

/// L5 at the path whose first segment is token `i`: canonicalise the
/// head through the `use` aliases (`use std::sync::atomic::Ordering as
/// O;`, `use …::Ordering::Relaxed;`) and look for `Ordering::Relaxed`
/// in the result. Anchors on the `Ordering` segment — or on the alias
/// that stands for it. Applies inside tests too: the loom model is
/// SeqCst-only everywhere.
fn relaxed_path(ctx: &FileCtx<'_>, i: usize, out: &mut Vec<Finding>) {
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
    for w in path.windows(2) {
        let [(canon, at), (item, _)] = [w[0], w[1]];
        if canon != "Ordering" || item != "Relaxed" {
            continue;
        }
        let via = match ident_at(toks, at) {
            Some(written) if written != canon => format!(" via alias `{written}`"),
            _ => String::new(),
        };
        out.push(ctx.finding(toks[at].off, Rule::NoRelaxed, format!(
            "Ordering::Relaxed{via} outside crates/exec: the loom model assumes SeqCst"
        )));
    }
}

/// L5 over every path in the file. Import lines declare, they don't use:
/// violations fire at usage sites.
pub(crate) fn no_relaxed(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.policy.substrate {
        return;
    }
    for i in 0..ctx.toks.len() {
        if !ctx.aliases.in_use_stmt(i) {
            relaxed_path(ctx, i, out);
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
pub(crate) fn error_impls(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
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
            out.push(ctx.finding(toks[i].off, Rule::ErrorImpls, format!(
                "public error enum {name} does not implement {missing} in this file"
            )));
        }
    }
}

/// The crate-root attribute rule: every member's `lib.rs` must carry
/// `#![forbid(unsafe_code)]`.
pub(crate) fn crate_attrs(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.raw.contains("forbid(unsafe_code)") {
        out.push(ctx.finding(0, Rule::CrateAttrs,
            "crate root is missing #![forbid(unsafe_code)]".to_string()));
    }
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

    /// L5 in every spelling: the full path, the bare `Ordering::`
    /// form, the variant `use`d by name, the variant and its enum and
    /// module under renamed aliases — then inside `#[cfg(test)]` (still
    /// fires) and under the substrate policy (silent).
    #[test]
    fn relaxed_fires_in_every_spelling() {
        let body = |path: &str| format!("fn f() {{\n    let _x = {path};\n}}\n");
        let spellings = [
            ("full path", body("std::sync::atomic::Ordering::Relaxed"), false),
            ("tail", body("Ordering::Relaxed"), false),
            ("use", format!("use std::sync::atomic::Ordering::Relaxed;\n{}", body("Relaxed")), false),
            ("renamed variant", format!("use std::sync::atomic::Ordering::Relaxed as zz;\n{}", body("zz")), true),
            ("renamed enum", format!("use std::sync::atomic::Ordering as zz;\n{}", body("zz::Relaxed")), true),
            ("renamed module", format!("use std::sync::atomic as zz;\n{}", body("zz::Ordering::Relaxed")), false),
        ];
        for (what, src, via) in &spellings {
            let f = scan(src);
            let line = src.lines().count() - 1;
            let hits: Vec<_> = f.iter().map(|f| (f.line, f.rule)).collect();
            assert_eq!(hits, vec![(line, Rule::NoRelaxed)], "{what}: {f:?}");
            // The alias is named when the `Ordering` anchor was written
            // through it.
            assert_eq!(f[0].msg.contains("via alias `zz`"), *via, "{what}: {}", f[0].msg);
        }
        let full = &spellings[0].1;
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{full}}}\n");
        assert_eq!(scan(&in_test).len(), 1, "{in_test}");
        let substrate = FilePolicy { substrate: true };
        assert!(scan_file("x.rs", full, substrate).is_empty(), "{full}");
    }

    #[test]
    fn relaxed_leaves_lookalikes_alone() {
        // A `Relaxed` not imported from an Ordering is not ours.
        assert!(scan("use crate::policy::Relaxed;\nfn f() {\n    let _p = Relaxed;\n}").is_empty());
        assert!(scan("fn f() {\n    let _p = Mode::Relaxed;\n}").is_empty());
        assert!(scan("fn f() {\n    let _p = Ordering::SeqCst;\n}").is_empty());
        // Import lines declare, they don't use.
        assert!(scan("use std::sync::atomic::Ordering::{Relaxed, SeqCst};\n").is_empty());
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
    fn masked_text_never_fires() {
        let src = "fn f() {\n    let _ = \"Ordering::Relaxed pub enum BadError\";\n    // Ordering::Relaxed in a comment\n}";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn cfg_attr_not_test_is_not_a_test_region() {
        let src = "#![cfg_attr(not(test), deny(clippy::unwrap_used))]\npub enum LoneError {\n    A,\n}";
        assert_eq!(rules_hit(src), vec![(2, Rule::ErrorImpls)]);
    }

    #[test]
    fn finding_display_format() {
        let f = scan("fn f() {\n    let _x = Ordering::Relaxed;\n}");
        assert_eq!(
            format!("{}", f[0]),
            "fixture.rs:2:14: [no-relaxed] Ordering::Relaxed outside crates/exec: the loom model assumes SeqCst"
        );
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
        let f = analyze(std::slice::from_ref(&bare));
        assert_eq!(f.len(), 1);
        assert!(f.iter().all(|f| f.rule == Rule::CrateAttrs && f.line == 1 && f.col == 1));
        let not_root = SourceFile { is_crate_root: false, ..bare };
        assert!(analyze(&[not_root]).is_empty());
    }
}
