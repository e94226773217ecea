//! Phase one of the analysis: reduce each source file — independently
//! of every other file — to a self-contained [`FileSummary`].
//!
//! The summary carries two kinds of material. The *local* findings
//! (per-token rules, L4, crate attributes) are final: they never
//! change whatever the rest of the workspace looks like. The *effect*
//! material (one event stream per function — lock acquisitions, call
//! sites, blocking sites, pool dispatches, polls — held in its CFG,
//! plus the file's import/re-export surface) is raw input for
//! [`crate::interproc`], which links every file's summary into a
//! workspace-wide call graph and runs the cross-crate rules over it.
//!
//! `summarize` reads nothing but its own file, so the scan is one
//! serial pass over the files followed by one link.

use crate::cfg::{self, Cfg};
use crate::lexer::{self, ident_at, in_test, is_ident, is_punct, AllowMarker, LineIndex, Tok};
use crate::rules::{self, FileCtx, FilePolicy, Finding, LocalSink, SourceFile};
use std::collections::BTreeSet;

/// One `fn` item: its name, the token index of the name, the token
/// range of its `{...}` body (absent for trait declarations), and the
/// index of the body-open `{` / terminating `;` (the signature end).
pub(crate) struct FnDef {
    pub name: String,
    pub name_idx: usize,
    pub body: Option<(usize, usize)>,
    pub sig_end: usize,
}

/// Every `fn` item in a token stream, at any nesting depth.
pub(crate) fn extract_fns(toks: &[Tok<'_>]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    for i in 0..toks.len() {
        // `fn(u8) -> u8` pointer types have no name.
        let (true, Some(name)) = (is_ident(toks, i, "fn"), ident_at(toks, i + 1)) else { continue };
        let d = toks[i].depth;
        let mut sig_end = toks.len();
        let mut body = None;
        for j in i + 2..toks.len() {
            if toks[j].depth < d {
                break;
            }
            if toks[j].depth == d && is_punct(toks, j, b';') {
                sig_end = j;
                break;
            }
            if toks[j].depth == d && is_punct(toks, j, b'{') {
                sig_end = j;
                let close = (j + 1..toks.len())
                    .find(|&k| is_punct(toks, k, b'}') && toks[k].depth == d)
                    .unwrap_or(toks.len().saturating_sub(1));
                body = Some((j, close));
                break;
            }
        }
        fns.push(FnDef { name: name.to_string(), name_idx: i + 1, body, sig_end });
    }
    fns
}

/// The raw return-type facts of one function, resolved against the
/// workspace `*Error` enum set at link time (L8).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FnReturn {
    pub name: String,
    /// `*Error`-suffixed idents in the return region, in order.
    pub err_idents: Vec<String>,
    /// Returns a bare (crate-alias) `Result<..>`.
    pub bare_result: bool,
    /// Returns `teleios_<crate>::Result<..>` — the crate.
    pub qualified_crate: Option<String>,
}

/// How a candidate L8 site discards its `Result`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SwallowKind {
    LetUnderscore,
    OkDiscard,
}

/// A candidate L8 site, judged against the workspace return index at
/// link time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SwallowCand {
    pub kind: SwallowKind,
    pub off: usize,
    pub callee: String,
}

/// Everything the interprocedural rules need to know about one
/// function without re-reading its source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FnEffects {
    pub name: String,
    /// Defined inside a `#[cfg(test)]` region — exempt from every
    /// rule and never a call-resolution target.
    pub is_test: bool,
    /// Control-flow graph of the body, holding the function's event
    /// stream (absent for trait declarations and test functions).
    pub cfg: Option<Cfg>,
}

/// The complete analysis product of one file. Owns everything it
/// needs, so the link phase never goes back to the source.
#[derive(Debug, Clone)]
pub(crate) struct FileSummary {
    pub label: String,
    pub crate_name: String,
    pub policy: FilePolicy,
    pub idx: LineIndex,
    /// Byte ranges of `#[cfg(test)]` regions.
    pub regions: Vec<(usize, usize)>,
    pub markers: Vec<AllowMarker>,
    /// Local findings, already filtered through this file's markers.
    pub local: Vec<Finding>,
    /// Markers consumed by local findings.
    pub used_markers: BTreeSet<usize>,
    pub swallows: Vec<SwallowCand>,
    pub error_enums: Vec<String>,
    pub type_aliases: Vec<(String, Vec<String>)>,
    pub fn_returns: Vec<FnReturn>,
    pub fns: Vec<FnEffects>,
    /// `mod x;` / `mod x { .. }` declarations — lets a
    /// module-qualified same-crate call (`wal::replay()`) resolve.
    pub mods: Vec<String>,
    /// `use` bindings: name → full path, sorted by name.
    pub imports: Vec<(String, Vec<String>)>,
    /// `pub use` re-exports in declaration order: exported name →
    /// source path.
    pub reexports: Vec<(String, Vec<String>)>,
    /// Glob-imported path prefixes (`use teleios_core::*`).
    pub globs: Vec<Vec<String>>,
}

/// Summarize one file: run the local rules and extract the effect
/// material. Pure — reads nothing but `file`.
pub(crate) fn summarize(file: &SourceFile) -> FileSummary {
    let lexed = lexer::lex(&file.raw);
    let toks = lexed.toks;
    let ctx = FileCtx {
        raw: &file.raw,
        idx: LineIndex::new(&file.raw),
        regions: lexer::test_regions(&toks),
        aliases: lexer::use_aliases(&toks),
        toks: &toks,
        policy: file.policy,
    };
    let markers = lexer::allow_markers(&file.raw, &lexed.comments, &ctx.idx);

    let mut sink = LocalSink::new(&file.label, &ctx.idx, &markers);
    rules::token_rules(&ctx, &mut sink);
    rules::error_impls(&ctx, &mut sink);
    if file.is_crate_root {
        rules::crate_attrs(&ctx, &mut sink);
    }
    let (local, used_markers) = sink.into_parts();

    let defs = extract_fns(&toks);
    let fns: Vec<FnEffects> = defs
        .iter()
        .map(|f| {
            let name_off = toks.get(f.name_idx).map_or(0, |t| t.off);
            let is_test = in_test(&ctx.regions, name_off)
                || f.body.is_some_and(|(o, _)| in_test(&ctx.regions, toks[o].off));
            let cfg = f.body.filter(|_| !is_test).map(|body| cfg::build(&ctx, body));
            FnEffects { name: f.name.clone(), is_test, cfg }
        })
        .collect();

    let fn_returns: Vec<FnReturn> =
        defs.iter().filter_map(|f| rules::fn_return_raw(&ctx, f)).collect();

    let mut mods = Vec::new();
    for i in 0..toks.len() {
        if is_ident(&toks, i, "mod")
            && (is_punct(&toks, i + 2, b';') || is_punct(&toks, i + 2, b'{'))
        {
            if let Some(name) = ident_at(&toks, i + 1) {
                mods.push(name.to_string());
            }
        }
    }

    let error_enums = rules::collect_error_enums(&ctx);
    let type_aliases = rules::collect_type_aliases(&ctx);
    let swallows = rules::swallow_candidates(&ctx);
    let mut imports: Vec<(String, Vec<String>)> =
        ctx.aliases.entries().map(|(k, v)| (k.clone(), v.clone())).collect();
    imports.sort();
    let reexports = ctx.aliases.reexports().to_vec();
    let globs = ctx.aliases.globs().to_vec();
    let FileCtx { idx, regions, .. } = ctx;

    FileSummary {
        label: file.label.clone(),
        crate_name: file.crate_name.clone(),
        policy: file.policy,
        idx,
        regions,
        markers,
        local,
        used_markers,
        swallows,
        error_enums,
        type_aliases,
        fn_returns,
        fns,
        mods,
        imports,
        reexports,
        globs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            label: "crates/x/src/lib.rs".to_string(),
            raw: src.to_string(),
            crate_name: "x".to_string(),
            is_crate_root: false,
            policy: FilePolicy::default(),
        }
    }

    #[test]
    fn extract_fns_names_and_bodies() {
        let toks = lexer::lex("fn a() { b(); }\nimpl S {\n    fn m(&self) -> u8 { 0 }\n}\ntrait T { fn decl(&self); }").toks;
        let fns = extract_fns(&toks);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "decl"]);
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_some());
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn effects_cover_locks_calls_blocks_and_dispatches() {
        use crate::cfg::{Event, Stall};
        let src = "\
fn work(s: &S, pool: &P, rx: &R) {
    let g = s.meta.lock();
    helper();
    drop(g);
    pool.try_run(|| {});
    let _m = rx.recv();
    wal::replay();
}
mod wal;
";
        let sum = summarize(&file(src));
        assert_eq!(sum.fns.len(), 1);
        let f = &sum.fns[0];
        assert_eq!(f.name, "work");
        assert!(!f.is_test);
        let stream = f.cfg.as_ref().expect("a body has a CFG").stream();
        let locks: Vec<&str> = stream
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { lock, .. } => Some(lock.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec!["meta"]);
        let blocks: Vec<(Stall, usize)> = stream
            .iter()
            .filter_map(|e| match e {
                Event::Blocking { class, off, .. } => Some((*class, *off)),
                _ => None,
            })
            .collect();
        assert_eq!(
            blocks,
            vec![
                (Stall::Dispatch { cancellable: false }, src.find("try_run").unwrap()),
                (Stall::Raw, src.find("recv").unwrap()),
            ]
        );
        let names: Vec<&str> = stream
            .iter()
            .filter_map(|e| match e {
                Event::Call { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"helper"), "{names:?}");
        assert!(names.contains(&"replay"), "{names:?}");
        assert!(!names.contains(&"try_run"), "{names:?}");
        assert_eq!(sum.mods, vec!["wal".to_string()]);
    }

    #[test]
    fn test_functions_are_marked_and_contribute_no_effects() {
        let src = "\
fn lib_side() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
";
        let sum = summarize(&file(src));
        assert_eq!(sum.fns.len(), 2);
        assert!(!sum.fns[0].is_test);
        assert!(sum.fns[1].is_test);
        assert!(sum.fns[1].cfg.is_none(), "no CFG, so no events");
        assert!(sum.local.is_empty());
    }

    #[test]
    fn import_surface_is_sorted_and_complete() {
        let src = "\
use teleios_core::geom::{Point as P, Rect};
pub use crate::inner::thing;
use teleios_store::*;
fn f() {}
";
        let sum = summarize(&file(src));
        let names: Vec<&str> = sum.imports.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["P", "Rect", "thing"]);
        assert_eq!(sum.reexports.len(), 1);
        assert_eq!(sum.reexports[0].0, "thing");
        assert_eq!(sum.globs, vec![vec!["teleios_store".to_string()]]);
    }
}
