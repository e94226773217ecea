//! Phase one of the analysis: reduce each source file — independently
//! of every other file — to a self-contained [`FileSummary`].
//!
//! The summary carries two kinds of material. The *local* findings
//! (per-token rules, L4, crate attributes) are final: they never
//! change whatever the rest of the workspace looks like. The *effect*
//! material (per-function lock acquisitions, call sites, blocking
//! sites, pool dispatches, CFGs, plus the file's import/re-export
//! surface) is raw input for [`crate::interproc`], which links every
//! file's summary into a workspace-wide call graph and runs the
//! cross-crate rules over it.
//!
//! `summarize` reads nothing but its own file, so the scan is one
//! serial pass over the files followed by one link.

use crate::cfg::{self, Cfg};
use crate::graph;
use crate::lexer::{self, ident_at, in_test, is_ident, is_punct, AllowMarker, LineIndex};
use crate::rules::{self, FileCtx, FilePolicy, Finding, LocalSink, SourceFile};
use std::collections::BTreeSet;

/// One lock acquisition: the lock's name, the byte offset of the
/// site, and the byte offset of the last token at which the guard is
/// still held.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AcqS {
    pub lock: String,
    pub off: usize,
    pub until_off: usize,
}

/// One unresolved call site (shape per [`graph::call_shape_at`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallS {
    pub name: String,
    pub qual: Vec<String>,
    pub method: bool,
    pub off: usize,
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
    pub acqs: Vec<AcqS>,
    pub calls: Vec<CallS>,
    /// Raw blocking sites in the narrow L7 vocabulary, as
    /// `(description, byte offset)` in token order.
    pub l7_blocks: Vec<(String, usize)>,
    /// Pool-dispatch sites, as `(method name, byte offset)`.
    pub dispatches: Vec<(String, usize)>,
    /// Control-flow graph of the body (absent for trait declarations
    /// and test functions).
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
    let masked = crate::mask::mask_code(&file.raw);
    let toks = lexer::lex(&masked);
    let ctx = FileCtx {
        raw: &file.raw,
        idx: LineIndex::new(&file.raw),
        regions: lexer::test_regions(&toks),
        aliases: lexer::use_aliases(&toks),
        toks: &toks,
        policy: file.policy,
    };
    let markers = lexer::allow_markers(&file.raw, &masked);

    let mut sink = LocalSink::new(&file.label, &ctx.idx, &markers);
    rules::token_rules(&ctx, &mut sink);
    rules::error_impls(&ctx, &mut sink);
    if file.is_crate_root {
        rules::crate_attrs(&ctx, &mut sink);
    }
    let (local, used_markers) = sink.into_parts();

    let defs = graph::extract_fns(&toks);
    let mut fns: Vec<FnEffects> = defs
        .iter()
        .map(|f| {
            let name_off = toks.get(f.name_idx).map_or(0, |t| t.off);
            let body_off = f.body.map(|(o, _)| toks[o].off);
            FnEffects {
                name: f.name.clone(),
                is_test: in_test(&ctx.regions, name_off)
                    || body_off.is_some_and(|o| in_test(&ctx.regions, o)),
                acqs: Vec::new(),
                calls: Vec::new(),
                l7_blocks: Vec::new(),
                dispatches: Vec::new(),
                cfg: None,
            }
        })
        .collect();

    for i in 0..toks.len() {
        let off = toks[i].off;
        if in_test(&ctx.regions, off) {
            continue;
        }
        let Some(owner) = graph::fn_containing(&defs, i) else { continue };
        if fns[owner].is_test {
            continue;
        }
        if let Some(m) = graph::dispatch_method_at(&toks, i) {
            fns[owner].dispatches.push((m.to_string(), off));
        }
        if let Some((boff, desc)) = graph::direct_block_at(&ctx, i) {
            fns[owner].l7_blocks.push((desc.to_string(), boff));
        }
        if let Some((lock, aoff, until_off)) = graph::acq_at(&toks, i) {
            fns[owner].acqs.push(AcqS { lock, off: aoff, until_off });
        }
        // The dispatch method ident itself is not an ordinary call —
        // it is already recorded as a dispatch.
        if graph::dispatch_call_ident(&toks, i) {
            continue;
        }
        if let Some(s) = graph::call_shape_at(&toks, i) {
            fns[owner].calls.push(CallS { name: s.name, qual: s.qual, method: s.method, off });
        }
    }
    for (k, f) in defs.iter().enumerate() {
        if fns[k].is_test {
            continue;
        }
        if let Some(body) = f.body {
            fns[k].cfg = Some(cfg::build(&ctx, body));
        }
    }

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
    fn effects_cover_locks_calls_blocks_and_dispatches() {
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
        assert_eq!(f.acqs.len(), 1);
        assert_eq!(f.acqs[0].lock, "meta");
        assert_eq!(f.dispatches, vec![("try_run".to_string(), src.find(".try_run").unwrap())]);
        assert_eq!(f.l7_blocks.len(), 1);
        assert!(f.l7_blocks[0].0.contains("recv"));
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"helper"), "{names:?}");
        assert!(names.contains(&"replay"), "{names:?}");
        assert!(!names.contains(&"try_run"), "{names:?}");
        assert_eq!(sum.mods, vec!["wal".to_string()]);
        assert!(f.cfg.is_some());
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
        assert!(sum.fns[1].l7_blocks.is_empty());
        assert!(sum.fns[1].cfg.is_none());
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
