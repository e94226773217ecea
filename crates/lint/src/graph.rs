//! Shared syntactic extraction over the token stream: function
//! boundaries, lock acquisitions, call shapes, pool-dispatch sites,
//! and raw blocking calls. The results feed the per-file effect
//! summaries ([`crate::summary`]); the concurrency rules themselves
//! (L6 `lock-order`, L7 `cancel-safety`) live in
//! [`crate::interproc`], where calls are resolved across crate
//! boundaries through the workspace-wide call graph.
//!
//! Known approximations, chosen to avoid false positives:
//!
//! - lock identity is the receiver field/binding name (`tables` in
//!   `self.tables.read()`), so two instances of one type share a
//!   node; self-edges (re-acquiring the same name) are skipped since
//!   different instances commonly share field names;
//! - held-ness does not propagate through functions *returning*
//!   guards (e.g. a `lock_state()` accessor) — only through calls
//!   made while a guard is live in the caller;
//! - `Type::assoc()` path calls are not resolved (constructors like
//!   `new` collide across modules); `.method()`, bare, and
//!   module-qualified (`wal::replay(..)`, `teleios_store::open(..)`)
//!   calls are.

use crate::lexer::{enclosing_block_end, ident_at, is_ident, is_punct, stmt_end, stmt_start, Tok};
use crate::rules::FileCtx;

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
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks, i, "fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            // `fn(u8) -> u8` pointer types have no name.
            i += 1;
            continue;
        };
        let d = toks[i].depth;
        let mut j = i + 2;
        let mut sig_end = toks.len();
        let mut body = None;
        while j < toks.len() {
            if toks[j].depth < d {
                break;
            }
            if is_punct(toks, j, b';') && toks[j].depth == d {
                sig_end = j;
                break;
            }
            if is_punct(toks, j, b'{') && toks[j].depth == d {
                sig_end = j;
                let mut k = j + 1;
                let mut close = toks.len().saturating_sub(1);
                while k < toks.len() {
                    if is_punct(toks, k, b'}') && toks[k].depth == d {
                        close = k;
                        break;
                    }
                    k += 1;
                }
                body = Some((j, close));
                break;
            }
            j += 1;
        }
        fns.push(FnDef { name: name.to_string(), name_idx: i + 1, body, sig_end });
        i += 2;
    }
    fns
}

/// Index of the innermost function whose body contains token `i`.
/// Closures belong to their enclosing `fn`; nested `fn` items own
/// their tokens.
pub(crate) fn fn_containing(fns: &[FnDef], i: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (k, f) in fns.iter().enumerate() {
        if let Some((open, close)) = f.body {
            if open < i && i < close {
                let len = close - open;
                if best.map_or(true, |(bl, _)| len < bl) {
                    best = Some((len, k));
                }
            }
        }
    }
    best.map(|(_, k)| k)
}

/// The byte offset of token `i`, saturating past the end of the
/// stream (ranges like a statement end can point one past the last
/// token).
pub(crate) fn off_at(toks: &[Tok<'_>], i: usize) -> usize {
    toks.get(i).map_or(usize::MAX, |t| t.off)
}

/// A lock acquisition at token `i`: `<name>.lock()` / `.read()` /
/// `.write()` with empty argument lists (io's `read(&mut buf)` never
/// matches). Returns `(lock name, byte offset, byte offset of the
/// last token at which the guard is still held)` — the enclosing
/// block end for `let`-bound guards, the statement end for
/// temporaries (including `let _ =`).
pub(crate) fn acq_at(toks: &[Tok<'_>], i: usize) -> Option<(String, usize, usize)> {
    let name = ident_at(toks, i)?;
    if !(is_punct(toks, i + 1, b'.')
        && matches!(ident_at(toks, i + 2), Some("lock" | "read" | "write"))
        && is_punct(toks, i + 3, b'(')
        && is_punct(toks, i + 4, b')'))
    {
        return None;
    }
    let s = stmt_start(toks, i);
    let let_bound = is_ident(toks, s, "let")
        && !(is_ident(toks, s + 1, "_") && is_punct(toks, s + 2, b'='));
    let until = if let_bound { enclosing_block_end(toks, i) } else { stmt_end(toks, i) };
    Some((name.to_string(), toks[i].off, off_at(toks, until)))
}

/// The shape of a call site at token `i`: the callee name plus how it
/// was reached — `.method()`, bare `f()`, or path-qualified
/// `a::b::f()` (with the leading segments in `qual`). `Type::assoc()`
/// calls and uppercase names (tuple-struct / enum constructors) are
/// skipped: they never resolve to workspace `fn` items.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallShape {
    pub name: String,
    pub qual: Vec<String>,
    pub method: bool,
}

pub(crate) fn call_shape_at(toks: &[Tok<'_>], i: usize) -> Option<CallShape> {
    let name = ident_at(toks, i)?;
    if !is_punct(toks, i + 1, b'(') {
        return None;
    }
    if matches!(name, "lock" | "read" | "write") {
        return None;
    }
    // `fn f(` is a declaration, not a call.
    if i > 0 && ident_at(toks, i - 1) == Some("fn") {
        return None;
    }
    if name.chars().next().is_some_and(|c| !c.is_ascii_lowercase() && c != '_') {
        return None;
    }
    if i > 0 && is_punct(toks, i - 1, b'.') {
        return Some(CallShape { name: name.to_string(), qual: Vec::new(), method: true });
    }
    let mut qual: Vec<String> = Vec::new();
    let mut j = i;
    while j >= 3 && is_punct(toks, j - 1, b':') && is_punct(toks, j - 2, b':') {
        match ident_at(toks, j - 3) {
            Some(seg) => {
                qual.push(seg.to_string());
                j -= 3;
            }
            // `<T as Trait>::f()` — not resolvable from tokens.
            None => return None,
        }
    }
    qual.reverse();
    if qual
        .iter()
        .any(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
    {
        return None; // `Type::assoc()`
    }
    Some(CallShape { name: name.to_string(), qual, method: false })
}

/// The pool-dispatch methods whose task closures must stay
/// cancellable (L7) — and, for the `*_cancellable` subset, put loops
/// in scope for L12.
pub(crate) const DISPATCH_METHODS: [&str; 2] = ["try_run", "try_run_cancellable"];

/// Is token `i` the `.` of a pool-dispatch call? Returns the method
/// name.
pub(crate) fn dispatch_method_at(toks: &[Tok<'_>], i: usize) -> Option<&'static str> {
    if !is_punct(toks, i, b'.') {
        return None;
    }
    let m = ident_at(toks, i + 1)?;
    if !is_punct(toks, i + 2, b'(') {
        return None;
    }
    match m {
        "try_run" => Some("try_run"),
        "try_run_cancellable" => Some("try_run_cancellable"),
        // `.run(..)` is a dispatch only on a pool-ish receiver —
        // `chain.run(..)` and friends are ordinary calls.
        "run" if pool_receiver(toks, i) => Some("run"),
        _ => None,
    }
}

fn pool_receiver(toks: &[Tok<'_>], dot: usize) -> bool {
    receiver_name(toks, dot).is_some_and(|r| r.to_lowercase().contains("pool"))
}

/// Is token `i` the method ident of a pool-dispatch call (so call
/// extraction must not double-count it as an ordinary call)?
pub(crate) fn dispatch_call_ident(toks: &[Tok<'_>], i: usize) -> bool {
    i > 0 && dispatch_method_at(toks, i - 1).is_some()
}

/// A raw blocking call at token `i` in the narrow L7 vocabulary:
/// `thread::sleep` (aliases included), channel `recv()` /
/// `recv_timeout(..)`. Returns `(byte offset, description)`.
pub(crate) fn direct_block_at(ctx: &FileCtx<'_>, i: usize) -> Option<(usize, &'static str)> {
    let toks = ctx.toks;
    if let Some(seg) = ident_at(toks, i) {
        let path_next = is_punct(toks, i + 1, b':') && is_punct(toks, i + 2, b':');
        if path_next
            && is_ident(toks, i + 3, "sleep")
            && (seg == "thread" || ctx.aliases.resolves_to(seg, &["std", "thread"]))
        {
            return Some((toks[i].off, "std::thread::sleep"));
        }
        if !path_next
            && is_punct(toks, i + 1, b'(')
            && ctx.aliases.resolves_to(seg, &["std", "thread", "sleep"])
        {
            return Some((toks[i].off, "std::thread::sleep"));
        }
    }
    if is_punct(toks, i, b'.')
        && is_ident(toks, i + 1, "recv")
        && is_punct(toks, i + 2, b'(')
        && is_punct(toks, i + 3, b')')
    {
        return Some((toks[i + 1].off, "channel recv()"));
    }
    if is_punct(toks, i, b'.') && is_ident(toks, i + 1, "recv_timeout") && is_punct(toks, i + 2, b'(') {
        return Some((toks[i + 1].off, "channel recv_timeout()"));
    }
    None
}

/// The name the receiver expression of `.method()` ends with: the
/// ident just before the `.`, or the call name for `f(..).method()`.
pub(crate) fn receiver_name<'a>(toks: &[Tok<'a>], dot: usize) -> Option<&'a str> {
    if dot == 0 {
        return None;
    }
    if let Some(r) = ident_at(toks, dot - 1) {
        return Some(r);
    }
    if is_punct(toks, dot - 1, b')') {
        let mut depth = 0i32;
        let mut k = dot - 1;
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
        return ident_at(toks, k.checked_sub(1)?);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{scan_file, FilePolicy, Finding, Rule};

    fn scan(src: &str) -> Vec<Finding> {
        scan_file("fixture.rs", src, FilePolicy::default())
    }

    #[test]
    fn extract_fns_names_and_bodies() {
        let masked = crate::mask::mask_code("fn a() { b(); }\nimpl S {\n    fn m(&self) -> u8 { 0 }\n}\ntrait T { fn decl(&self); }");
        let toks = crate::lexer::lex(&masked);
        let fns = extract_fns(&toks);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "decl"]);
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_some());
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn call_shapes_cover_bare_method_and_qualified() {
        let masked = crate::mask::mask_code("fn f() { g(); h.m(); a::b::c(); Vec::new(); x.lock(); }");
        let toks = crate::lexer::lex(&masked);
        let shapes: Vec<CallShape> =
            (0..toks.len()).filter_map(|i| call_shape_at(&toks, i)).collect();
        assert_eq!(
            shapes,
            vec![
                CallShape { name: "g".into(), qual: vec![], method: false },
                CallShape { name: "m".into(), qual: vec![], method: true },
                CallShape { name: "c".into(), qual: vec!["a".into(), "b".into()], method: false },
            ]
        );
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
}
