//! Intraprocedural control flow + dataflow: the engine behind the
//! path-sensitive rules L10 `txn-leak`, L11 `guard-across-blocking`,
//! and L12 `loop-cancel-poll`.
//!
//! [`build`] parses one function body — over the [`crate::lexer`]
//! token stream, with [`crate::graph`] supplying call shapes — into
//! basic blocks with edges for `if`/`else if`/`else`, `if let`/
//! `while let`/`let-else`, `match` arms, the three loop forms,
//! `return`, `break`/`continue`, and `?`-propagation.
//! Dataflow-relevant occurrences (transaction begin/commit/rollback,
//! exclusive guard acquisition and `drop`, blocking calls,
//! cancellation polls, function exits) become [`Event`]s in lexical
//! order inside each block, anchored at byte offsets so a CFG stored
//! in a [`crate::summary::FileSummary`] stands alone — no token
//! stream needed at link time.
//!
//! Call sites the builder cannot judge locally become [`Event::Call`]
//! placeholders; the link phase ([`crate::interproc`]) resolves each
//! against the workspace call graph and rewrites it via
//! [`resolve_calls`] into the `Poll` and/or `Blocking` events its
//! callee's effect summary implies — that is how a guard held across
//! a call into another crate's fsync path gets caught.
//!
//! On top of the graph sits a small forward dataflow framework:
//! gen/kill facts per block, joined along edges and iterated over a
//! worklist to fixpoint ([`forward_fixpoint`]), then replayed through
//! each block's events to anchor diagnostics at exact `line:col`
//! positions. Loop bodies are recovered as natural loops (reverse
//! reachability from back edges — every graph this builder produces
//! is reducible) for the must-poll analysis.
//!
//! Deliberate approximations, chosen to keep the engine dependency-
//! free and the false-positive rate near zero: closures are inlined
//! into the enclosing function's flow (a `?` inside a closure is
//! treated as a function exit), labeled `break`/`continue` target the
//! innermost loop, and nested `fn` items are skipped (each gets its
//! own CFG).

use crate::graph;
use crate::lexer::{enclosing_block_end, ident_at, is_ident, is_punct, stmt_start, Tok, TokKind};
use crate::rules::{Diagnostics, FileCtx, Rule};
use crate::summary::FileSummary;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// One dataflow-relevant occurrence inside a basic block. Byte
/// offsets anchor diagnostics; events appear in lexical order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// `recv.begin()` — opens a transaction. `close` is the byte
    /// offset of the call's `)`, used to order a directly attached
    /// `?` *before* the open: on `begin()?`'s Err path no transaction
    /// exists yet.
    Begin { recv: String, off: usize, close: usize },
    /// `recv.commit()` / `recv.rollback()` — closes the transaction
    /// whether it succeeds or errors (the backends `take()` the
    /// transaction first).
    TxnEnd { recv: String },
    /// `let g = lock.lock()` / `.write()` — an exclusive guard bound
    /// to a name. `scope_end` is the byte offset of the `}` closing
    /// the binding's block.
    Acquire { binding: String, lock: String, off: usize, scope_end: usize },
    /// `drop(g)`.
    DropGuard { binding: String },
    /// A call that can stall other threads or outlive a deadline:
    /// pool dispatch, `thread::sleep`, channel `recv`, fsync barrier,
    /// WAL commit — or, after [`resolve_calls`], a call whose effect
    /// summary says it may transitively block.
    Blocking { desc: String, off: usize },
    /// A cancellation poll: `is_cancelled` / `poll_cancellable` /
    /// `sleep_cancellable`, or (after [`resolve_calls`]) a call to a
    /// workspace function that transitively polls.
    Poll,
    /// An unresolved call site: judged at link time against the
    /// callee's effect summary, then rewritten by [`resolve_calls`].
    Call { name: String, qual: Vec<String>, method: bool, off: usize },
    /// `?` — an Err early exit out of the function.
    Question { off: usize },
    /// `return`.
    Ret { off: usize },
    /// Falling off the end of the function body.
    EndOfFn,
}

/// A basic block: events in lexical order plus `(target, is_back)`
/// successor edges. Loop-head blocks carry the loop keyword's byte
/// offset.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Block {
    pub(crate) events: Vec<Event>,
    pub(crate) succs: Vec<(usize, bool)>,
    pub(crate) head: Option<(usize, &'static str)>,
}

/// Control-flow graph of one function body; block 0 is the entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cfg {
    pub(crate) blocks: Vec<Block>,
}

impl Cfg {
    fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for &(t, _) in &block.succs {
                preds[t].push(b);
            }
        }
        preds
    }
}

/// Build the CFG for the body `(open, close)` (token indices of the
/// function's outer braces).
pub(crate) fn build(ctx: &FileCtx<'_>, body: (usize, usize)) -> Cfg {
    let mut b = Builder { ctx, blocks: vec![Block::default()] };
    let (open, close) = body;
    let mut loops = Vec::new();
    let last = b.parse_flow(open + 1, close, 0, &mut loops);
    b.blocks[last].events.push(Event::EndOfFn);
    Cfg { blocks: b.blocks }
}

/// The link phase's judgement of one unresolved call site.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallVerdict {
    /// The callee transitively polls the CancelToken.
    pub(crate) polls: bool,
    /// The callee may block; the description to report.
    pub(crate) block: Option<String>,
}

/// Rewrite every [`Event::Call`] into the `Poll` and/or `Blocking`
/// events the link phase's verdict implies (or nothing), leaving all
/// other events and the block structure untouched. The path-sensitive
/// checks then run unchanged over the resolved graph.
pub(crate) fn resolve_calls(
    cfg: &Cfg,
    mut verdict: impl FnMut(&str, &[String], bool) -> CallVerdict,
) -> Cfg {
    let blocks = cfg
        .blocks
        .iter()
        .map(|b| {
            let mut events = Vec::with_capacity(b.events.len());
            for ev in &b.events {
                if let Event::Call { name, qual, method, off } = ev {
                    let v = verdict(name, qual, *method);
                    if v.polls {
                        events.push(Event::Poll);
                    }
                    if let Some(desc) = v.block {
                        events.push(Event::Blocking { desc, off: *off });
                    }
                } else {
                    events.push(ev.clone());
                }
            }
            Block { events, succs: b.succs.clone(), head: b.head }
        })
        .collect();
    Cfg { blocks }
}

struct Builder<'b, 'a> {
    ctx: &'b FileCtx<'a>,
    blocks: Vec<Block>,
}

impl Builder<'_, '_> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, back: bool) {
        if !self.blocks[from].succs.contains(&(to, back)) {
            self.blocks[from].succs.push((to, back));
        }
    }

    /// The `}` matching the `{` at `open` (the lexer gives both the
    /// same depth).
    fn match_brace(&self, open: usize) -> usize {
        let toks = self.ctx.toks;
        let d = toks[open].depth;
        let mut j = open + 1;
        while j < toks.len() {
            if is_punct(toks, j, b'}') && toks[j].depth == d {
                return j;
            }
            j += 1;
        }
        toks.len().saturating_sub(1)
    }

    /// First `{` at paren/bracket depth zero in `[j, hi)` — the body
    /// open of a control construct. A `match` expression inside the
    /// condition gets its arm list skipped so it is not mistaken for
    /// the body (bare struct literals are illegal in condition
    /// position, so any other `{` at depth zero *is* the body).
    fn cond_body_open(&self, mut j: usize, hi: usize) -> usize {
        let toks = self.ctx.toks;
        let mut paren = 0i32;
        while j < hi {
            match toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                TokKind::Punct(b'{') if paren == 0 => return j,
                TokKind::Ident("match") if paren == 0 => {
                    let open = self.cond_body_open(j + 1, hi);
                    if open >= hi {
                        return hi;
                    }
                    j = self.match_brace(open);
                }
                _ => {}
            }
            j += 1;
        }
        hi
    }

    /// Token index just past the `=` ending a `let <pattern>` in an
    /// `if let` / `while let` / `let-else` head (struct patterns nest
    /// braces; `..=` range patterns contain a non-terminating `=`).
    fn skip_let_pattern(&self, mut j: usize, hi: usize) -> usize {
        let toks = self.ctx.toks;
        let (mut paren, mut brace) = (0i32, 0i32);
        while j < hi {
            match toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                TokKind::Punct(b'{') => brace += 1,
                TokKind::Punct(b'}') => brace -= 1,
                TokKind::Punct(b'=') if paren == 0 && brace == 0 => {
                    let part_of_op = is_punct(toks, j + 1, b'=')
                        || is_punct(toks, j + 1, b'>')
                        || (j > 0
                            && (is_punct(toks, j - 1, b'=')
                                || is_punct(toks, j - 1, b'<')
                                || is_punct(toks, j - 1, b'>')
                                || is_punct(toks, j - 1, b'!')
                                || is_punct(toks, j - 1, b'.')));
                    if !part_of_op {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        hi
    }

    /// The `;` ending the expression statement starting at `j`, at
    /// its own paren/brace nesting (or the first `}` that closes the
    /// enclosing block).
    fn stmt_close(&self, mut j: usize, hi: usize) -> usize {
        let toks = self.ctx.toks;
        let (mut paren, mut brace) = (0i32, 0i32);
        while j < hi {
            match toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                TokKind::Punct(b'{') => brace += 1,
                TokKind::Punct(b'}') => {
                    brace -= 1;
                    if brace < 0 {
                        return j;
                    }
                }
                TokKind::Punct(b';') if paren == 0 && brace == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        hi
    }

    /// Linear walk over `[lo, hi)`: straight-line runs become events
    /// in the current block; control constructs split blocks and add
    /// edges. Returns the block that falls through past `hi`.
    /// `loops` stacks `(head, after)` targets for `continue`/`break`.
    fn parse_flow(
        &mut self,
        lo: usize,
        hi: usize,
        mut cur: usize,
        loops: &mut Vec<(usize, usize)>,
    ) -> usize {
        let toks = self.ctx.toks;
        let mut i = lo;
        let mut run = lo;
        while i < hi {
            match toks[i].kind {
                TokKind::Ident("if") => {
                    self.scan_events(cur, run, i);
                    let (ni, nc) = self.handle_if(i, hi, cur, loops);
                    cur = nc;
                    i = ni;
                    run = i;
                }
                TokKind::Ident("while") | TokKind::Ident("loop") | TokKind::Ident("for") => {
                    self.scan_events(cur, run, i);
                    let (ni, nc) = self.handle_loop(i, hi, cur, loops);
                    cur = nc;
                    i = ni;
                    run = i;
                }
                TokKind::Ident("match") => {
                    self.scan_events(cur, run, i);
                    let (ni, nc) = self.handle_match(i, hi, cur, loops);
                    cur = nc;
                    i = ni;
                    run = i;
                }
                TokKind::Ident("return") => {
                    self.scan_events(cur, run, i);
                    let end = self.stmt_close(i + 1, hi);
                    self.scan_events(cur, i + 1, end);
                    self.blocks[cur].events.push(Event::Ret { off: toks[i].off });
                    cur = self.new_block(); // unreachable continuation
                    i = end + 1;
                    run = i;
                }
                TokKind::Ident("break") => {
                    self.scan_events(cur, run, i);
                    let end = self.stmt_close(i + 1, hi);
                    self.scan_events(cur, i + 1, end);
                    if let Some(&(_, after)) = loops.last() {
                        self.edge(cur, after, false);
                    }
                    cur = self.new_block();
                    i = end + 1;
                    run = i;
                }
                TokKind::Ident("continue") => {
                    self.scan_events(cur, run, i);
                    let end = self.stmt_close(i + 1, hi);
                    if let Some(&(head, _)) = loops.last() {
                        self.edge(cur, head, true);
                    }
                    cur = self.new_block();
                    i = end + 1;
                    run = i;
                }
                // `let <pattern> = <expr> else { <diverging> };`
                TokKind::Ident("else") if is_punct(toks, i + 1, b'{') => {
                    self.scan_events(cur, run, i);
                    let close = self.match_brace(i + 1);
                    let body = self.new_block();
                    let after = self.new_block();
                    self.edge(cur, body, false);
                    self.edge(cur, after, false);
                    let bx = self.parse_flow(i + 2, close, body, loops);
                    self.edge(bx, after, false);
                    cur = after;
                    i = close + 1;
                    run = i;
                }
                // Nested `fn` item: a definition, not control flow —
                // skip it (it gets its own CFG). `fn` pointer types
                // (`let f: fn(u8)`) have no name ident and fall
                // through as plain tokens.
                TokKind::Ident("fn") if ident_at(toks, i + 1).is_some() => {
                    self.scan_events(cur, run, i);
                    let mut j = i + 1;
                    let mut paren = 0i32;
                    while j < hi {
                        match toks[j].kind {
                            TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                            TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                            TokKind::Punct(b';') if paren == 0 => break,
                            TokKind::Punct(b'{') if paren == 0 => {
                                j = self.match_brace(j);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j + 1;
                    run = i;
                }
                // Plain block, closure body, or unsafe block: inline
                // as sequential flow.
                TokKind::Punct(b'{') => {
                    self.scan_events(cur, run, i);
                    let close = self.match_brace(i);
                    cur = self.parse_flow(i + 1, close, cur, loops);
                    i = close + 1;
                    run = i;
                }
                _ => i += 1,
            }
        }
        self.scan_events(cur, run, hi);
        cur
    }

    /// `if [let <pat> =] <cond> { then } [else if ... | else { .. }]`.
    /// Returns `(token index after the construct, join block)`.
    fn handle_if(
        &mut self,
        i: usize,
        hi: usize,
        cur: usize,
        loops: &mut Vec<(usize, usize)>,
    ) -> (usize, usize) {
        let toks = self.ctx.toks;
        let cond_from = if is_ident(toks, i + 1, "let") {
            self.skip_let_pattern(i + 2, hi)
        } else {
            i + 1
        };
        let open = self.cond_body_open(cond_from, hi);
        if open >= hi {
            self.scan_events(cur, i + 1, hi);
            return (hi, cur);
        }
        self.scan_events(cur, i + 1, open);
        let close = self.match_brace(open);
        let then_entry = self.new_block();
        self.edge(cur, then_entry, false);
        let then_exit = self.parse_flow(open + 1, close, then_entry, loops);
        if is_ident(toks, close + 1, "else") {
            if is_ident(toks, close + 2, "if") {
                let elif_entry = self.new_block();
                self.edge(cur, elif_entry, false);
                let (ni, join) = self.handle_if(close + 2, hi, elif_entry, loops);
                self.edge(then_exit, join, false);
                return (ni, join);
            }
            if is_punct(toks, close + 2, b'{') {
                let eclose = self.match_brace(close + 2);
                let else_entry = self.new_block();
                self.edge(cur, else_entry, false);
                let else_exit = self.parse_flow(close + 3, eclose, else_entry, loops);
                let join = self.new_block();
                self.edge(then_exit, join, false);
                self.edge(else_exit, join, false);
                return (eclose + 1, join);
            }
        }
        let join = self.new_block();
        self.edge(cur, join, false);
        self.edge(then_exit, join, false);
        (close + 1, join)
    }

    /// `loop { .. }` / `while [let <pat> =] <cond> { .. }` /
    /// `for <pat> in <iter> { .. }`. The head block holds the
    /// condition events and carries the keyword's offset.
    fn handle_loop(
        &mut self,
        i: usize,
        hi: usize,
        cur: usize,
        loops: &mut Vec<(usize, usize)>,
    ) -> (usize, usize) {
        let toks = self.ctx.toks;
        let kw: &'static str = match ident_at(toks, i) {
            Some("while") => "while",
            Some("for") => "for",
            _ => "loop",
        };
        let mut cond_from = i + 1;
        if kw == "while" && is_ident(toks, i + 1, "let") {
            cond_from = self.skip_let_pattern(i + 2, hi);
        }
        if kw == "for" {
            let (mut paren, mut brace) = (0i32, 0i32);
            let mut k = i + 1;
            while k < hi {
                match toks[k].kind {
                    TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                    TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                    TokKind::Punct(b'{') => brace += 1,
                    TokKind::Punct(b'}') => brace -= 1,
                    TokKind::Ident("in") if paren == 0 && brace == 0 => {
                        cond_from = k + 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        let open = self.cond_body_open(cond_from, hi);
        if open >= hi {
            self.scan_events(cur, i + 1, hi);
            return (hi, cur);
        }
        let head = self.new_block();
        self.edge(cur, head, false);
        self.scan_events(head, i + 1, open);
        self.blocks[head].head = Some((toks[i].off, kw));
        let close = self.match_brace(open);
        let after = self.new_block();
        if kw != "loop" {
            // `while`/`for` can fall through without entering.
            self.edge(head, after, false);
        }
        let body = self.new_block();
        self.edge(head, body, false);
        loops.push((head, after));
        let body_exit = self.parse_flow(open + 1, close, body, loops);
        loops.pop();
        self.edge(body_exit, head, true);
        (close + 1, after)
    }

    /// `match <scrutinee> { pat [if guard] => arm, ... }`: one block
    /// per arm, all joining after the match.
    fn handle_match(
        &mut self,
        i: usize,
        hi: usize,
        cur: usize,
        loops: &mut Vec<(usize, usize)>,
    ) -> (usize, usize) {
        let toks = self.ctx.toks;
        let open = self.cond_body_open(i + 1, hi);
        if open >= hi {
            self.scan_events(cur, i + 1, hi);
            return (hi, cur);
        }
        self.scan_events(cur, i + 1, open);
        let close = self.match_brace(open);
        let join = self.new_block();
        let mut j = open + 1;
        let mut arms = 0usize;
        while j < close {
            // `=>` at paren/brace depth zero ends the pattern (and
            // any guard); `..=` / `==` / `<=` never match because the
            // next token must be `>`.
            let (mut paren, mut brace) = (0i32, 0i32);
            let mut arrow = None;
            let mut k = j;
            while k < close {
                match toks[k].kind {
                    TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                    TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                    TokKind::Punct(b'{') => brace += 1,
                    TokKind::Punct(b'}') => brace -= 1,
                    TokKind::Punct(b'=')
                        if paren == 0 && brace == 0 && is_punct(toks, k + 1, b'>') =>
                    {
                        arrow = Some(k);
                    }
                    _ => {}
                }
                if arrow.is_some() {
                    break;
                }
                k += 1;
            }
            let Some(arrow) = arrow else { break };
            let entry = self.new_block();
            self.edge(cur, entry, false);
            self.scan_events(entry, j, arrow); // guard calls can poll
            let body_start = arrow + 2;
            let (exit, mut next);
            if is_punct(toks, body_start, b'{') {
                let bclose = self.match_brace(body_start);
                exit = self.parse_flow(body_start + 1, bclose, entry, loops);
                next = bclose + 1;
            } else {
                // Expression arm: ends at `,` at this nesting level,
                // or at the match close.
                let (mut paren, mut brace) = (0i32, 0i32);
                let mut k = body_start;
                while k < close {
                    match toks[k].kind {
                        TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                        TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
                        TokKind::Punct(b'{') => brace += 1,
                        TokKind::Punct(b'}') => brace -= 1,
                        TokKind::Punct(b',') if paren == 0 && brace == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                exit = self.parse_flow(body_start, k, entry, loops);
                next = k;
            }
            self.edge(exit, join, false);
            if is_punct(toks, next, b',') {
                next += 1;
            }
            j = next;
            arms += 1;
        }
        if arms == 0 {
            self.edge(cur, join, false);
        }
        (close + 1, join)
    }

    /// Append the events of the straight-line token run `[lo, hi)` to
    /// block `cur`.
    fn scan_events(&mut self, cur: usize, lo: usize, hi: usize) {
        let ctx = self.ctx;
        let toks = ctx.toks;
        let hi = hi.min(toks.len());
        let mut i = lo;
        while i < hi {
            if is_punct(toks, i, b'?') {
                let ev = Event::Question { off: toks[i].off };
                match self.blocks[cur].events.last() {
                    // `begin()?`: the Err path never opened a
                    // transaction — order the exit before the open.
                    Some(Event::Begin { close, .. }) if i >= 1 && toks[i - 1].off == *close => {
                        let at = self.blocks[cur].events.len() - 1;
                        self.blocks[cur].events.insert(at, ev);
                    }
                    _ => self.blocks[cur].events.push(ev),
                }
                i += 1;
                continue;
            }
            let Some(name) = ident_at(toks, i) else {
                i += 1;
                continue;
            };
            let dotted = i >= 1 && is_punct(toks, i - 1, b'.');
            let called = is_punct(toks, i + 1, b'(');
            let empty_args = called && is_punct(toks, i + 2, b')');
            match name {
                "begin" if dotted && empty_args => {
                    let ev = Event::Begin {
                        recv: recv_name(toks, i),
                        off: toks[recv_anchor(toks, i)].off,
                        close: toks[i + 2].off,
                    };
                    self.blocks[cur].events.push(ev);
                }
                "commit" if dotted && empty_args => {
                    // Dual role: a WAL commit is an fsync barrier
                    // (blocking) *and* it closes the transaction.
                    self.blocks[cur].events.push(Event::Blocking {
                        desc: "the WAL commit `commit()`".to_string(),
                        off: toks[i].off,
                    });
                    self.blocks[cur].events.push(Event::TxnEnd { recv: recv_name(toks, i) });
                }
                "rollback" if dotted && empty_args => {
                    let ev = Event::TxnEnd { recv: recv_name(toks, i) };
                    self.blocks[cur].events.push(ev);
                }
                // Exclusive guard acquisition: only `let`-bound
                // guards on a plain-ident lock outlive their
                // statement. Shared `.read()` guards are exempt —
                // L11 targets guards that stall every other thread.
                "lock" | "write" if dotted && empty_args => {
                    let Some(lock) = (i >= 2).then(|| ident_at(toks, i - 2)).flatten() else {
                        i += 1;
                        continue;
                    };
                    let s = stmt_start(toks, i);
                    if is_ident(toks, s, "let") {
                        let mut b = s + 1;
                        if is_ident(toks, b, "mut") {
                            b += 1;
                        }
                        if let Some(binding) = ident_at(toks, b) {
                            let bound = is_punct(toks, b + 1, b'=') || is_punct(toks, b + 1, b':');
                            if binding != "_" && bound {
                                let ev = Event::Acquire {
                                    binding: binding.to_string(),
                                    lock: lock.to_string(),
                                    off: toks[i].off,
                                    scope_end: graph::off_at(toks, enclosing_block_end(toks, i)),
                                };
                                self.blocks[cur].events.push(ev);
                            }
                        }
                    }
                }
                "drop" if !dotted && called => {
                    if let Some(binding) = ident_at(toks, i + 2) {
                        if is_punct(toks, i + 3, b')') {
                            let ev = Event::DropGuard { binding: binding.to_string() };
                            self.blocks[cur].events.push(ev);
                        }
                    }
                }
                "sleep_cancellable" if dotted && called => {
                    self.blocks[cur].events.push(Event::Poll);
                    self.blocks[cur].events.push(Event::Blocking {
                        desc: "`sleep_cancellable()`".to_string(),
                        off: toks[i].off,
                    });
                }
                "poll_cancellable" | "is_cancelled" if called => {
                    self.blocks[cur].events.push(Event::Poll);
                }
                "sync_all" | "sync_data" if dotted && empty_args => {
                    self.blocks[cur].events.push(Event::Blocking {
                        desc: format!("the fsync barrier `{name}()`"),
                        off: toks[i].off,
                    });
                }
                "recv" if dotted && empty_args => {
                    self.blocks[cur].events.push(Event::Blocking {
                        desc: "channel `recv()`".to_string(),
                        off: toks[i].off,
                    });
                }
                "recv_timeout" if dotted && called => {
                    self.blocks[cur].events.push(Event::Blocking {
                        desc: "channel `recv_timeout()`".to_string(),
                        off: toks[i].off,
                    });
                }
                "sleep" if called => {
                    let path_call = i >= 3 && is_punct(toks, i - 1, b':') && is_punct(toks, i - 2, b':');
                    let via_path = path_call
                        && ident_at(toks, i - 3).is_some_and(|seg| {
                            seg == "thread" || ctx.aliases.resolves_to(seg, &["std", "thread"])
                        });
                    let via_use = !path_call
                        && !dotted
                        && ctx.aliases.resolves_to("sleep", &["std", "thread", "sleep"]);
                    if via_path || via_use {
                        self.blocks[cur].events.push(Event::Blocking {
                            desc: "`std::thread::sleep`".to_string(),
                            off: if via_path { toks[i - 3].off } else { toks[i].off },
                        });
                    }
                }
                _ => {
                    if dotted && called && graph::DISPATCH_METHODS.contains(&name) {
                        self.blocks[cur].events.push(Event::Blocking {
                            desc: format!("the pool dispatch `{name}()`"),
                            off: toks[i].off,
                        });
                    } else if dotted
                        && called
                        && name == "run"
                        && graph::receiver_name(toks, i - 1)
                            .is_some_and(|r| r.to_lowercase().contains("pool"))
                    {
                        self.blocks[cur].events.push(Event::Blocking {
                            desc: format!("the pool dispatch `{name}()`"),
                            off: toks[i].off,
                        });
                    } else if called {
                        // Everything else is an unresolved call site,
                        // judged at link time against the callee's
                        // effect summary.
                        if let Some(shape) = graph::call_shape_at(toks, i) {
                            self.blocks[cur].events.push(Event::Call {
                                name: shape.name,
                                qual: shape.qual,
                                method: shape.method,
                                off: toks[i].off,
                            });
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

/// Receiver of `recv.method()`: the ident two tokens before the
/// method name, or a placeholder for chained receivers.
fn recv_name(toks: &[Tok<'_>], call: usize) -> String {
    if call >= 2 {
        if let Some(r) = ident_at(toks, call - 2) {
            return r.to_string();
        }
    }
    "receiver".to_string()
}

/// Diagnostic anchor for `recv.method()`: the receiver ident when it
/// is one, else the method name.
fn recv_anchor(toks: &[Tok<'_>], call: usize) -> usize {
    if call >= 2 && ident_at(toks, call - 2).is_some() {
        call - 2
    } else {
        call
    }
}

// ---------------------------------------------------------------
// The forward dataflow framework
// ---------------------------------------------------------------

/// Worklist iteration to fixpoint. `transfer` computes a block's out
/// fact from its in fact; `merge` joins an out fact into a successor's
/// in fact (receiving the edge kind and the successor block, so a
/// join can filter what survives a back edge) and reports whether the
/// fact changed. Facts must grow monotonically for termination.
fn forward_fixpoint<F: Clone>(
    cfg: &Cfg,
    init: F,
    bottom: F,
    transfer: impl Fn(&Block, &F) -> F,
    merge: impl Fn(&mut F, &F, bool, &Block) -> bool,
) -> Vec<F> {
    let n = cfg.blocks.len();
    let mut ins: Vec<F> = vec![bottom; n];
    ins[0] = init;
    let mut work: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let out = transfer(&cfg.blocks[b], &ins[b]);
        for &(t, back) in &cfg.blocks[b].succs {
            let changed = merge(&mut ins[t], &out, back, &cfg.blocks[t]);
            if changed && !queued[t] {
                queued[t] = true;
                work.push_back(t);
            }
        }
    }
    ins
}

// ---------------------------------------------------------------
// L10 txn-leak
// ---------------------------------------------------------------

/// Open transactions: receiver name → byte offset of the `begin`
/// site. May-analysis (union join): a transaction open on *any* path
/// into an exit leaks there.
type TxnFact = BTreeMap<String, usize>;

fn txn_transfer(block: &Block, fact: &TxnFact) -> TxnFact {
    let mut f = fact.clone();
    for ev in &block.events {
        match ev {
            Event::Begin { recv, off, .. } => {
                f.entry(recv.clone()).or_insert(*off);
            }
            Event::TxnEnd { recv } => {
                f.remove(recv);
            }
            _ => {}
        }
    }
    f
}

pub(crate) fn check_txn_leak(sum: &FileSummary, fi: usize, cfg: &Cfg, diag: &mut Diagnostics) {
    if !cfg
        .blocks
        .iter()
        .any(|b| b.events.iter().any(|e| matches!(e, Event::Begin { .. })))
    {
        return;
    }
    let ins = forward_fixpoint(
        cfg,
        TxnFact::new(),
        TxnFact::new(),
        txn_transfer,
        |tin, out, _back, _target| {
            let mut changed = false;
            for (k, v) in out {
                if !tin.contains_key(k) {
                    tin.insert(k.clone(), *v);
                    changed = true;
                }
            }
            changed
        },
    );
    // Replay each block's events over its in fact; report the first
    // leaking exit per begin site.
    let mut leaks: BTreeMap<usize, (String, String)> = BTreeMap::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut f = ins[b].clone();
        for ev in &block.events {
            match ev {
                Event::Begin { recv, off, .. } => {
                    f.entry(recv.clone()).or_insert(*off);
                }
                Event::TxnEnd { recv } => {
                    f.remove(recv);
                }
                Event::Question { off } | Event::Ret { off } => {
                    let (line, _) = sum.idx.line_col(*off);
                    let exit = if matches!(ev, Event::Question { .. }) {
                        format!("the `?` on line {line}")
                    } else {
                        format!("the `return` on line {line}")
                    };
                    for (recv, &site) in &f {
                        leaks.entry(site).or_insert_with(|| (recv.clone(), exit.clone()));
                    }
                }
                Event::EndOfFn => {
                    for (recv, &site) in &f {
                        leaks.entry(site).or_insert_with(|| {
                            (recv.clone(), "falling off the end of the function".to_string())
                        });
                    }
                }
                _ => {}
            }
        }
    }
    for (site, (recv, exit)) in leaks {
        diag.emit(sum, fi, site, Rule::TxnLeak, format!(
            "`{recv}.begin()` opens a transaction that is still open when the function exits through {exit}: commit or roll back on every path (debug builds enforce this with TxnWitness)"
        ));
    }
}

// ---------------------------------------------------------------
// L11 guard-across-blocking
// ---------------------------------------------------------------

/// A live exclusive guard: where it was acquired and where its
/// binding's scope ends (byte offset of the closing `}`).
#[derive(Debug, Clone, PartialEq)]
struct Held {
    lock: String,
    off: usize,
    scope_end: usize,
}

/// binding name → guard. May-analysis: held on any path in counts.
type GuardFact = BTreeMap<String, Held>;

fn guard_transfer(block: &Block, fact: &GuardFact) -> GuardFact {
    let mut f = fact.clone();
    for ev in &block.events {
        match ev {
            Event::Acquire { binding, lock, off, scope_end } => {
                f.insert(
                    binding.clone(),
                    Held { lock: lock.clone(), off: *off, scope_end: *scope_end },
                );
            }
            Event::DropGuard { binding } => {
                f.remove(binding);
            }
            Event::Blocking { off, .. } => {
                // A guard whose lexical scope closed before this
                // point was released when its block ended.
                f.retain(|_, g| g.scope_end >= *off);
            }
            _ => {}
        }
    }
    f
}

pub(crate) fn check_guard_blocking(sum: &FileSummary, fi: usize, cfg: &Cfg, diag: &mut Diagnostics) {
    if !cfg
        .blocks
        .iter()
        .any(|b| b.events.iter().any(|e| matches!(e, Event::Acquire { .. })))
    {
        return;
    }
    let ins = forward_fixpoint(
        cfg,
        GuardFact::new(),
        GuardFact::new(),
        guard_transfer,
        |tin, out, back, target| {
            let mut changed = false;
            for (binding, g) in out {
                // A guard acquired inside the loop body died when the
                // body's iteration ended — it does not survive the
                // back edge into the head.
                if back {
                    if let Some((kw_off, _)) = target.head {
                        if g.off > kw_off {
                            continue;
                        }
                    }
                }
                if !tin.contains_key(binding) {
                    tin.insert(binding.clone(), g.clone());
                    changed = true;
                }
            }
            changed
        },
    );
    let mut reported: BTreeSet<(usize, String)> = BTreeSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut f = ins[b].clone();
        for ev in &block.events {
            match ev {
                Event::Acquire { binding, lock, off, scope_end } => {
                    f.insert(
                        binding.clone(),
                        Held { lock: lock.clone(), off: *off, scope_end: *scope_end },
                    );
                }
                Event::DropGuard { binding } => {
                    f.remove(binding);
                }
                Event::Blocking { desc, off } => {
                    f.retain(|_, g| g.scope_end >= *off);
                    for (binding, g) in &f {
                        if reported.insert((*off, binding.clone())) {
                            let (line, _) = sum.idx.line_col(g.off);
                            diag.emit(sum, fi, *off, Rule::GuardAcrossBlocking, format!(
                                "exclusive guard `{binding}` on `{}` (acquired on line {line}) is still held across {desc}: drop or scope the guard before blocking",
                                g.lock
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------
// L12 loop-cancel-poll
// ---------------------------------------------------------------

fn has_poll(block: &Block) -> bool {
    block.events.iter().any(|e| matches!(e, Event::Poll))
}

/// For every `loop`/`while` head: must-analysis over the natural loop
/// body — does *every* iteration path from the head back to it cross
/// a cancellation poll? (`for` loops iterate finite morsel sets and
/// are exempt; unbounded spinning lives in `loop`/`while`.)
pub(crate) fn check_loop_polls(
    sum: &FileSummary,
    fi: usize,
    cfg: &Cfg,
    fn_name: &str,
    entry: &str,
    diag: &mut Diagnostics,
) {
    let preds = cfg.preds();
    for (h, hb) in cfg.blocks.iter().enumerate() {
        let Some((kw_off, kw)) = hb.head else { continue };
        if kw == "for" {
            continue;
        }
        let backs: Vec<usize> = cfg
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.succs.contains(&(h, true)))
            .map(|(i, _)| i)
            .collect();
        if backs.is_empty() {
            continue;
        }
        // Natural loop body: the head plus everything that reaches a
        // back edge without passing through the head.
        let mut body: HashSet<usize> = HashSet::new();
        body.insert(h);
        let mut stack: Vec<usize> = backs.clone();
        while let Some(n) = stack.pop() {
            if body.insert(n) {
                stack.extend(preds[n].iter().copied());
            }
        }
        // out[b]: every path head → end-of-b crossed a poll. Init
        // optimistically (top = true), AND over in-body predecessors,
        // head pinned to false (the iteration is just starting).
        let mut sorted: Vec<usize> = body.iter().copied().collect();
        sorted.sort_unstable();
        let mut out: HashMap<usize, bool> = sorted.iter().map(|&b| (b, true)).collect();
        loop {
            let mut changed = false;
            for &b in &sorted {
                let inb = if b == h {
                    false
                } else {
                    preds[b]
                        .iter()
                        .filter(|p| body.contains(p))
                        .all(|p| out.get(p).copied().unwrap_or(true))
                };
                let o = inb || has_poll(&cfg.blocks[b]);
                if out.get(&b).copied() != Some(o) {
                    out.insert(b, o);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if backs.iter().any(|b| !out.get(b).copied().unwrap_or(true)) {
            diag.emit(sum, fi, kw_off, Rule::LoopCancelPoll, format!(
                "`{kw}` loop in `{fn_name}` runs on a pool-dispatched path (via `{entry}`) but has an iteration path that never polls the CancelToken: call is_cancelled / poll_cancellable / sleep_cancellable on every iteration"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{scan_file, FilePolicy, Rule};

    /// Positions where `rule` fired on `src` scanned as library code.
    fn fired(src: &str, rule: Rule) -> Vec<(usize, usize)> {
        scan_file("crates/x/src/lib.rs", src, FilePolicy::default())
            .into_iter()
            .filter(|f| f.rule == rule)
            .map(|f| (f.line, f.col))
            .collect()
    }

    #[test]
    fn txn_leak_through_early_return_branch() {
        let src = r#"
pub fn save(b: &B, ok: bool) -> Result<(), StoreError> {
    b.begin();
    if ok {
        return Ok(());
    }
    b.commit();
    Ok(())
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![(3, 5)]);
    }

    #[test]
    fn txn_rolled_back_before_return_is_clean() {
        let src = r#"
pub fn save(b: &B, ok: bool) -> Result<(), StoreError> {
    b.begin();
    if ok {
        b.rollback();
        return Ok(());
    }
    b.commit();
    Ok(())
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![]);
    }

    #[test]
    fn txn_leak_through_a_match_arm() {
        let src = r#"
pub fn settle(b: &B, k: u8) {
    b.begin();
    match k {
        0 => b.commit(),
        _ => {}
    }
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![(3, 5)]);
    }

    #[test]
    fn txn_closed_in_every_match_arm_is_clean() {
        let src = r#"
pub fn settle(b: &B, k: u8) {
    b.begin();
    match k {
        0 => b.commit(),
        _ => b.rollback(),
    }
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![]);
    }

    #[test]
    fn txn_leak_survives_a_loop_back_edge() {
        let src = r#"
pub fn drain(b: &B, q: &Q) {
    while let Some(_x) = q.pop() {
        b.begin();
    }
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![(4, 9)]);
    }

    #[test]
    fn txn_closed_each_iteration_is_clean() {
        let src = r#"
pub fn drain(b: &B, q: &Q) {
    while let Some(_x) = q.pop() {
        b.begin();
        b.commit();
    }
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![]);
    }

    #[test]
    fn txn_let_else_divergence_is_clean() {
        let src = r#"
pub fn run(b: &B, v: Option<u8>) -> Result<(), StoreError> {
    b.begin();
    let Some(x) = v else {
        b.rollback();
        return Err(StoreError::Bad);
    };
    let _n = x;
    b.commit();
    Ok(())
}
"#;
        assert_eq!(fired(src, Rule::TxnLeak), vec![]);
    }

    #[test]
    fn guard_across_channel_recv_fires_at_the_recv() {
        let src = r#"
pub fn pump(s: &S, rx: &R) {
    let g = s.meta.lock();
    let _msg = rx.recv();
    drop(g);
}
"#;
        assert_eq!(fired(src, Rule::GuardAcrossBlocking), vec![(4, 19)]);
    }

    #[test]
    fn guard_held_on_only_one_path_still_fires() {
        let src = r#"
pub fn maybe(s: &S, pool: &P, ok: bool) {
    let g = s.state.lock();
    if ok {
        drop(g);
    }
    pool.try_run(|| {});
}
"#;
        assert_eq!(fired(src, Rule::GuardAcrossBlocking), vec![(7, 10)]);
    }

    #[test]
    fn guard_dropped_on_every_path_is_clean() {
        let src = r#"
pub fn maybe(s: &S, pool: &P, ok: bool) {
    let g = s.state.lock();
    if ok {
        drop(g);
    } else {
        drop(g);
    }
    pool.try_run(|| {});
}
"#;
        assert_eq!(fired(src, Rule::GuardAcrossBlocking), vec![]);
    }

    #[test]
    fn guard_across_wal_commit_fires() {
        let src = r#"
pub fn flush(s: &S, b: &B) {
    let g = s.state.lock();
    b.commit();
    drop(g);
}
"#;
        assert_eq!(fired(src, Rule::GuardAcrossBlocking), vec![(4, 7)]);
        // `commit()` without a `begin()` is the caller's transaction —
        // no leak reported here.
        assert_eq!(fired(src, Rule::TxnLeak), vec![]);
    }

    #[test]
    fn substrate_policy_skips_guard_rule() {
        let src = r#"
pub fn flush(s: &S, b: &B) {
    let g = s.state.lock();
    b.commit();
    drop(g);
}
"#;
        let f = scan_file("x.rs", src, FilePolicy { substrate: true, ..FilePolicy::default() });
        assert!(f.iter().all(|f| f.rule != Rule::GuardAcrossBlocking));
    }

    #[test]
    fn loop_with_an_unpolled_continue_path_fires() {
        let src = r#"
pub fn worker(pool: &P, t: &T, flag: bool) {
    pool.try_run_cancellable(|| {}, t);
    let mut i = 0;
    while i < 10 {
        if flag {
            i += 2;
            continue;
        }
        t.poll_cancellable();
        i += 1;
    }
}
"#;
        assert_eq!(fired(src, Rule::LoopCancelPoll), vec![(5, 5)]);
    }

    #[test]
    fn loop_polling_through_a_helper_is_clean() {
        let src = r#"
fn poll_budget(t: &T) -> bool {
    t.is_cancelled()
}
pub fn worker(pool: &P, t: &T) {
    pool.try_run_cancellable(|| {}, t);
    loop {
        if poll_budget(t) {
            break;
        }
    }
}
"#;
        assert_eq!(fired(src, Rule::LoopCancelPoll), vec![]);
    }

    #[test]
    fn loop_in_undispatched_function_is_exempt() {
        let src = r#"
pub fn local_spin(mut n: u8) -> u8 {
    while n < 10 {
        n += 1;
    }
    n
}
"#;
        assert_eq!(fired(src, Rule::LoopCancelPoll), vec![]);
    }
}
