//! Intraprocedural control flow + dataflow: the engine behind the
//! path-sensitive rules L10 `txn-leak`, L11 `guard-across-blocking`,
//! and L12 `loop-cancel-poll`.
//!
//! [`build`] parses one function body — over the [`crate::lexer`]
//! token stream — into basic blocks with edges for `if`/`else if`/
//! `else`, `if let`/`while let`/`let-else`, `match` arms, the three
//! loop forms, `return`, `break`/`continue`, and `?`-propagation.
//! Every occurrence any concurrency rule cares about (transaction
//! begin/commit/rollback, lock acquisition and `drop`, blocking calls,
//! pool dispatches, cancellation polls, call sites, function exits)
//! becomes an [`Event`] in lexical order inside its block, anchored at
//! byte offsets so a CFG stored in a [`crate::summary::FileSummary`]
//! stands alone — no token stream needed at link time. The builder's
//! `scan_events` is the *only* recognizer of these occurrences: the
//! path-sensitive rules walk the blocks, while L6/L7 and the link
//! phase read the same events flattened into source order
//! ([`Cfg::stream`]). The blocking / dispatch / poll words live in one
//! table ([`VOCAB`]).
//!
//! Call sites become [`Event::Call`] placeholders; the link phase
//! ([`crate::interproc`]) resolves each against the workspace call
//! graph and rewrites it via [`resolve_calls`] into the `Poll` and/or
//! `Blocking` events its callee's effect summary implies — that is
//! how a guard held across a call into another crate's fsync path
//! gets caught.
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

use crate::lexer::{
    enclosing_block_end, ident_at, is_ident, is_punct, stmt_end, stmt_start, Tok, TokKind,
};
use crate::rules::{FileCtx, Finding, Rule};
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
    /// `lock.lock()` / `.write()` (exclusive) or `.read()` (shared).
    /// Lock identity is the receiver field/binding name, so two
    /// instances of one type share a node. `off` anchors the receiver,
    /// `call_off` the method; the guard is held through `until_off`:
    /// the `}` closing the enclosing block when `let`-bound, the
    /// statement end for temporaries (including `let _ =`). `binding`
    /// is the name a `let` gave the guard — only named guards can be
    /// `drop`ped, so only they are tracked path-sensitively (L11).
    Acquire {
        lock: String,
        binding: Option<String>,
        exclusive: bool,
        off: usize,
        call_off: usize,
        until_off: usize,
    },
    /// `drop(g)`.
    DropGuard { binding: String },
    /// A call that can stall other threads or outlive a deadline:
    /// pool dispatch, `thread::sleep`, channel `recv`, fsync barrier,
    /// WAL commit — or, after [`resolve_calls`], a call whose effect
    /// summary says it may transitively block. `desc` backticks its
    /// code part; L7 prints it without them.
    Blocking { desc: String, off: usize, class: Stall },
    /// A cancellation poll: `is_cancelled` / `poll_cancellable` /
    /// `sleep_cancellable`, or (after [`resolve_calls`]) a call to a
    /// workspace function that transitively polls.
    Poll,
    /// An unresolved call site — `.method()`, bare `f()`, or
    /// path-qualified `a::b::f()` (leading segments in `qual`): judged
    /// at link time against the callee's effect summary, then
    /// rewritten by [`resolve_calls`].
    Call { name: String, qual: Vec<String>, method: bool, off: usize },
    /// `?` — an Err early exit out of the function.
    Question { off: usize },
    /// `return`.
    Ret { off: usize },
    /// Falling off the end of the function body.
    EndOfFn,
}

/// What kind of stall a [`Event::Blocking`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stall {
    /// A raw wait no deadline can interrupt — `thread::sleep`, channel
    /// `recv` / `recv_timeout`: the narrow vocabulary L7 forbids
    /// inside pool-dispatched work.
    Raw,
    /// A pool dispatch; `cancellable` ones hand the task a
    /// `CancelToken`, so only their paths owe L12 a poll per iteration.
    Dispatch { cancellable: bool },
    /// Everything else that stalls other threads: fsync barriers, WAL
    /// commits, `sleep_cancellable`, calls that may block.
    Barrier,
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
    /// The function's effect stream: every lock acquisition, blocking
    /// site and call site in source order — the flat view L6, L7 and
    /// the link phase read.
    pub(crate) fn stream(&self) -> Vec<&Event> {
        let mut sited: Vec<(usize, &Event)> = self
            .blocks
            .iter()
            .flat_map(|b| &b.events)
            .filter_map(|e| match e {
                Event::Acquire { off, .. }
                | Event::Blocking { off, .. }
                | Event::Call { off, .. } => Some((*off, e)),
                _ => None,
            })
            .collect();
        sited.sort_by_key(|(off, _)| *off);
        sited.into_iter().map(|(_, e)| e).collect()
    }

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
    mut verdict: impl FnMut(&str, usize) -> CallVerdict,
) -> Cfg {
    let blocks = cfg
        .blocks
        .iter()
        .map(|b| {
            let mut events = Vec::with_capacity(b.events.len());
            for ev in &b.events {
                if let Event::Call { name, off, .. } = ev {
                    let v = verdict(name, *off);
                    if v.polls {
                        events.push(Event::Poll);
                    }
                    if let Some(desc) = v.block {
                        events.push(Event::Blocking { desc, off: *off, class: Stall::Barrier });
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
    /// block `cur`. A call-shaped token can be several things at once
    /// — `x.commit()` is a blocking barrier, a call into the
    /// workspace's `commit`, and the end of a transaction — and yields
    /// its events in that order: vocabulary, call site, structure.
    fn scan_events(&mut self, cur: usize, lo: usize, hi: usize) {
        let ctx = self.ctx;
        let toks = ctx.toks;
        let events = &mut self.blocks[cur].events;
        for i in lo..hi.min(toks.len()) {
            if is_punct(toks, i, b'?') {
                let ev = Event::Question { off: toks[i].off };
                match events.last() {
                    // `begin()?`: the Err path never opened a
                    // transaction — order the exit before the open.
                    Some(Event::Begin { close, .. }) if i >= 1 && toks[i - 1].off == *close => {
                        events.insert(events.len() - 1, ev);
                    }
                    _ => events.push(ev),
                }
                continue;
            }
            let Some(name) = ident_at(toks, i) else { continue };
            let off = toks[i].off;
            let dotted = i >= 1 && is_punct(toks, i - 1, b'.');
            let called = is_punct(toks, i + 1, b'(');
            let empty_args = called && is_punct(toks, i + 2, b')');
            let mut dispatch = false;

            let word = VOCAB.iter().find(|w| {
                w.name == name
                    && match w.shape {
                        Shape::Method => dotted && called,
                        Shape::MethodNoArgs => dotted && empty_args,
                        Shape::Any => called,
                    }
            });
            if let Some(word) = word {
                if word.polls {
                    events.push(Event::Poll);
                }
                if let Some((class, what)) = word.stall {
                    dispatch = matches!(class, Stall::Dispatch { .. });
                    events.push(Event::Blocking { desc: format!("{what}`{name}()`"), off, class });
                }
            } else if dotted
                && called
                && name == "run"
                && receiver_name(toks, i - 1).is_some_and(|r| r.to_lowercase().contains("pool"))
            {
                // `.run(..)` is a dispatch only on a pool-ish receiver
                // — `chain.run(..)` and friends are ordinary calls.
                dispatch = true;
                events.push(Event::Blocking {
                    desc: "the pool dispatch `run()`".to_string(),
                    off,
                    class: Stall::Dispatch { cancellable: false },
                });
            } else if called {
                // `thread::sleep(..)` through a module path or alias,
                // or a `use`-imported (possibly renamed) bare `sleep`.
                let path_call =
                    i >= 3 && is_punct(toks, i - 1, b':') && is_punct(toks, i - 2, b':');
                let via_path = name == "sleep"
                    && path_call
                    && ident_at(toks, i - 3).is_some_and(|seg| {
                        seg == "thread" || ctx.aliases.resolves_to(seg, &["std", "thread"])
                    });
                let via_use = !path_call
                    && !dotted
                    && ctx.aliases.resolves_to(name, &["std", "thread", "sleep"]);
                if via_path || via_use {
                    events.push(Event::Blocking {
                        desc: "`std::thread::sleep`".to_string(),
                        off: if via_path { toks[i - 3].off } else { off },
                        class: Stall::Raw,
                    });
                }
            }

            // The dispatch method itself is not an ordinary call: its
            // internals belong to the substrate.
            if !dispatch {
                if let Some((qual, method)) = call_shape_at(toks, i) {
                    events.push(Event::Call { name: name.to_string(), qual, method, off });
                }
            }

            match name {
                "begin" if dotted && empty_args => events.push(Event::Begin {
                    recv: recv_name(toks, i),
                    off: toks[recv_anchor(toks, i)].off,
                    close: toks[i + 2].off,
                }),
                // A WAL commit closes the transaction whether or not
                // the fsync succeeds.
                "commit" | "rollback" if dotted && empty_args => {
                    events.push(Event::TxnEnd { recv: recv_name(toks, i) });
                }
                "lock" | "read" | "write" if dotted && empty_args => {
                    let Some(lock) = i.checked_sub(2).and_then(|r| ident_at(toks, r)) else {
                        continue;
                    };
                    let s = stmt_start(toks, i);
                    let is_let = is_ident(toks, s, "let");
                    let b = if is_ident(toks, s + 1, "mut") { s + 2 } else { s + 1 };
                    let binding = ident_at(toks, b).filter(|n| {
                        is_let
                            && *n != "_"
                            && (is_punct(toks, b + 1, b'=') || is_punct(toks, b + 1, b':'))
                    });
                    let let_bound =
                        is_let && !(is_ident(toks, s + 1, "_") && is_punct(toks, s + 2, b'='));
                    let until =
                        if let_bound { enclosing_block_end(toks, i) } else { stmt_end(toks, i) };
                    events.push(Event::Acquire {
                        lock: lock.to_string(),
                        binding: binding.map(str::to_string),
                        exclusive: name != "read",
                        off: toks[i - 2].off,
                        call_off: off,
                        until_off: toks[until].off,
                    });
                }
                "drop" if !dotted && called && is_punct(toks, i + 3, b')') => {
                    if let Some(binding) = ident_at(toks, i + 2) {
                        events.push(Event::DropGuard { binding: binding.to_string() });
                    }
                }
                _ => {}
            }
        }
    }
}

/// How a [`VOCAB`] word must be written to count.
#[derive(Clone, Copy)]
enum Shape {
    /// `.name(..)`
    Method,
    /// `.name()`
    MethodNoArgs,
    /// `name(..)`, however it is reached
    Any,
}

/// One word of the blocking / dispatch / poll vocabulary: how it must
/// be written, whether it polls the `CancelToken`, and how it stalls
/// (the class plus the words in front of `` `name()` `` in
/// diagnostics).
struct Word {
    name: &'static str,
    shape: Shape,
    polls: bool,
    stall: Option<(Stall, &'static str)>,
}

const fn word(
    name: &'static str,
    shape: Shape,
    polls: bool,
    stall: Option<(Stall, &'static str)>,
) -> Word {
    Word { name, shape, polls, stall }
}

/// The vocabulary. `thread::sleep` (alias-aware) and `.run(..)` on a
/// pool receiver are recognized structurally in `scan_events`.
const VOCAB: [Word; 10] = {
    const DISPATCH: &str = "the pool dispatch ";
    const FSYNC: &str = "the fsync barrier ";
    [
        word("is_cancelled", Shape::Any, true, None),
        word("poll_cancellable", Shape::Any, true, None),
        word("sleep_cancellable", Shape::Method, true, Some((Stall::Barrier, ""))),
        word("commit", Shape::MethodNoArgs, false, Some((Stall::Barrier, "the WAL commit "))),
        word("sync_all", Shape::MethodNoArgs, false, Some((Stall::Barrier, FSYNC))),
        word("sync_data", Shape::MethodNoArgs, false, Some((Stall::Barrier, FSYNC))),
        word("recv", Shape::MethodNoArgs, false, Some((Stall::Raw, "channel "))),
        word("recv_timeout", Shape::Method, false, Some((Stall::Raw, "channel "))),
        word("try_run", Shape::Method, false, Some((Stall::Dispatch { cancellable: false }, DISPATCH))),
        word(
            "try_run_cancellable",
            Shape::Method,
            false,
            Some((Stall::Dispatch { cancellable: true }, DISPATCH)),
        ),
    ]
};

/// The shape of a call site at token `i`, as `(qual, method)`:
/// `.method()`, bare `f()`, or path-qualified `a::b::f()` (leading
/// segments in `qual`). `Type::assoc()` calls and uppercase names
/// (tuple-struct / enum constructors) are skipped — they never
/// resolve to workspace `fn` items (constructors like `new` collide
/// across modules) — and so are the lock methods, which
/// [`Event::Acquire`] covers.
fn call_shape_at(toks: &[Tok<'_>], i: usize) -> Option<(Vec<String>, bool)> {
    let name = ident_at(toks, i)?;
    if !is_punct(toks, i + 1, b'(') || matches!(name, "lock" | "read" | "write") {
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
        return Some((Vec::new(), true));
    }
    let mut qual: Vec<String> = Vec::new();
    let mut j = i;
    while j >= 3 && is_punct(toks, j - 1, b':') && is_punct(toks, j - 2, b':') {
        // `<T as Trait>::f()` is not resolvable from tokens.
        qual.push(ident_at(toks, j - 3)?.to_string());
        j -= 3;
    }
    qual.reverse();
    if qual.iter().any(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase())) {
        return None; // `Type::assoc()`
    }
    Some((qual, false))
}

/// The name the receiver expression of `.method()` ends with: the
/// ident just before the `.`, or the call name for `f(..).method()`.
fn receiver_name<'a>(toks: &[Tok<'a>], dot: usize) -> Option<&'a str> {
    if let Some(r) = ident_at(toks, dot.checked_sub(1)?) {
        return Some(r);
    }
    if !is_punct(toks, dot - 1, b')') {
        return None;
    }
    let mut depth = 0i32;
    let mut k = dot - 1;
    loop {
        if is_punct(toks, k, b')') {
            depth += 1;
        } else if is_punct(toks, k, b'(') {
            depth -= 1;
            if depth == 0 {
                return ident_at(toks, k.checked_sub(1)?);
            }
        }
        k = k.checked_sub(1)?;
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

/// Worklist iteration to fixpoint over may-facts (`name → V`, union
/// join: present on *any* path in counts). `step` applies one event
/// to a fact; `survives` filters what an out fact carries along an
/// edge (it receives the edge kind and the successor block, so a rule
/// can drop what dies on a back edge). The first value to reach a
/// name wins, so facts only grow and the iteration terminates.
fn forward_fixpoint<V: Clone>(
    cfg: &Cfg,
    step: impl Fn(&mut BTreeMap<String, V>, &Event),
    survives: impl Fn(&V, bool, &Block) -> bool,
) -> Vec<BTreeMap<String, V>> {
    let n = cfg.blocks.len();
    let mut ins: Vec<BTreeMap<String, V>> = vec![BTreeMap::new(); n];
    let mut work: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let mut out = ins[b].clone();
        cfg.blocks[b].events.iter().for_each(|ev| step(&mut out, ev));
        for &(t, back) in &cfg.blocks[b].succs {
            let before = ins[t].len();
            for (name, v) in &out {
                if survives(v, back, &cfg.blocks[t]) && !ins[t].contains_key(name) {
                    ins[t].insert(name.clone(), v.clone());
                }
            }
            if ins[t].len() > before && !queued[t] {
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

fn txn_step(f: &mut TxnFact, ev: &Event) {
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

pub(crate) fn check_txn_leak(sum: &FileSummary, cfg: &Cfg, diag: &mut Vec<Finding>) {
    if !cfg
        .blocks
        .iter()
        .any(|b| b.events.iter().any(|e| matches!(e, Event::Begin { .. })))
    {
        return;
    }
    let ins = forward_fixpoint(cfg, txn_step, |_, _, _| true);
    // Replay each block's events over its in fact; report the first
    // leaking exit per begin site.
    let mut leaks: BTreeMap<usize, (String, String)> = BTreeMap::new();
    let line = |off: &usize| sum.idx.line_col(*off).0;
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut f = ins[b].clone();
        for ev in &block.events {
            txn_step(&mut f, ev);
            let exit = match ev {
                Event::Question { off } => format!("the `?` on line {}", line(off)),
                Event::Ret { off } => format!("the `return` on line {}", line(off)),
                Event::EndOfFn => "falling off the end of the function".to_string(),
                _ => continue,
            };
            for (recv, &site) in &f {
                leaks.entry(site).or_insert_with(|| (recv.clone(), exit.clone()));
            }
        }
    }
    for (site, (recv, exit)) in leaks {
        diag.push(sum.finding(site, Rule::TxnLeak, format!(
            "`{recv}.begin()` opens a transaction that is still open when the function exits through {exit}: commit or roll back on every path (debug builds enforce this with TxnWitness)"
        )));
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

/// Apply one event to the live-guard fact. Only exclusive guards a
/// `let` named are tracked: shared `.read()` guards are exempt — L11
/// targets guards that stall every other thread — and temporaries die
/// with their statement.
fn guard_step(f: &mut GuardFact, ev: &Event) {
    match ev {
        Event::Acquire { lock, binding: Some(b), exclusive: true, call_off, until_off, .. } => {
            f.insert(b.clone(), Held { lock: lock.clone(), off: *call_off, scope_end: *until_off });
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

pub(crate) fn check_guard_blocking(sum: &FileSummary, cfg: &Cfg, diag: &mut Vec<Finding>) {
    if !cfg
        .blocks
        .iter()
        .any(|b| b.events.iter().any(|e| matches!(e, Event::Acquire { binding: Some(_), .. })))
    {
        return;
    }
    // A guard acquired inside a loop body died when the body's
    // iteration ended — it does not survive the back edge into the head.
    let ins = forward_fixpoint(cfg, guard_step, |g: &Held, back, target| {
        !(back && target.head.is_some_and(|(kw_off, _)| g.off > kw_off))
    });
    let mut reported: BTreeSet<(usize, String)> = BTreeSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut f = ins[b].clone();
        for ev in &block.events {
            guard_step(&mut f, ev);
            if let Event::Blocking { desc, off, .. } = ev {
                for (binding, g) in &f {
                    if reported.insert((*off, binding.clone())) {
                        let (line, _) = sum.idx.line_col(g.off);
                        diag.push(sum.finding(*off, Rule::GuardAcrossBlocking, format!(
                            "exclusive guard `{binding}` on `{}` (acquired on line {line}) is still held across {desc}: drop or scope the guard before blocking",
                            g.lock
                        )));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// L12 loop-cancel-poll
// ---------------------------------------------------------------

pub(crate) fn has_poll(block: &Block) -> bool {
    block.events.iter().any(|e| matches!(e, Event::Poll))
}

/// For every `loop`/`while` head: must-analysis over the natural loop
/// body — does *every* iteration path from the head back to it cross
/// a cancellation poll? (`for` loops iterate finite morsel sets and
/// are exempt; unbounded spinning lives in `loop`/`while`.)
pub(crate) fn check_loop_polls(
    sum: &FileSummary,
    cfg: &Cfg,
    fn_name: &str,
    entry: &str,
    diag: &mut Vec<Finding>,
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
            diag.push(sum.finding(kw_off, Rule::LoopCancelPoll, format!(
                "`{kw}` loop in `{fn_name}` runs on a pool-dispatched path (via `{entry}`) but has an iteration path that never polls the CancelToken: call is_cancelled / poll_cancellable / sleep_cancellable on every iteration"
            )));
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
    fn call_shapes_cover_bare_method_and_qualified() {
        let toks = crate::lexer::lex("fn f() { g(); h.m(); a::b::c(); Vec::new(); x.lock(); }");
        let shapes: Vec<(&str, Vec<String>, bool)> = (0..toks.len())
            .filter_map(|i| {
                let (qual, method) = super::call_shape_at(&toks, i)?;
                Some((crate::lexer::ident_at(&toks, i)?, qual, method))
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("g", vec![], false),
                ("m", vec![], true),
                ("c", vec!["a".to_string(), "b".to_string()], false),
            ]
        );
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
        let f = scan_file("x.rs", src, FilePolicy { substrate: true });
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
