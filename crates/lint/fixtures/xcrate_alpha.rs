//! Cross-crate seeds, crate `fix_alpha` — one half of the self-test's
//! two-crate fixture workspace (the other half is `xcrate_beta.rs`,
//! crate `fix_beta`). Every interprocedural rule must fire across the
//! crate boundary at the exact positions pinned in `XCRATE_EXPECTED`,
//! and none of the decoys may fire. The two crates deliberately
//! depend on each other, so the linker's SCC fixpoint is exercised on
//! every self-test run.

use fix_beta::*;

pub struct AlphaShared {
    pub ingest: std::sync::Mutex<u8>,
    pub state: std::sync::Mutex<u8>,
}

// ---- L6: lock-order cycle spanning both crates ----
// This crate contributes the ingest -> catalog edge (catalog is
// acquired inside the call into fix_beta); fix_beta closes the cycle.

pub fn alpha_ingest_then_catalog(s: &AlphaShared) {
    let g = s.ingest.lock();
    fix_beta::catalog_update(s);
    drop(g);
}

pub fn alpha_take_ingest(s: &AlphaShared) {
    let g = s.ingest.lock();
    drop(g);
}

// ---- L7: dispatch reaching raw blocking in the other crate ----

pub fn alpha_dispatch_direct(pool: &AlphaPool) {
    pool.try_run(|| {});
    fix_beta::beta_backoff();
}

// The re-export chain: `fix_beta::relay_stall` is a `pub use` of
// `fix_alpha::alpha_stall`, so the blocking site is back in this
// crate even though resolution went through fix_beta.

pub fn alpha_dispatch_reexported(pool: &AlphaPool, rx: &AlphaRx) {
    pool.try_run(|| {});
    fix_beta::relay_stall(rx);
}

pub fn alpha_stall(rx: &AlphaRx) {
    let _m = rx.recv();
}

// The glob import: `beta_glob_stall` arrives bare through the
// `use fix_beta::*` at the top of this file.

pub fn alpha_dispatch_glob(pool: &AlphaPool) {
    pool.try_run(|| {});
    beta_glob_stall();
}

// ---- L11: guard held across a call that blocks in fix_beta ----

pub fn alpha_hold_guard_across_sync(s: &AlphaShared, f: &BetaFile) {
    let g = s.state.lock();
    fix_beta::beta_sync(f);
    drop(g);
}

// ---- L12: cancellable-dispatched loop, no poll on its path ----

pub fn alpha_cancellable_worker(pool: &AlphaPool, token: &AlphaToken, flag: &AlphaFlag) {
    pool.try_run_cancellable(|| {}, token);
    while !flag.is_done() {
        fix_beta::beta_churn();
    }
}

// Decoy: the loop polls — but the poll credit arrives through
// fix_beta, which bounces back into this crate (`alpha_poll_gate`),
// completing a crate-dependency cycle the SCC fixpoint must resolve.

pub fn decoy_alpha_worker_polls(pool: &AlphaPool, token: &AlphaToken, flag: &AlphaFlag) {
    pool.try_run_cancellable(|| {}, token);
    while !flag.is_done() {
        if fix_beta::beta_poll(token) {
            break;
        }
    }
}

pub fn alpha_poll_gate(token: &AlphaToken) -> bool {
    token.is_cancelled()
}

// Decoy: `take` is imported from std, so the workspace fn of the
// same name in fix_beta (which blocks on recv) must NOT resolve —
// std imports are exclusive.

use std::mem::take;

pub fn decoy_alpha_std_import(pool: &AlphaPool, v: &mut Vec<u8>) {
    pool.try_run(|| {});
    let _v = take(v);
}
