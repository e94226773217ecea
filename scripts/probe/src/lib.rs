//! Seeded violations of the workspace invariants. //~ crate-attrs
//! `scripts/check.sh` runs its invariant lint list and its structural
//! greps over this crate and requires exactly the findings marked
//! `//~ <check>` on their lines: every marked line fires, nothing
//! unmarked does — not the `#[cfg(test)]` decoys, not the fulfilled
//! `#[expect]`, not the complete error type. (This crate root carries
//! no `#![forbid(unsafe_code)]`: the mark on line 1.)

use std::thread as t;

// ---- OS threads belong to teleios-exec ----

pub fn thread_spawn() {
    std::thread::spawn(|| {}); //~ clippy::disallowed_methods
}

pub fn aliased_spawn() {
    t::spawn(|| {}); //~ clippy::disallowed_methods
}

pub fn thread_builder() -> std::io::Result<t::JoinHandle<()>> {
    std::thread::Builder::new().spawn(|| {}) //~ clippy::disallowed_types
}

pub fn thread_scope() {
    std::thread::scope(|_| {}) //~ clippy::disallowed_methods
}

// ---- no panics in library code ----

pub fn unwraps(v: Option<u8>) -> u8 {
    v.unwrap() //~ clippy::unwrap_used
}

pub fn expects(v: Option<u8>) -> u8 {
    v.expect("present") //~ clippy::expect_used
}

pub fn panics() {
    panic!("boom"); //~ clippy::panic
}

pub fn todos() {
    todo!(); //~ clippy::todo
}

pub fn unimplementeds() {
    unimplemented!(); //~ clippy::unimplemented
}

// ---- no prints in library code ----

pub fn prints() {
    println!("tables go through the caller"); //~ clippy::print_stdout
}

pub fn eprints() {
    eprintln!("so do diagnostics"); //~ clippy::print_stderr
}

// ---- no discarded Results ----

pub fn fallible() -> Result<u8, String> {
    Err("broken".to_string())
}

pub fn let_underscore() {
    let _ = fallible(); //~ clippy::let_underscore_must_use
}

pub fn ok_discard() {
    fallible().ok(); //~ clippy::unused_result_ok
}

// ---- the filesystem belongs to teleios-store's Medium ----

pub fn fs_write(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, b"bytes") //~ clippy::disallowed_methods
}

pub fn open_options(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new().append(true).open(path) //~ clippy::disallowed_types
}

// ---- waivers: a fulfilled expectation is silent, a stale one fires ----

#[expect(clippy::panic, reason = "a deliberate site names its reason")]
pub fn fulfilled_expect() {
    panic!("expected");
}

#[expect(clippy::print_stdout, reason = "stale: nothing below prints")] //~ unfulfilled_lint_expectations
pub fn stale_expect() -> u8 {
    3
}

// ---- public error enums are real errors (structural grep) ----

pub enum ProbeError { //~ error-impls
    Broken,
}

#[derive(Debug)]
pub enum CoveredError {
    Known,
}

impl std::fmt::Display for CoveredError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "known failure")
    }
}

impl std::error::Error for CoveredError {}

// ---- tests are exempt by construction (`--lib` never sets cfg(test)) ----

#[cfg(test)]
mod tests {
    pub fn decoy() {
        let _ = super::fallible();
        std::thread::spawn(|| println!("{}", Some(1).unwrap()));
        std::fs::write("/dev/null", b"").ok();
    }

    pub enum TestOnlyError {
        Decoy,
    }
}
