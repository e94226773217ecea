#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # teleios-lint — the workspace invariant checker
//!
//! The TELEIOS crates rely on a handful of architectural invariants
//! that ordinary compilation cannot enforce: all parallelism flows
//! through `teleios-exec`, library code never panics or prints, every
//! public error enum is a real `std::error::Error`, atomics stay
//! sequentially consistent outside the substrate (so the
//! `teleios-loom` model checker's SeqCst model stays faithful), locks
//! are acquired in one global order, and pool-dispatched work stays
//! cancellable. This crate turns those conventions into a mechanical
//! gate: a pure-std scanner in four stages. **Lex** ([`lexer`]): one
//! pass over the raw source yields the token stream — comments and
//! string/char literals skipped, `//` comment spans kept for the
//! allow markers — and resolves `use` aliases. **Events** (`cfg`):
//! each function body becomes a control-flow graph whose blocks hold
//! its event stream — locks acquired, blocking calls, pool dispatches,
//! `CancelToken` polls, txn begin/commit, call sites — recognized in
//! one place. **Summarize** ([`summary`]) is per-file and pure: the
//! local token rules plus those per-function CFGs and the file's
//! imports/re-exports; the scan runs it once per file, serially (a
//! cold pass over the whole workspace is a few percent of the
//! check.sh budget). **Link** (`interproc`) resolves every call site
//! once into a workspace-wide call graph — `pub use` re-export chains
//! chased to the defining crate — closes the cross-crate facts over it
//! with one worklist fixpoint (crate-dependency cycles included), and
//! runs the interprocedural rules, reporting violations as
//! `path:line:col` diagnostics.
//!
//! Rules (stable names usable in `// teleios-lint: allow(<name>)`):
//!
//! | rule               | invariant                                             |
//! |--------------------|-------------------------------------------------------|
//! | `no-thread-spawn`  | L1: no `std::thread::{spawn, Builder}` outside the substrate crates — aliases included |
//! | `no-panic`         | L2: no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | `no-println`       | L3: no `println!`/`eprintln!` in library code          |
//! | `error-impls`      | L4: public `*Error` enums implement `Display` + `Error` |
//! | `no-relaxed`       | L5: no `Ordering::Relaxed` outside `crates/exec` — aliases included |
//! | `crate-attrs`      | crate roots carry `forbid(unsafe_code)` + clippy denies |
//! | `lock-order`       | L6: the workspace-wide lock-acquisition graph is acyclic — cycles may span crates |
//! | `cancel-safety`    | L7: pool-dispatched closures block only through `sleep_cancellable` / `poll_cancellable` — call chains followed across crate boundaries |
//! | `swallowed-result` | L8: no `let _ =` / `.ok()` discarding a workspace `*Error` Result — nor a `flush`/`sync_all`/`sync_data` barrier's result |
//! | `no-direct-fs`     | L9: no direct `std::fs` mutation / `File::create` / `OpenOptions` outside `crates/store` — disk goes through the storage `Medium` |
//! | `txn-leak`         | L10: every `begin()` reaches `commit()`/`rollback()` on every path out of the function, `?`-exits included (path-sensitive, `cfg.rs`) |
//! | `guard-across-blocking` | L11: no exclusive lock guard live across pool dispatch, `sleep_cancellable`, an fsync barrier, or a WAL commit |
//! | `loop-cancel-poll` | L12: `loop`/`while` on a pool-dispatched path polls the `CancelToken` on every iteration path |
//! | `unused-allow`     | warning: an allow marker that suppresses nothing       |
//!
//! Exemptions are structural, not ad-hoc: `crates/exec` and
//! `crates/loom` may own threads, relaxed atomics, and raw blocking
//! waits (L1/L5/L7); binary, bench, and example targets may print and
//! fail fast (L2/L3) since a driver aborting on a setup error is
//! correct behavior; `crates/store` — the storage engine whose
//! `Medium` is everyone else's doorway to disk — may mutate the
//! filesystem (L9); `#[cfg(test)]` code may do all of the above.
//! Deliberate single-site exceptions in library code take a
//! `// teleios-lint: allow(<rule>)` marker on the same line or the
//! line above — and a marker that stops matching anything is itself
//! reported (`unused-allow`), so stale waivers can't accumulate.

pub(crate) mod cfg;
pub(crate) mod interproc;
pub mod lexer;
pub mod render;
pub mod rules;
pub mod summary;
pub mod workspace;

pub use rules::{analyze, scan_file, FilePolicy, Finding, Rule, SourceFile};
pub use workspace::{find_workspace_root, scan_workspace, ScanStats};

/// The seeded-violation fixture used by the self-test.
pub const FIXTURE: &str = include_str!("../fixtures/violations.rs");

/// The two-crate fixture workspace used by self-test phase two:
/// `fix_alpha` and `fix_beta` depend on each other (so the linker's
/// fixpoint crosses a crate cycle on every self-test), and every
/// interprocedural
/// rule has a seeded violation that only exists across the crate
/// boundary.
pub const XCRATE_ALPHA: &str = include_str!("../fixtures/xcrate_alpha.rs");
/// See [`XCRATE_ALPHA`].
pub const XCRATE_BETA: &str = include_str!("../fixtures/xcrate_beta.rs");

/// Exactly the findings the cross-crate fixture workspace must
/// produce, in sorted order: `(path, line, col, rule)`. Each entry is
/// a violation that no per-crate analysis could see — the acquire,
/// the blocking call, or the poll credit lives in the other crate.
pub const XCRATE_EXPECTED: &[(&str, usize, usize, Rule)] = &[
    // The lock cycle: ingest -> catalog lives in fix_alpha, catalog
    // -> ingest in fix_beta; anchored where the cycle's first edge
    // (BTreeMap order) acquires its second lock.
    ("fixtures/xcrate_alpha.rs", 27, 15, Rule::LockOrder),
    // `pub use` chain: the dispatcher calls fix_beta::relay_stall,
    // which re-exports fix_alpha::alpha_stall — the recv() is here.
    ("fixtures/xcrate_alpha.rs", 48, 17, Rule::CancelSafety),
    // Guard held across a call whose fix_beta summary says "may
    // block on the fsync barrier".
    ("fixtures/xcrate_alpha.rs", 63, 15, Rule::GuardAcrossBlocking),
    // Cancellable-dispatched loop whose body churns in fix_beta
    // without ever polling.
    ("fixtures/xcrate_alpha.rs", 71, 5, Rule::LoopCancelPoll),
    // Direct cross-crate call into a sleeping helper.
    ("fixtures/xcrate_beta.rs", 26, 10, Rule::CancelSafety),
    // Bare call resolved through `use fix_beta::*`.
    ("fixtures/xcrate_beta.rs", 30, 17, Rule::CancelSafety),
];

/// Exactly the findings the fixture must produce, in sorted order:
/// `(line, col, rule)` — one (or more) per rule, nothing from the
/// decoys. Positions are exact so a drifting fixture can't mask a
/// rule that stopped firing or started firing in the wrong place.
pub const FIXTURE_EXPECTED: &[(usize, usize, Rule)] = &[
    (1, 1, Rule::CrateAttrs),
    (1, 1, Rule::CrateAttrs),
    (6, 1, Rule::ErrorImpls),
    (11, 10, Rule::NoThreadSpawn),
    (15, 7, Rule::NoPanic),
    (19, 5, Rule::NoPanic),
    (23, 5, Rule::NoPrintln),
    (27, 34, Rule::NoRelaxed),
    (81, 5, Rule::NoThreadSpawn),
    (94, 23, Rule::LockOrder),
    (111, 14, Rule::CancelSafety),
    (122, 13, Rule::SwallowedResult),
    (126, 21, Rule::SwallowedResult),
    (138, 5, Rule::UnusedAllow),
    (170, 14, Rule::CancelSafety),
    (175, 33, Rule::NoRelaxed),
    (198, 10, Rule::NoDirectFs),
    (202, 14, Rule::NoDirectFs),
    (206, 14, Rule::NoDirectFs),
    (212, 18, Rule::SwallowedResult),
    (216, 18, Rule::SwallowedResult),
    (250, 5, Rule::TxnLeak),
    (255, 5, Rule::TxnLeak),
    (302, 10, Rule::GuardAcrossBlocking),
    (308, 5, Rule::GuardAcrossBlocking),
    (338, 5, Rule::LoopCancelPoll),
    (344, 5, Rule::LoopCancelPoll),
];

fn fixture_file(label: &str, raw: &str, crate_name: &str, is_crate_root: bool) -> SourceFile {
    SourceFile {
        label: label.to_string(),
        raw: raw.to_string(),
        crate_name: crate_name.to_string(),
        is_crate_root,
        policy: FilePolicy::default(),
    }
}

/// One self-test phase: `files` must produce exactly `expected`, in
/// order. Appends the per-finding lines plus `ok_line` on a match, or
/// one line per missing / unexpected finding.
fn check_phase(
    files: &[SourceFile],
    expected: &[(&str, usize, usize, Rule)],
    ok_line: impl Fn(usize) -> String,
    ok: &mut Vec<String>,
    err: &mut Vec<String>,
) {
    let findings = analyze(files);
    let key = |f: &Finding| (f.path.clone(), f.line, f.col, f.rule);
    let got: Vec<_> = findings.iter().map(key).collect();
    let want: Vec<_> = expected.iter().map(|&(p, l, c, r)| (p.to_string(), l, c, r)).collect();
    if got == want {
        ok.extend(findings.iter().map(|f| format!("  fires as expected: {f}")));
        ok.push(ok_line(findings.len()));
        return;
    }
    for w in want.iter().filter(|w| !got.contains(w)) {
        err.push(format!("  missing: {} {}:{} rule {}", w.0, w.1, w.2, w.3.name()));
    }
    let unexpected = findings.iter().filter(|f| !want.contains(&key(f)));
    err.extend(unexpected.map(|f| format!("  unexpected: {f}")));
}

/// Run the full analysis over the embedded fixtures and check the
/// findings against the pinned expectations exactly — file, line,
/// column, and rule. Phase one scans the single-file fixture (as its
/// own crate root, so `crate-attrs` participates) against
/// [`FIXTURE_EXPECTED`]; phase two scans the two-crate fixture
/// workspace against [`XCRATE_EXPECTED`], proving each widened rule
/// fires across a crate boundary. Returns human-readable report
/// lines; `Err` lines describe every mismatch.
pub fn run_self_test() -> Result<Vec<String>, Vec<String>> {
    let (mut ok, mut err) = (Vec::new(), Vec::new());
    const SINGLE: &str = "fixtures/violations.rs";
    let expected: Vec<_> = FIXTURE_EXPECTED.iter().map(|&(l, c, r)| (SINGLE, l, c, r)).collect();
    check_phase(
        &[fixture_file(SINGLE, FIXTURE, "fixture", true)],
        &expected,
        |n| {
            format!("self-test OK: {n} seeded violations caught at exact line:col, 0 false positives from decoys")
        },
        &mut ok,
        &mut err,
    );
    check_phase(
        &[
            fixture_file("fixtures/xcrate_alpha.rs", XCRATE_ALPHA, "fix_alpha", false),
            fixture_file("fixtures/xcrate_beta.rs", XCRATE_BETA, "fix_beta", false),
        ],
        XCRATE_EXPECTED,
        |n| {
            format!("self-test phase 2 OK: {n} cross-crate violations caught at exact file:line:col, 0 false positives from decoys")
        },
        &mut ok,
        &mut err,
    );
    if err.is_empty() {
        Ok(ok)
    } else {
        err.insert(0, "self-test FAILED".to_string());
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_self_test_passes() {
        let report = run_self_test().expect("fixture findings must match FIXTURE_EXPECTED");
        assert!(report.iter().any(|l| l.contains("self-test OK")));
    }

    #[test]
    fn fixture_covers_every_rule() {
        let rules: std::collections::HashSet<Rule> =
            FIXTURE_EXPECTED.iter().map(|(_, _, r)| *r).collect();
        for rule in [
            Rule::NoThreadSpawn,
            Rule::NoPanic,
            Rule::NoPrintln,
            Rule::ErrorImpls,
            Rule::NoRelaxed,
            Rule::CrateAttrs,
            Rule::LockOrder,
            Rule::CancelSafety,
            Rule::SwallowedResult,
            Rule::NoDirectFs,
            Rule::TxnLeak,
            Rule::GuardAcrossBlocking,
            Rule::LoopCancelPoll,
            Rule::UnusedAllow,
        ] {
            assert!(rules.contains(&rule), "fixture misses {}", rule.name());
        }
    }

    #[test]
    fn fixture_diagnostics_carry_file_and_line() {
        let findings = scan_file("fixtures/violations.rs", FIXTURE, FilePolicy::default());
        for f in findings {
            let rendered = format!("{f}");
            assert!(
                rendered.starts_with(&format!("fixtures/violations.rs:{}:{}:", f.line, f.col)),
                "diagnostic must lead with file:line:col — got {rendered}"
            );
            assert!(f.col >= 1);
        }
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in [
            Rule::NoThreadSpawn,
            Rule::NoPanic,
            Rule::NoPrintln,
            Rule::ErrorImpls,
            Rule::NoRelaxed,
            Rule::CrateAttrs,
            Rule::LockOrder,
            Rule::CancelSafety,
            Rule::SwallowedResult,
            Rule::NoDirectFs,
            Rule::TxnLeak,
            Rule::GuardAcrossBlocking,
            Rule::LoopCancelPoll,
            Rule::UnusedAllow,
        ] {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn only_unused_allow_is_a_warning() {
        assert!(Rule::UnusedAllow.is_warning());
        for rule in [
            Rule::NoThreadSpawn,
            Rule::NoPanic,
            Rule::NoPrintln,
            Rule::ErrorImpls,
            Rule::NoRelaxed,
            Rule::CrateAttrs,
            Rule::LockOrder,
            Rule::CancelSafety,
            Rule::SwallowedResult,
            Rule::NoDirectFs,
            Rule::TxnLeak,
            Rule::GuardAcrossBlocking,
            Rule::LoopCancelPoll,
        ] {
            assert!(!rule.is_warning(), "{} must be an error", rule.name());
        }
    }
}
