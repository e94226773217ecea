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
//! gate: a pure-std scanner that masks comments/strings, lexes what
//! remains into a token stream ([`lexer`]), resolves `use` aliases,
//! and runs in two phases. **Summarize** ([`summary`]) is per-file
//! and pure: local token rules plus an effect summary (locks
//! acquired/released, blocking calls, txn begin/commit, `CancelToken`
//! polls, dispatch sites, imports/re-exports) extracted from the
//! token stream and CFG; the scan runs it once per file, serially
//! (a cold pass over the whole workspace is ~1 % of the check.sh
//! budget). **Link** ([`interproc`]) stitches the
//! summaries into one workspace-wide call graph — Tarjan SCCs over
//! the crate-dependency DAG, fixpoint inside cycles, `pub use`
//! re-export chains chased to the defining crate — and runs the
//! interprocedural rules over it, reporting violations as
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
pub mod graph;
pub(crate) mod interproc;
pub mod lexer;
pub mod mask;
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
/// SCC fixpoint runs on every self-test), and every interprocedural
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

/// Run the full analysis over the embedded fixtures and check the
/// findings against the pinned expectations exactly — file, line,
/// column, and rule. Phase one scans the single-file fixture (as its
/// own crate root, so `crate-attrs` participates) against
/// [`FIXTURE_EXPECTED`]; phase two scans the two-crate fixture
/// workspace against [`XCRATE_EXPECTED`], proving each widened rule
/// fires across a crate boundary. Returns human-readable report
/// lines; `Err` lines describe every mismatch.
pub fn run_self_test() -> Result<Vec<String>, Vec<String>> {
    let findings = analyze(&[SourceFile {
        label: "fixtures/violations.rs".to_string(),
        raw: FIXTURE.to_string(),
        crate_name: "fixture".to_string(),
        is_crate_root: true,
        policy: FilePolicy::default(),
    }]);
    let got: Vec<(usize, usize, Rule)> =
        findings.iter().map(|f| (f.line, f.col, f.rule)).collect();
    let expected: Vec<(usize, usize, Rule)> = FIXTURE_EXPECTED.to_vec();
    let mut ok_lines: Vec<String> = Vec::new();
    let mut err_lines: Vec<String> = Vec::new();
    if got == expected {
        ok_lines.extend(findings.iter().map(|f| format!("  fires as expected: {f}")));
        ok_lines.push(format!(
            "self-test OK: {} seeded violations caught at exact line:col, 0 false positives from decoys",
            findings.len()
        ));
    } else {
        err_lines.push("self-test FAILED".to_string());
        for (line, col, rule) in &expected {
            if !got.contains(&(*line, *col, *rule)) {
                err_lines.push(format!(
                    "  missing: fixture {line}:{col} rule {}",
                    rule.name()
                ));
            }
        }
        for f in &findings {
            if !expected.contains(&(f.line, f.col, f.rule)) {
                err_lines.push(format!("  unexpected: {f}"));
            }
        }
    }

    // Phase two: the cross-crate fixture workspace.
    let xfindings = analyze(&[
        SourceFile {
            label: "fixtures/xcrate_alpha.rs".to_string(),
            raw: XCRATE_ALPHA.to_string(),
            crate_name: "fix_alpha".to_string(),
            is_crate_root: false,
            policy: FilePolicy::default(),
        },
        SourceFile {
            label: "fixtures/xcrate_beta.rs".to_string(),
            raw: XCRATE_BETA.to_string(),
            crate_name: "fix_beta".to_string(),
            is_crate_root: false,
            policy: FilePolicy::default(),
        },
    ]);
    let xgot: Vec<(&str, usize, usize, Rule)> = xfindings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.col, f.rule))
        .collect();
    let xexpected: Vec<(&str, usize, usize, Rule)> = XCRATE_EXPECTED.to_vec();
    if xgot == xexpected {
        ok_lines.extend(xfindings.iter().map(|f| format!("  fires as expected: {f}")));
        ok_lines.push(format!(
            "self-test phase 2 OK: {} cross-crate violations caught at exact file:line:col, 0 false positives from decoys",
            xfindings.len()
        ));
    } else {
        if err_lines.is_empty() {
            err_lines.push("self-test FAILED".to_string());
        }
        for (path, line, col, rule) in &xexpected {
            if !xgot.contains(&(*path, *line, *col, *rule)) {
                err_lines.push(format!(
                    "  missing: {path} {line}:{col} rule {}",
                    rule.name()
                ));
            }
        }
        for f in &xfindings {
            if !xexpected.contains(&(f.path.as_str(), f.line, f.col, f.rule)) {
                err_lines.push(format!("  unexpected: {f}"));
            }
        }
    }

    if err_lines.is_empty() {
        Ok(ok_lines)
    } else {
        Err(err_lines)
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
