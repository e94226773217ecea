#!/usr/bin/env bash
# Pre-merge gate, in three tiers:
#
#   scripts/check.sh --quick   build + tier-1 tests only
#   scripts/check.sh           default gate: the above, plus the
#                              teleios-lint workspace invariants,
#                              the one-fork-site, one-cell-walker,
#                              one-statement-prologue,
#                              one-tokenizer-per-family and
#                              one-vocabulary greps, clippy, the
#                              E6/E11/E14/E16 smoke runs (a
#                              hung-stage or broken-recovery
#                              regression fails this gate instead of
#                              hanging it), and the E0 benchmark's
#                              self-test
#   scripts/check.sh --full    default gate, plus the exhaustive
#                              WAL-truncation recovery sweep and the loom
#                              model-checking suite: exhaustive
#                              interleaving of the exec/cancel races
#                              (first-wins cancel, reason publication,
#                              poll wakeup, the pool's claim counter,
#                              watchdog-registry protocol, lock-order
#                              witness) under `--features loom`,
#                              bounded by a timeout so a scheduler
#                              regression fails rather than wedges
#
# Run from anywhere inside the repo; requires only the Rust toolchain
# (every cargo call is --offline: the workspace has no dependency
# outside itself, and the first check keeps it that way).
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
full=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --full) full=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# A dependency cargo would have to fetch breaks tier-1 wherever there
# is no registry — which is where PRs are built.
echo "==> zero external dependencies"
if awk '/^\[/ { deps = /dependencies\]$/ } deps && /^[A-Za-z0-9_-]+ *(=|\.)/ && !/^teleios-/ { print FILENAME ": " $0; bad = 1 } END { exit !bad }' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "a Cargo.toml names a dependency that is not a teleios-* workspace crate" >&2; exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

if [ "$quick" -eq 1 ]; then
    echo "==> quick checks passed (lint, clippy + E14 smoke skipped)"
    exit 0
fi

# Workspace invariants (thread discipline, no panics in library code,
# error-type contracts, crate-root attributes, lock-order acyclicity,
# cancel-safe pool dispatch, no swallowed workspace Results, plus the
# path-sensitive dataflow rules: txn-leak, guard-across-blocking,
# loop-cancel-poll): see crates/lint. The self-test proves each rule
# still fires at exact positions before the workspace scan is
# trusted; GitHub annotation output lands findings inline on PR diffs
# when CI runs this gate. --strict fails on stale allow markers so
# suppressions can't outlive the code they excused.
echo "==> teleios-lint --self-test"
cargo run --release --offline -p teleios-lint -- --self-test

# The lint is part of the inner loop, so it gets a perf budget of its
# own: a CFG-engine regression that makes the scan crawl should fail
# the gate, not silently tax every future run. The scan measures
# ~0.1 s (EXPERIMENTS.md, "lint link phase"), so the default budget
# fails a ~20x pass-structure regression. Override with
# TELEIOS_LINT_BUDGET_MS for slow CI hardware. On overrun the scan is
# re-run with --timings so the log shows which phase (or rule) blew up.
lint_budget_ms="${TELEIOS_LINT_BUDGET_MS:-2000}"
echo "==> teleios-lint --strict (budget ${lint_budget_ms}ms)"
lint_start_ns=$(date +%s%N)
cargo run --release --offline -q -p teleios-lint -- --strict --format github
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "    lint scan took ${lint_elapsed_ms}ms"
if [ "$lint_elapsed_ms" -gt "$lint_budget_ms" ]; then
    echo "teleios-lint exceeded its ${lint_budget_ms}ms budget (${lint_elapsed_ms}ms); timing breakdown:" >&2
    cargo run --release --offline -q -p teleios-lint -- --strict --format github --timings >/dev/null || true
    exit 1
fi

# The inline-or-parallel fork lives in WorkerPool::morsels_for only: a
# kernel that tests the thread count itself has grown a second body.
echo "==> one fork site (no thread-count tests outside crates/exec)"
if grep -rnE 'threads\(\) *(<= *1|== *1)' crates/*/src --include='*.rs' | grep -v '^crates/exec/'; then
    echo "thread-count test outside crates/exec: route it through WorkerPool::morsels_for" >&2; exit 1
fi

# Rectangular regions of an array are walked by walk_runs in
# monet/array.rs only: an odometer anywhere else is a second cell
# walker, re-linearizing an index per cell.
echo "==> one cell walker (the odometer idiom lives in monet/array.rs)"
if grep -rnE '\[k\] *\+= *1' crates/*/src --include='*.rs' | grep -v '^crates/monet/src/array.rs:'; then
    echo "odometer loop outside crates/monet/src/array.rs: walk the region with NdArray::walk_rows / slice" >&2; exit 1
fi

# Every stSPARQL statement goes through eval::prepare, which builds
# the statement's one Env and is the one place the sidecar catches up;
# store_mut is the one place it is reset. A second `Env {` is a second
# statement prologue; a second reset is a write path that forgot the
# dictionary is append-only.
echo "==> one statement prologue (strabon builds Env once, resets the sidecar once)"
above_tests() {
    for f in crates/strabon/src/*.rs; do awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"; done
}
for idiom in 'Env {' 'spatial.invalidate()'; do
    sites=$(above_tests | grep -cF "$idiom" || true)
    if [ "$sites" -ne 1 ]; then
        echo "\"$idiom\" appears $sites times outside tests under crates/strabon/src, expected 1" >&2; exit 1
    fi
done

# Turtle and stSPARQL read through one tokenizer (rdf/syntax.rs), SQL
# and SciQL through another (monet/sql/lexer.rs): a third `fn tokenize`
# is a second reader of one family's text, and a `.replace(` in the
# SciQL parser is a text rewrite that moves error positions off the
# text the user wrote.
echo "==> one tokenizer per syntax family"
for family in rdf:1 monet:1 strabon:0 sciql:0; do
    dir=${family%%:*} want=${family##*:}
    sites=$( (grep -rn 'fn tokenize' "crates/$dir/src" --include='*.rs' || true) | wc -l)
    if [ "$sites" -ne "$want" ]; then
        echo "\"fn tokenize\" is defined $sites times under crates/$dir/src, expected $want" >&2; exit 1
    fi
done
if grep -nF '.replace(' crates/sciql/src/parser.rs; then
    echo "crates/sciql/src/parser.rs rewrites its text: lex SciQL with monet's tokenizer as written" >&2; exit 1
fi

# The lint's blocking / dispatch / poll words live in one table
# (cfg.rs VOCAB): a second file spelling one of them as a literal has
# grown a second recognizer. ("sync_all" is left out on purpose: L8's
# discarded-barrier list is a different vocabulary.)
echo "==> one lint vocabulary (each blocking word in one file)"
for word in recv_timeout try_run_cancellable sleep_cancellable; do
    files=$(grep -rlF "\"$word\"" crates/lint/src --include='*.rs' | wc -l)
    if [ "$files" -ne 1 ]; then
        echo "\"$word\" appears as a literal in $files files under crates/lint/src, expected 1" >&2; exit 1
    fi
done

echo "==> cargo clippy --workspace --all-targets"
cargo clippy --offline --workspace --all-targets

# SciQL must answer exactly what the native array code does (the bin
# asserts it per size before it times either).
echo "==> E6 smoke (SciQL vs native array code)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_sciql_vs_native

# E11's only home: the bin asserts the columnar and row-wise filters
# keep the same rows before it times them.
echo "==> E11 smoke (column-at-a-time vs row-at-a-time)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_column_vs_row

# Deadline supervision must bound a wedged stage: if cancellation
# regresses, the smoke run wedges and the timeout turns that into a
# failure rather than a hung gate.
echo "==> E14 smoke (timeout budgets)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_timeout_budgets -- --smoke

# The storage engine must recover the exact committed state after
# every injected crash (the bin asserts bit-identical recovery per
# row); the timeout turns a wedged replay loop into a failure.
echo "==> E16 smoke (durability / crash recovery)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_durability -- --smoke

# The E0 benchmark's own unit and integration tests (every workload
# correct at smoke scale, digests frozen, negative controls fail).
echo "==> E0 self-test"
timeout 600 python3 crates/e0/run.py --self-test

if [ "$full" -eq 1 ]; then
    # Exhaustive schedule exploration is exponential in yield points;
    # the models are small, but a scheduler bug could loop — bound it.
    echo "==> loom model checking (exec/cancel)"
    timeout 600 cargo test --release --offline -p teleios-exec --features loom --test loom

    # The exhaustive WAL-truncation sweep: recovery at every byte
    # offset of multi-seed logs (the fast per-commit sweep already ran
    # in tier 1; this is the #[ignore]d large variant).
    echo "==> store recovery property sweep (exhaustive)"
    timeout 600 cargo test --release --offline -p teleios-store --test recovery_properties -- --ignored
fi

echo "==> all checks passed"
