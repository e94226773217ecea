#!/usr/bin/env bash
# Pre-merge gate, in three tiers:
#
#   scripts/check.sh --quick   build + tier-1 tests only (tests/*.rs,
#                              where the paper's claims are asserted)
#   scripts/check.sh           default gate: the above, plus every
#                              crate's tests in a debug build (the
#                              lock-order witness panics on an
#                              inversion there), the workspace
#                              invariants — clippy's lint list and the
#                              two structural greps, each proved on
#                              scripts/probe first —, the
#                              one-fork-site, one-cell-walker,
#                              one-statement-prologue (with the
#                              sidecar's one start-over site),
#                              one-spatial-access-path,
#                              one-tokenizer-and-one-expression-
#                              grammar-per-family,
#                              one-expression-evaluator (the SQL
#                              family's and stSPARQL's),
#                              one-stSPARQL-solution-layout (and
#                              one decode point, Rows::to_solutions),
#                              one-transaction-doorway,
#                              one-chain-batch-executor and
#                              one-checksum greps, the
#                              public-name census,
#                              warning-free clippy outside crates/e0,
#                              the E3/E6/E11 smoke runs, the strabon
#                              cross product under ulimit -v (release),
#                              the E0 benchmark's self-test and the
#                              pairs tool's self-test
#   scripts/check.sh --full    default gate, plus the exhaustive
#                              WAL-truncation recovery sweep
#
# Both test steps build first and then run under `timeout`, so a
# hung-stage or wedged-replay regression in a test (the deadline and
# durability claims are tier-1 tests) fails the gate instead of
# hanging it.
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
cargo test -q --offline --no-run
timeout 120 cargo test -q --offline

if [ "$quick" -eq 1 ]; then
    echo "==> quick checks passed (crate tests, invariants and smoke runs skipped)"
    exit 0
fi

# Every crate's own tests, in a debug build: the runtime checkers
# live here. The global LockWitness panics on the acquisition that
# would close a lock-order cycle, and crates/exec/tests/races.rs
# stress-tests the cancel and witness protocols.
echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace --no-run
timeout 600 cargo test -q --offline --workspace

# Workspace invariants, one checker each (DESIGN.md, "Static analysis
# & verification gates"). Clippy owns what it can see by type: OS
# threads only through teleios-exec and filesystem mutation only
# through teleios-store's Medium (the root clippy.toml), no
# unwrap/expect/panic!/todo!/unimplemented!, no println!/eprintln!,
# no discarded #[must_use] result. `--lib` compiles library code
# outside #[cfg(test)] only, so tests and drivers (bins, examples,
# benches) are exempt by construction. A deliberate site carries
# #[expect(lint, reason = "…")]; a stale expectation fails the step.
invariant_lints=(
    clippy::unwrap_used clippy::expect_used clippy::panic clippy::todo clippy::unimplemented
    clippy::print_stdout clippy::print_stderr
    clippy::let_underscore_must_use clippy::unused_result_ok
    clippy::disallowed_methods clippy::disallowed_types
    unfulfilled_lint_expectations
)
invariant_flags=()
for lint in "${invariant_lints[@]}"; do invariant_flags+=(-D "$lint"); done

# Two structural invariants no compiler lint states, as greps: every
# crate root forbids unsafe code, and every public `*Error` enum
# implements Display and std::error::Error in its own file (above its
# #[cfg(test)] module). Prints one `path:line check` per finding.
structural_findings() {
    local dir file line rest name
    for dir in "$@"; do
        grep -qxF '#![forbid(unsafe_code)]' "$dir/src/lib.rs" || echo "$dir/src/lib.rs:1 crate-attrs"
        while IFS= read -r file; do
            while IFS=: read -r line rest; do
                name=$(sed -E 's/.*pub enum ([A-Za-z0-9_]+).*/\1/' <<<"$rest")
                if ! grep -qE "^\s*impl\b.*\bDisplay for $name\b" "$file" \
                    || ! grep -qE "^\s*impl\b.*\bError for $name\b" "$file"; then
                    echo "$file:$line error-impls"
                fi
            done < <(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file" \
                | grep -nE '^\s*pub enum [A-Za-z0-9_]+Error\b' || true)
        done < <(find "$dir/src" -name '*.rs' | sort)
    done
}

# Both checkers must fire before a clean run means anything: the probe
# crate seeds one violation per lint and per structural check (plus an
# aliased spawn and a stale #[expect]), each marked `//~ <check>` on
# its line, and the findings must be exactly the marked set — so a
# lint dropped from the list, a clippy.toml that stopped loading, a
# grep that stopped matching or a #[cfg(test)] decoy that started
# firing all fail here.
probe=scripts/probe
marks() {
    grep -nE "//~ ($1)\$" "$probe/src/lib.rs" \
        | sed -E 's|^([0-9]+):.*//~ ([a-z_:-]+)$|src/lib.rs:\1 \2|' | sort
}
same_as_marked() {
    if [ -z "$2" ] || [ "$3" != "$2" ]; then
        echo "$1 probe: findings differ from the //~ marks (< marked, > reported):" >&2
        diff <(echo "$2") <(echo "$3") >&2 || true
        exit 1
    fi
    echo "    $(echo "$3" | wc -l) seeded findings, exactly as marked"
}

echo "==> clippy invariants fire on $probe"
reported=$( (cargo clippy --offline -q --manifest-path "$probe/Cargo.toml" --target-dir target/probe \
        --lib --message-format json -- "${invariant_flags[@]}" 2>/dev/null || true) \
    | python3 -c '
import json, sys
lints = set(sys.argv[1:])
for line in sys.stdin:
    msg = json.loads(line).get("message") or {}
    code = (msg.get("code") or {}).get("code")
    for span in msg.get("spans", []):
        if code in lints and span["is_primary"]:
            print("%s:%d %s" % (span["file_name"], span["line_start"], code))
' "${invariant_lints[@]}" | sort)
same_as_marked clippy "$(marks 'clippy::[a-z_]+|unfulfilled_lint_expectations')" "$reported"

echo "==> clippy invariants (workspace library code)"
cargo clippy --offline --workspace --lib -- "${invariant_flags[@]}"

echo "==> structural greps fire on $probe"
same_as_marked structural "$(marks 'crate-attrs|error-impls')" \
    "$(cd "$probe" && structural_findings . | sed 's|^\./||' | sort)"

echo "==> structural greps (every crate)"
findings=$(structural_findings crates/* . | sed 's|^\./||')
if [ -n "$findings" ]; then
    echo "$findings" >&2
    echo "a crate root lacks #![forbid(unsafe_code)], or a public *Error enum lacks its Display / std::error::Error impl" >&2
    exit 1
fi

# The inline-or-parallel fork lives in WorkerPool::morsels_for only: a
# kernel that tests the thread count itself has grown a second body.
# Monet, SciQL and strabon's evaluator run sequentially: no workload's
# tables, arrays or bindings cross a parallel threshold, so a parallel
# path there comes back only with a workload that does. Strabon's one
# pool user is the spatial sidecar's R-tree bulk load: lib.rs sizes
# the pool and spatial.rs hands it to the bulk load.
echo "==> one fork site (no thread-count tests outside crates/exec; no pool in monet, sciql or strabon's evaluator)"
if grep -rnE 'threads\(\) *(<= *1|== *1)' crates/*/src --include='*.rs' | grep -v '^crates/exec/'; then
    echo "thread-count test outside crates/exec: route it through WorkerPool::morsels_for" >&2; exit 1
fi
if grep -rnE 'WorkerPool|teleios_exec' crates/monet/src crates/sciql/src --include='*.rs' \
    || grep -nE '^teleios-exec' crates/monet/Cargo.toml crates/sciql/Cargo.toml; then
    echo "monet and sciql are sequential: a parallel path needs a workload that crosses its threshold" >&2; exit 1
fi
if grep -rnE 'WorkerPool|morsels_for|concat' crates/strabon/src --include='*.rs' \
    | grep -vE '^crates/strabon/src/(lib|spatial)\.rs:'; then
    echo "strabon's evaluator is sequential: only the sidecar's bulk load (lib.rs, spatial.rs) takes the pool" >&2; exit 1
fi

# Rectangular regions of an array are walked by walk_runs in
# monet/array.rs only: an odometer anywhere else is a second cell
# walker, re-linearizing an index per cell.
echo "==> one cell walker (the odometer idiom lives in monet/array.rs)"
if grep -rnE '\[k\] *\+= *1' crates/*/src --include='*.rs' | grep -v '^crates/monet/src/array.rs:'; then
    echo "odometer loop outside crates/monet/src/array.rs: walk the region with NdArray::walk_rows / slice" >&2; exit 1
fi

# Every stSPARQL statement goes through eval::prepare, which builds
# the statement's one Env and is the one place the sidecar catches up.
# The sidecar starts over in one place too: SpatialSidecar::catch_up,
# when the store holds another dictionary (a replaced store), never
# because a write happened. A second `Env {` is a second statement
# prologue; a second `SpatialSidecar::default()`, or any
# `invalidate`, is a write path that forgot the dictionary is
# append-only.
echo "==> one statement prologue (strabon builds Env once; the sidecar starts over only in catch_up)"
live_sites() {
    find crates/strabon/src -name '*.rs' | sort | xargs awk -v idiom="$1" '
        FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
        live && match($0, /fn [A-Za-z0-9_]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
        live && index($0, idiom) { print FILENAME ":" FNR " in " cur }'
}
for check in 'Env {|' 'SpatialSidecar::default()|crates/strabon/src/spatial\.rs:[0-9]+ in catch_up'; do
    idiom=${check%%|*} where=${check#*|}
    sites=$(live_sites "$idiom")
    if [ "$(grep -c . <<<"$sites")" -ne 1 ] || { [ -n "$where" ] && ! grep -qxE "$where" <<<"$sites"; }; then
        echo "${sites:-no site found}" >&2
        echo "\"$idiom\" must appear exactly once outside tests under crates/strabon/src${where:+, inside SpatialSidecar::catch_up}" >&2; exit 1
    fi
done
if live_sites invalidate | grep .; then
    echo "the sidecar is invalidated above: let SpatialSidecar::catch_up tell a replaced store by its dictionary's identity" >&2; exit 1
fi

# A spatial FILTER has one access path: the planner's spatial-join
# step over the sidecar's R-tree (Step::SpatialJoin in eval.rs). A
# restriction map of candidate ids beside the FILTER, or a prefilter
# that builds one, is a second path beside it.
echo "==> one spatial access path (spatial FILTERs plan as spatial joins only)"
if grep -rnwE 'restrictions|spatial_prefilter' crates/strabon/src --include='*.rs'; then
    echo "a second spatial access path under crates/strabon/src: plan the FILTER as a Step::SpatialJoin" >&2; exit 1
fi

# Turtle and stSPARQL read through one tokenizer (rdf/syntax.rs), SQL
# and SciQL through another (monet/sql/lexer.rs): a third `fn tokenize`
# is a second reader of one family's text, and a `.replace(` in the
# SciQL parser is a text rewrite that moves error positions off the
# text the user wrote. SciQL's cell expressions are SQL expressions,
# parsed by monet's `Cursor::expr`: library code under crates/sciql
# that consumes an expression keyword or operator token is a second
# precedence ladder beside SQL's.
echo "==> one tokenizer and one expression grammar per syntax family"
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
ladder='(accept|expect)_kw[(]"(OR|AND|NOT|CASE|WHEN|THEN|ELSE|END|IS|IN|BETWEEN|LIKE)"[)]|Symbol::(Plus|Slash|Percent|Lt|Le|Gt|Ge|Ne)([^A-Za-z0-9_]|$)'
if find crates/sciql/src -name '*.rs' | sort | xargs awk -v pattern="$ladder" \
    'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
     live && $0 ~ pattern { print FILENAME ":" FNR ": " $0; found = 1 } END { exit !found }'; then
    echo "crates/sciql/src parses expression operators itself: parse cell expressions with teleios_monet's Cursor::expr" >&2; exit 1
fi

# The SQL family evaluates expressions in one place: monet's exec::eval
# and exec::select, a whole column at a time, under SQL's WHERE,
# projection, sort, group and join keys and SciQL's cell expressions.
# The conjunct fast path (`compile_conjuncts`) and SciQL's per-cell tree
# (`enum Bound`, its `fn eval(`) are second evaluators beside it, and
# `eval_expr`, the row-at-a-time reference, has one caller: the
# `filter_rowwise` oracle the SQL differential and E11 compare against.
echo "==> one expression evaluator (exec::eval / exec::select; eval_expr only behind filter_rowwise)"
evaluator_sites() {
    grep -rn 'compile_conjuncts' "$@" --include='*.rs' || true
    grep -rnE 'enum Bound\b|fn eval\(' "$1/sciql/src" --include='*.rs' || true
    find "$@" -name '*.rs' | sort | xargs awk 'FNR == 1 { cur = "" }
        match($0, /fn [A-Za-z0-9_]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
        /(^|[^A-Za-z0-9_])eval_expr\(/ && cur != "eval_expr" && cur != "filter_rowwise" {
            print FILENAME ":" FNR " in " cur ": " $0 }'
}
sites=$(evaluator_sites crates src tests examples)
if [ -n "$sites" ]; then
    echo "$sites" >&2
    echo "a second expression evaluator above: run expressions through teleios_monet::exec::{eval, select}" >&2; exit 1
fi

# stSPARQL evaluates rows over the form eval::prepare lowers each
# expression to once per statement (expr::lower: slots, function
# variants, constants with their numbers and geometries). A library
# `fn` under crates/strabon/src whose signature takes both a solution
# row (`[TermId]`) and an `ast::Expression` is a second row evaluator
# over the syntax tree beside `expr::eval`.
echo "==> one stSPARQL row evaluator (no fn takes a binding and an ast::Expression)"
sites=$(find crates/strabon/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1; open = 0 } /^#\[cfg\(test\)\]/ { live = 0 }
    live && !/^[[:space:]]*\/\// && /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/ { sig = ""; at = FNR; open = 1 }
    live && open { sig = sig " " $0 }
    live && open && /[{;][[:space:]]*$/ {
        open = 0
        if (sig ~ /\[TermId\]/ \
            && sig ~ /(^|[^A-Za-z0-9_])Expression([^A-Za-z0-9_]|$)/) {
            match(sig, /fn [A-Za-z0-9_]+/)
            print FILENAME ":" at " in " substr(sig, RSTART + 3, RLENGTH - 3)
        }
    }')
if [ -n "$sites" ]; then
    echo "$sites" >&2
    echo "a row evaluator over the syntax tree above: lower the expression in eval::prepare and evaluate it with expr::eval" >&2; exit 1
fi

# A stSPARQL solution is a row of dictionary ids (`[TermId]`, one slot
# per variable, `expr::UNBOUND` for none), moved through eval::walk a
# block at a time. A `Bound` enum of ids and terms, or a
# `Vec<Option<…>>` row type beside the id rows, is a second solution
# layout: a computed term takes an id in the statement's overlay.
echo "==> one stSPARQL solution layout (rows of TermIds)"
if grep -rnE 'enum Bound\b|Option<Bound>|type [A-Za-z]+ *= *Vec<Option<' crates/strabon/src --include='*.rs'; then
    echo "a second solution layout under crates/strabon/src: keep solutions as rows of TermIds" >&2; exit 1
fi
# An answer stays ids until a caller reads it (`Rows`), and becomes
# owned terms in one place: `Rows::to_solutions` builds every
# `Solutions`, ASK's included. Another `Solutions {` under
# crates/strabon/src, tests in src included, is a second decode point.
builders=$(find crates/strabon/src -name '*.rs' | sort | xargs awk '
    match($0, /fn [A-Za-z0-9_]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
    /(^|[^A-Za-z0-9_])Solutions *[{]/ && !/(struct|impl) Solutions|-> *Solutions/ { print FILENAME ":" FNR " in " cur }')
if [ "$(wc -l <<<"$builders")" -ne 1 ] \
    || ! grep -qxE 'crates/strabon/src/lib\.rs:[0-9]+ in to_solutions' <<<"$builders"; then
    echo "${builders:-no Solutions built}" >&2
    echo "Solutions built above outside Rows::to_solutions: keep answers as Rows and decode them there" >&2; exit 1
fi

# Prints `file:line in fn` for every line of library code matching the
# awk regex $1, under crates/*/src minus the crates named after it: a
# file stops at its #[cfg(test)] module, and `fn` is the function the
# line sits in. crates/e0 is frozen and crates/bench holds drivers, so
# neither ever counts.
library_sites() {
    local pattern=$1; shift
    local skip=(-not -path 'crates/e0/*' -not -path 'crates/bench/*')
    for crate in "$@"; do skip+=(-not -path "crates/$crate/*"); done
    find crates/*/src -name '*.rs' "${skip[@]}" | sort \
        | xargs awk -v pattern="$pattern" 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
            live && match($0, /fn [A-Za-z0-9_]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
            live && $0 ~ pattern { print FILENAME ":" FNR " in " cur }'
}

# Library code opens a transaction only through teleios_store::transact,
# which rolls back when its stage fails: a second `.begin()` is a second
# doorway, and its error exits can leave a transaction open.
echo "==> one transaction doorway (.begin() only inside teleios_store::transact)"
begin_sites=$(library_sites '[.]begin[(][)]')
if [ "$(wc -l <<<"$begin_sites")" -ne 1 ] \
    || ! grep -qxE 'crates/store/src/backend\.rs:[0-9]+ in transact' <<<"$begin_sites"; then
    echo "${begin_sites:-no .begin() found}" >&2
    echo "library .begin() sites above differ from the one inside teleios_store::transact: stage through transact" >&2; exit 1
fi

# A batch of scenes runs through Supervisor::run_batch only: a second
# `.try_run(` outside crates/exec (the pool's own home) is a second
# batch executor with its own panic-to-failure step.
echo "==> one chain-batch executor (.try_run( only inside Supervisor::run_batch)"
try_run_sites=$(library_sites '[.]try_run[(]' exec)
if [ "$(wc -l <<<"$try_run_sites")" -ne 1 ] \
    || ! grep -qxE 'crates/resilience/src/supervisor\.rs:[0-9]+ in run_batch' <<<"$try_run_sites"; then
    echo "${try_run_sites:-no .try_run( found}" >&2
    echo "library .try_run( sites above differ from the one inside Supervisor::run_batch: run batches through the Supervisor" >&2; exit 1
fi

# Every stored byte — WAL frame, snapshot, vault file — is verified by
# teleios_store::codec::checksum: an FNV-1a or CRC-32 constant, or a
# function named for a crc or a checksum, anywhere else in library
# code is a second integrity format to keep in step with the first.
echo "==> one checksum (teleios_store::codec::checksum only)"
checksum_sites=$(library_sites 'cbf2_?9ce4_?8422_?2325|100_?0000_?01b3|edb8_?8320|fn [A-Za-z0-9_]*(crc|checksum)')
if [ "$(wc -l <<<"$checksum_sites")" -ne 1 ] \
    || ! grep -qxE 'crates/store/src/codec\.rs:[0-9]+ in checksum' <<<"$checksum_sites"; then
    echo "${checksum_sites:-no checksum function found}" >&2
    echo "library checksum sites above differ from teleios_store::codec::checksum: verify bytes with it" >&2; exit 1
fi

# A public function no other file names has no caller outside its own
# file, so nothing keeps its name public. A name census cannot see a
# method whose name is common elsewhere (rustc's dead_code sees those
# once the item is pub(crate)), but it keeps the plainly unused ones
# out. crates/e0 is frozen between benchmark PRs.
echo "==> public-name census (every pub fn is named in another tracked .rs file)"
unnamed=$(git ls-files -- 'crates/*/src/*.rs' 'src/*.rs' ':!:crates/e0/*' \
    | xargs grep -HoE '^\s*pub fn \w+' | sed -E 's/^([^:]*):\s*pub fn (\w+)$/\1 \2/' \
    | while read -r file name; do
        git grep -qwF "$name" -- '*.rs' ":!:$file" || echo "$file: pub fn $name"
    done)
if [ -n "$unnamed" ]; then
    echo "$unnamed" >&2
    echo "the public functions above are named in no other tracked .rs file: make them pub(crate), or delete them if rustc then calls them dead" >&2; exit 1
fi

# Every target warning-free, tests and drivers included, except
# crates/e0 (frozen between benchmark PRs). The disallowed-path lints
# are the invariant step's: tests and drivers may spawn and write.
echo "==> cargo clippy --workspace --all-targets (warning-free outside crates/e0)"
cargo clippy --offline --workspace --exclude teleios-e0 --all-targets -- \
    -D warnings -A clippy::disallowed_methods -A clippy::disallowed_types

# SciQL must answer exactly what the native array code does (the bin
# asserts it per size before it times either).
echo "==> E6 smoke (SciQL vs native array code)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_sciql_vs_native

# E11's only home: the bin asserts the columnar and row-wise filters
# keep the same rows before it times them.
echo "==> E11 smoke (column-at-a-time vs row-at-a-time)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_column_vs_row

# E3's ratio sweep: at every hotspot:image ratio from 1:4 to 16:1 the
# bin asserts the flagship answers alike under the default, four-thread
# and index-off configurations and the syntactic reference, before it
# times anything.
echo "==> E3 smoke (flagship query vs archive size and hotspot:image ratio)"
timeout 300 cargo run --release --offline -p teleios-bench --bin exp_flagship_query -- --smoke

# ASK, LIMIT, DISTINCT and COUNT(*) over a 7-million-binding cross
# product in a shell capped by `ulimit -v` at about 1 GB (the test sets
# it), each within a few blocks' memory.
echo "==> strabon cross product, a block at a time (release, ulimit -v)"
timeout 600 cargo test --release --offline -p teleios-strabon --test differential -- \
    --ignored --exact a_cross_product_is_walked_a_block_at_a_time

# The E0 benchmark's own unit and integration tests (every workload
# correct at smoke scale, digests frozen, negative controls fail).
echo "==> E0 self-test"
timeout 600 python3 crates/e0/run.py --self-test

# The alternated-pairs tool (scripts/pairs.py) on a stub command that
# prints fixed JSON lines: its medians, quartiles, wins, verdicts, run
# order, and the stop on an incorrect run.
echo "==> pairs.py self-test"
timeout 120 python3 scripts/pairs.py --self-test

if [ "$full" -eq 1 ]; then
    # The exhaustive WAL-truncation sweep: recovery at every byte
    # offset of multi-seed logs (the fast per-commit sweep already ran
    # in tier 1; this is the #[ignore]d large variant).
    echo "==> store recovery property sweep (exhaustive)"
    timeout 600 cargo test --release --offline -p teleios-store --test recovery_properties -- --ignored
fi

echo "==> all checks passed"
