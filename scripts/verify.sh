#!/usr/bin/env bash
# Tier-1 verification plus the cheap robustness regression gates.
#
# Everything here runs offline: no network, no external crates. The
# `--smoke` report paths use tiny geometries and trial counts so a full
# run stays in CI budget while still exercising every `repro` section end
# to end (their shape assertions run inside the report builders, so a
# regression fails the section and the run).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --workspace

echo "== clippy (deny warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark workspace: format + clippy =="
# perfbench/ is a cargo workspace of its own, so the root-workspace fmt
# and clippy runs above never reach it.
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== tests (production stack + in-process oracles) =="
# The calendar queue and the compiled engine are the only production
# path; the reference heap and the dyn interpreter are selected at run
# time inside the differential, torture, and invariance suites, so one
# workspace run covers every scheduler x engine pairing.
cargo test -q --workspace

echo "== pinned digests and observables (every design and shared sub-circuit) =="
# Registry designs, the demux tree, and the HC composites elaborate
# through the typed `sfq_cells::typed` API only. These suites pin their
# netlist digests and simulation observables to the values the retired
# raw builders produced, and require random typed programs to be
# lint-clean by construction.
cargo test -q --workspace --test typed_differential --test typed_properties

echo "== no raw connect call sites in crates/core =="
# Wiring in hiperrf goes through the typed elaboration layer; raw
# `.connect(` / `.connect_delayed(` is reserved for the two intentional
# test fixtures (the digest's single-wire edit and the lint's illegal
# wire). The per-file budgets below pin those; any count above budget
# means raw wiring crept into the crate — port it to the typed API
# instead of raising the budget.
RAW_CONNECT_BUDGET="
hashing.rs=1
lint.rs=1
"
RAW_CONNECT_FAIL=0
for f in crates/core/src/*.rs; do
    n=$(grep -cE '\.connect(_delayed)?\(' "$f" || true)
    base=$(basename "$f")
    allowed=$(printf '%s\n' "$RAW_CONNECT_BUDGET" | awk -F= -v f="$base" '$1==f{print $2}')
    allowed=${allowed:-0}
    if [ "$n" -gt "$allowed" ]; then
        echo "error: $f has $n raw connect call sites (budget: $allowed)" >&2
        RAW_CONNECT_FAIL=1
    fi
done
if [ "$RAW_CONNECT_FAIL" -ne 0 ]; then
    echo "error: raw connect call sites in crates/core/src — use the typed API" >&2
    exit 1
fi
echo "raw connect call sites within budget"

echo "== no transition code outside the shared cell step =="
# Every primitive in crates/cells is data: pin constants and a
# constructor returning a `sfq_sim::cell::Cell`, which both engines step
# through `sfq_sim::cell::CellOp::step`, the only place a cell emits a
# pulse or records a violation. A pulse-context call under
# crates/cells/src is transition code outside that step: a second copy of
# some cell's behaviour to keep in agreement by hand. The budget is zero;
# new behaviour is a `CellOp` variant and its arm in the step.
CELL_PULSE_CALLS=$(grep -rnE --include='*.rs' \
    '\.(emit|emit_after|violation|violation_degrades)[[:space:]]*\(' crates/cells/src || true)
if [ -n "$CELL_PULSE_CALLS" ]; then
    printf '%s\n' "$CELL_PULSE_CALLS" >&2
    echo "error: pulse-context calls in crates/cells/src (budget: 0) — extend CellOp::step" >&2
    exit 1
fi
echo "no pulse-context calls in crates/cells/src"

echo "== no string comparisons against a cell kind =="
# A cell's kind is a `sfq_sim::cell::CellKind`, whose per-kind table holds
# the only copy of each kind's name, input pins, output count and trigger
# pins. Comparing a kind, or its name, with a string literal is a second
# copy kept by hand that the compiler cannot check against the table, so
# the budget is zero: compare `CellKind` values or read the table. Matched:
# a `.kind()` call (or a method chained on it) compared with any literal,
# in `==`/`!=` or `assert_eq!`/`assert_ne!`; a bare `kind` compared with a
# kind name; and a `match` on a kind whose arm is a kind name. The names
# come from the table itself, and the match spans whitespace and newlines.
KIND_NAMES=$(perl -ne 'print "$1|" if /=> row\("(\w+)"/' crates/sim/src/cell.rs)
KIND_NAMES=${KIND_NAMES%|}
if [ -z "$KIND_NAMES" ]; then
    echo "error: no kind names found in the CellKind table of crates/sim/src/cell.rs" >&2
    exit 1
fi
KIND_STRING_COMPARES=$(grep -rlZ --include='*.rs' 'kind' crates tests examples \
    | KIND_NAMES="$KIND_NAMES" xargs -0 -r perl -0777 -ne '
        my $call = qr/\.kind\(\)(?:\s*\.\s*\w+\(\))*/;
        my $lit = qr/"[^"\n]*"/;
        my $name = qr/"(?:$ENV{KIND_NAMES})"/;
        while (/ $call \s* [!=]= \s* $lit
               | $lit \s* [!=]= \s* [\w.]* $call
               | \bkind \s* [!=]= \s* $name
               | $name \s* [!=]= \s* [\w.]* \bkind\b
               | assert_(?:eq|ne)!\( \s* [^;]*? $call \s* , \s* $lit
               | assert_(?:eq|ne)!\( \s* $lit \s* , [^;]*? $call
               | \bmatch \s+ [^{;]*? \bkind\b [^{;]* \{ \s* $name
               /gx) {
            my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
            print "$ARGV:$line\n";
        }')
if [ -n "$KIND_STRING_COMPARES" ]; then
    printf '%s\n' "$KIND_STRING_COMPARES" >&2
    echo "error: string comparison against a cell kind (budget: 0) — compare CellKind values" >&2
    exit 1
fi
echo "no string comparisons against a cell kind"

echo "== every repro section, smoke sizes (paper tables, robustness, lint, cosim, serve) =="
# One run of every section; `repro all` exits 1 if any section's shape
# assertions fail. Among them, lint_matrix asserts every registered design
# is error-free, so this run doubles as the gate keeping shipped netlists
# DRC- and timing-clean.
cargo run -q --release -p hiperrf-bench --bin repro -- all --smoke --json

echo "== no new lint suppressions =="
# The crates carry zero `#[allow(dead_code)]` / `#[allow(unused...)]`
# attributes; keep it that way rather than silencing what sfq-lint or
# clippy find.
if grep -rn --include='*.rs' -E '#\[allow\((dead_code|unused)' crates tests; then
    echo "error: new #[allow(dead_code/unused...)] suppression found" >&2
    exit 1
fi

echo "== crash recovery (SIGKILL mid-batch, WAL replay, digest equality) =="
SERVE_BIN=target/release/sfq-serve
SERVE_TMP=$(mktemp -d)
SERVE_SPEC='{"kind":"margins","design":"hiperrf","trials":6,"shard_len":1,"seed":"424242"}'

serve_wait_addr() { # addr-file -> prints address once published
    for _ in $(seq 200); do
        [ -s "$1" ] && { cat "$1"; return 0; }
        sleep 0.05
    done
    echo "error: sfq-serve never published its address" >&2
    return 1
}

# Uninterrupted baseline digest.
"$SERVE_BIN" run --wal "$SERVE_TMP/base.wal" --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/base.addr" 2>/dev/null &
BASE_PID=$!
BASE_ADDR=$(serve_wait_addr "$SERVE_TMP/base.addr")
"$SERVE_BIN" submit --addr "$BASE_ADDR" --spec "$SERVE_SPEC" > /dev/null
BASE_DIGEST=$("$SERVE_BIN" wait --addr "$BASE_ADDR" --id 1 \
    | grep -o '"digest":"[0-9a-f]*"' | head -1)
"$SERVE_BIN" drain --addr "$BASE_ADDR" > /dev/null
wait "$BASE_PID"

# Crash run: slowed shards so SIGKILL lands mid-batch, then resume on the
# same journal and require the byte-identical digest.
"$SERVE_BIN" run --wal "$SERVE_TMP/crash.wal" --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/crash.addr" --shard-delay-ms 150 2>/dev/null &
CRASH_PID=$!
CRASH_ADDR=$(serve_wait_addr "$SERVE_TMP/crash.addr")
"$SERVE_BIN" submit --addr "$CRASH_ADDR" --spec "$SERVE_SPEC" > /dev/null
for _ in $(seq 200); do
    DONE=$("$SERVE_BIN" health --addr "$CRASH_ADDR" 2>/dev/null \
        | grep -o '"shards_executed":[0-9]*' | grep -o '[0-9]*$' || true)
    [ "${DONE:-0}" -ge 2 ] && break
    sleep 0.05
done
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
rm -f "$SERVE_TMP/crash.addr"
"$SERVE_BIN" run --wal "$SERVE_TMP/crash.wal" --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/crash.addr" 2>/dev/null &
RESUME_PID=$!
RESUME_ADDR=$(serve_wait_addr "$SERVE_TMP/crash.addr")
RESUME_DIGEST=$("$SERVE_BIN" wait --addr "$RESUME_ADDR" --id 1 \
    | grep -o '"digest":"[0-9a-f]*"' | head -1)
"$SERVE_BIN" drain --addr "$RESUME_ADDR" > /dev/null
wait "$RESUME_PID"
rm -rf "$SERVE_TMP"
if [ -z "$BASE_DIGEST" ] || [ "$BASE_DIGEST" != "$RESUME_DIGEST" ]; then
    echo "error: resumed digest (${RESUME_DIGEST:-none}) != uninterrupted digest (${BASE_DIGEST:-none})" >&2
    exit 1
fi
echo "crash recovery: resumed digest matches uninterrupted run ($BASE_DIGEST)"

echo "== docs (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "verify: OK"
