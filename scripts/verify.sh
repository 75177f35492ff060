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
# path; the differential and torture suites select the reference heap and
# the dyn interpreter explicitly on each simulator they build
# (`Simulator::with_engine` / `set_scheduler` / `set_engine`,
# `RegisterFile::set_scheduler` / `set_engine`), so one workspace run
# covers every scheduler x engine pairing.
cargo test -q --workspace

echo "== pinned digests and observables (every design and shared sub-circuit) =="
# Registry designs, the demux tree, and the HC composites elaborate
# through the typed `sfq_cells::typed` API only. These suites pin their
# netlist digests and simulation observables to the values the retired
# raw builders produced, and require random typed programs to be
# lint-clean by construction.
cargo test -q --workspace --test typed_differential --test typed_properties

echo "== order suites in release (overflow wraps there) =="
# The tier-1 run above builds tests in debug, where integer overflow
# panics; production builds run release, where it wraps silently. The
# calendar queue's slot cursors and radix offsets are plain arithmetic,
# so the suites that hold its event order to the reference heap, and
# its storage bound, run in release too. So does the engine suite: it
# holds the compiled event loop, as inlined and optimised in release, to
# the dyn interpreter and the pinned FNV-64 observables.
cargo test --release -q -p hiperrf-bench --test scheduler_torture --test sim_equivalence \
    --test engine_equivalence
cargo test --release -q -p sfq-sim --test wheel_storage

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

echo "== no per-thread state in the simulator or the design layer =="
# Building a simulator must not read per-thread state: `Simulator::new`
# is the calendar queue and the compiled engine on every thread, and an
# oracle is selected explicitly on the simulator that runs it. A
# `thread_local!` under crates/sim/src or crates/core/src is ambient
# state such a build could read, so the budget is zero.
THREAD_LOCALS=$(grep -rn --include='*.rs' 'thread_local!' crates/sim/src crates/core/src || true)
if [ -n "$THREAD_LOCALS" ]; then
    printf '%s\n' "$THREAD_LOCALS" >&2
    echo "error: thread_local! in crates/sim/src or crates/core/src (budget: 0) — pass the choice explicitly" >&2
    exit 1
fi
echo "no thread_local! in crates/sim/src or crates/core/src"

echo "== no panic containment in the simulator or the design layer =="
# A panicking trial or run unwinds to its caller. Containment belongs to
# the two callers that must outlive one: sfq-serve's shard supervisor and
# repro's section runner. A `catch_unwind` under crates/sim/src or
# crates/core/src is a second containment layer in between, so the budget
# is zero.
CATCH_UNWINDS=$(grep -rn --include='*.rs' 'catch_unwind' crates/sim/src crates/core/src || true)
if [ -n "$CATCH_UNWINDS" ]; then
    printf '%s\n' "$CATCH_UNWINDS" >&2
    echo "error: catch_unwind in crates/sim/src or crates/core/src (budget: 0) — let the panic reach its caller" >&2
    exit 1
fi
echo "no catch_unwind in crates/sim/src or crates/core/src"

echo "== no per-event fault work or queue dispatch in the compiled hot loop =="
# The compiled engine's event loop is `CompiledRun::event_loop`, generic
# over the scheduler: `run_until_compiled` matches the simulator's `Queue`
# once per run and calls it, so no event pays an enum match. A
# `self.queue.` call inside the loop is a `Queue` call, its per-event
# match back in the loop. A fault plan's delay variation is applied to
# the compiled engine's ops once, when the plan is installed
# (`Simulator::set_fault_plan`), so a Monte Carlo probe costs what a
# nominal run costs; a `delay_factor` or `scale_emission` call inside the
# loop puts that work back on every event. The dyn interpreter keeps both,
# as the oracle. Both budgets are zero. The body runs from the signature
# to the first line closing it at its indent, and must hold the loop.
HOT_LOOP=$(awk '/^    fn event_loop</ { on = 1 } on { print FNR ": " $0 } on && /^    }$/ { exit }' \
    crates/sim/src/simulator.rs)
if ! printf '%s\n' "$HOT_LOOP" | grep -qE '= loop \{$'; then
    echo "error: no event loop in CompiledRun::event_loop in crates/sim/src/simulator.rs" >&2
    exit 1
fi
HOT_FAULT_WORK=$(printf '%s\n' "$HOT_LOOP" | grep -E 'delay_factor|scale_emission' || true)
if [ -n "$HOT_FAULT_WORK" ]; then
    printf 'crates/sim/src/simulator.rs:%s\n' "$HOT_FAULT_WORK" >&2
    echo "error: per-event delay variation in the compiled event loop (budget: 0) — scale the ops at install" >&2
    exit 1
fi
HOT_QUEUE_DISPATCH=$(printf '%s\n' "$HOT_LOOP" | grep -E 'self\.queue\.' || true)
if [ -n "$HOT_QUEUE_DISPATCH" ]; then
    printf 'crates/sim/src/simulator.rs:%s\n' "$HOT_QUEUE_DISPATCH" >&2
    echo "error: Queue enum call in the compiled event loop (budget: 0) — use the scheduler it is generic over" >&2
    exit 1
fi
echo "no delay_factor, scale_emission or Queue call in the compiled event loop"

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
