#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Fully offline (the workspace is hermetic).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
# No test may depend on test order or on state another test left in the
# process: the whole suite passes one test at a time as well.
cargo test -q --workspace -- --test-threads=1
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc links must resolve: a doc link to a private or missing item
# fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Identity gates under the optimizer: the NXmap-flow and fleet digests
# were recorded in both profiles, so a speed change that only holds in
# debug builds fails here. The suite kernels' lockstep settle against the
# reference interpreter, the HLS netlist-shape rules, the mapped netlists'
# gate-level equivalence checks and the characterization library's digest
# run beside them.
# The placer's own determinism, effort and overflow tests run under the
# optimizer too, and so do the RTL simulator's differential settle tests
# against the reference interpreter, and the oracle tests that hold the
# word-wise CRC-32, TMR vote, netlist order and HLS emit to the bit- and
# byte-serial code they replaced.
cargo test -q --release -p hermes-bench --test flow_identity --test fleet_identity \
  --test settle_engines --test netlist_shape --test mapping_equivalence --test library_identity
cargo test -q --release -p hermes-fpga
cargo test -q --release -p hermes-rtl
cargo test -q --release -p hermes-boot -p hermes-hls

fail() { echo "ci: $*" >&2; exit 1; }

# Parallel determinism gate: the worker count is a throughput knob, never a
# results knob. Run the fanned-out experiments serial and 4-wide (via the
# --jobs flag) and diff everything except the wall-clock lines. Every
# experiment asserts its own gates in run() (E13 activity, E14 and E19
# accounting, E15 zero silent leaks, E16 and E18 >= 10x reductions), so
# a broken gate fails here.
EXP=target/release/experiments
IDS="e1 e2 e7 e10 e13 e14 e15 e16 e18 e19"
"$EXP" --jobs 1 $IDS > /tmp/hermes_serial.txt
"$EXP" --jobs 4 $IDS > /tmp/hermes_par.txt
diff <(grep -v "completed in" /tmp/hermes_serial.txt) <(grep -v "completed in" /tmp/hermes_par.txt) \
  || fail "parallel output diverged from serial"

# Trace determinism gate: the flight recorder is part of the determinism
# contract. Record the same experiments serial and 4-wide, strip the
# wall-clock side channel (every wall-derived field sits on a line whose
# key starts with "wall), and require byte-identical documents. The trace
# must also be complete: no ring overflowed and nothing was warned about
# (ring overflow is the only warning source).
"$EXP" --jobs 1 $IDS --trace /tmp/hermes_trace_serial.json > /dev/null
"$EXP" --jobs 4 $IDS --trace /tmp/hermes_trace_par.json > /dev/null
grep -q '"schema": "hermes-trace/v1"' /tmp/hermes_trace_serial.json \
  || fail "trace document missing hermes-trace/v1 schema"
grep -q '^  "dropped_events": 0,$' /tmp/hermes_trace_serial.json \
  || fail "trace dropped events (ring overflow)"
grep -q '^  "warnings": \[\]$' /tmp/hermes_trace_serial.json || fail "trace recorded warnings"
diff <(grep -v '"wall' /tmp/hermes_trace_serial.json) <(grep -v '"wall' /tmp/hermes_trace_par.json) \
  || fail "trace diverged between --jobs 1 and 4"
test -s /tmp/hermes_trace_serial.chrome.json || fail "chrome trace rendering missing"

# CLI surface: --list prints every id without running anything, the
# output flags refuse to run with nothing selected, and --jobs rejects
# zero or unparsable worker counts instead of silently defaulting.
# (Capture once and grep the variable: piping straight into `grep -q`
# races an EPIPE panic in the binary when grep exits on first match.)
LIST=$("$EXP" --list)
for id in e13 e14 e15 e16 e17 e18 e19; do
  grep -q "^$id " <<< "$LIST" || fail "--list missing $id"
done
for bad in "--list --trace /tmp/never.json" "--list --profile /tmp/never.json" \
  "--profile" "--jobs 0 --list" "--jobs banana --list" "--jobs"; do
  # $bad is unquoted on purpose: each case is one argument list
  "$EXP" $bad > /dev/null 2>&1 && fail "experiments $bad must be rejected"
done

# E11 and E12 smokes: the throughput and observability-overhead
# experiments run end to end, and their documents carry their schema.
"$EXP" e11 --json /tmp/hermes_bench_smoke.json > /dev/null
grep -q '"schema": "hermes-bench/v1"' /tmp/hermes_bench_smoke.json \
  || fail "e11 JSON missing hermes-bench/v1 schema"
"$EXP" e12 --trace /tmp/hermes_e12_trace.json > /dev/null
grep -q '"schema": "hermes-trace/v1"' /tmp/hermes_e12_trace.json \
  || fail "e12 trace missing hermes-trace/v1 schema"

# E17: causal tracing, critical-path profiling, SLO burn-rate alerting;
# run() asserts the critical-path and paging gates. Profiles carry no
# wall channel at all, so the jobs-determinism diff is a straight byte
# diff, no stripping. The committed-baseline gates (E17b overhead, E18
# reduction, E19 scale and skew) are `crates/bench/tests/gates.rs`, run
# by `cargo test` above.
"$EXP" e17 --jobs 1 --profile /tmp/hermes_e17_p1.json > /dev/null
"$EXP" e17 --jobs 4 --profile /tmp/hermes_e17_p4.json > /dev/null
grep -q '"schema": "hermes-profile/v1"' /tmp/hermes_e17_p1.json \
  || fail "profile document missing hermes-profile/v1 schema"
grep -q '"wall' /tmp/hermes_e17_p1.json && fail "profile document carries wall-clock fields"
diff /tmp/hermes_e17_p1.json /tmp/hermes_e17_p4.json \
  || fail "profile diverged between --jobs 1 and 4"
diff /tmp/hermes_e17_p1.folded /tmp/hermes_e17_p4.folded \
  || fail "folded stacks diverged between --jobs 1 and 4"

echo "ci: OK"
