#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Fully offline (the workspace is hermetic).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Identity gates under the optimizer: the NXmap-flow and fleet digests
# were recorded in both profiles, so a speed change that only holds in
# debug builds fails here. The placer's own determinism, multi-start and
# overflow tests run under the optimizer beside them.
cargo test -q --release -p hermes-bench --test flow_identity --test fleet_identity
cargo test -q --release -p hermes-fpga

# Parallel determinism gate: the worker count is a throughput knob, never a
# results knob. Run the fanned-out experiments serial and 4-wide (via the
# --jobs flag) and diff everything except the wall-clock lines. E16 asserts
# its one-active-tile settle and register gates (>= 10x each) in code, so
# a broken gate fails here.
EXP=target/release/experiments
strip_timing() { grep -v "completed in" "$1" > "$1.stripped"; }
"$EXP" --jobs 1 e1 e2 e7 e10 e14 e15 e16 e19 > /tmp/hermes_serial.txt
"$EXP" --jobs 4 e1 e2 e7 e10 e14 e15 e16 e19 > /tmp/hermes_par.txt
strip_timing /tmp/hermes_serial.txt
strip_timing /tmp/hermes_par.txt
diff /tmp/hermes_serial.txt.stripped /tmp/hermes_par.txt.stripped \
  || { echo "ci: parallel output diverged from serial" >&2; exit 1; }

# Trace determinism gate: the flight recorder is part of the determinism
# contract. Record the same experiments serial and 4-wide, strip the
# wall-clock side channel (every wall-derived field sits on a line whose
# key starts with "wall), and require byte-identical documents. The trace
# must also be complete: no ring overflowed and nothing was warned about
# (ring overflow is the only warning source).
"$EXP" --jobs 1 e1 e2 e7 e10 e14 e15 e16 e19 --trace /tmp/hermes_trace_serial.json > /dev/null
"$EXP" --jobs 4 e1 e2 e7 e10 e14 e15 e16 e19 --trace /tmp/hermes_trace_par.json > /dev/null
grep -q '"schema": "hermes-trace/v1"' /tmp/hermes_trace_serial.json \
  || { echo "ci: trace document missing hermes-trace/v1 schema" >&2; exit 1; }
grep -q '^  "dropped_events": 0,$' /tmp/hermes_trace_serial.json \
  || { echo "ci: trace dropped events (ring overflow)" >&2; exit 1; }
grep -q '^  "warnings": \[\]$' /tmp/hermes_trace_serial.json \
  || { echo "ci: trace recorded warnings" >&2; exit 1; }
grep -v '"wall' /tmp/hermes_trace_serial.json > /tmp/hermes_trace_serial.stripped
grep -v '"wall' /tmp/hermes_trace_par.json > /tmp/hermes_trace_par.stripped
diff /tmp/hermes_trace_serial.stripped /tmp/hermes_trace_par.stripped \
  || { echo "ci: trace diverged between --jobs 1 and 4" >&2; exit 1; }
test -s /tmp/hermes_trace_serial.chrome.json \
  || { echo "ci: chrome trace rendering missing" >&2; exit 1; }

# CLI surface: --list prints every id without running anything, the
# output flags refuse to run with nothing selected, and --jobs rejects
# zero or unparsable worker counts instead of silently defaulting.
# (Capture once and grep the variable: piping straight into `grep -q`
# races an EPIPE panic in the binary when grep exits on first match.)
LIST=$("$EXP" --list)
for id in e13 e14 e15 e16 e17 e18 e19; do
  grep -q "^$id " <<< "$LIST" || { echo "ci: --list missing $id" >&2; exit 1; }
done
if "$EXP" --list --trace /tmp/never.json > /dev/null 2>&1; then
  echo "ci: --list --trace must be rejected" >&2; exit 1
fi
if "$EXP" --list --profile /tmp/never.json > /dev/null 2>&1; then
  echo "ci: --list --profile must be rejected" >&2; exit 1
fi
if "$EXP" --profile > /dev/null 2>&1; then
  echo "ci: bare --profile must be rejected" >&2; exit 1
fi
if "$EXP" --jobs 0 --list > /dev/null 2>&1; then
  echo "ci: --jobs 0 must be rejected" >&2; exit 1
fi
if "$EXP" --jobs banana --list > /dev/null 2>&1; then
  echo "ci: --jobs banana must be rejected" >&2; exit 1
fi
if "$EXP" --jobs > /dev/null 2>&1; then
  echo "ci: bare --jobs must be rejected" >&2; exit 1
fi

# E11 smoke: the throughput experiment must run end to end and emit JSON.
"$EXP" e11 --json /tmp/hermes_bench_smoke.json > /dev/null
python3 -c "import json; assert json.load(open('/tmp/hermes_bench_smoke.json'))['schema'] == 'hermes-bench/v1'"

# E12 smoke: the observability-overhead experiment must run end to end
# and its trace document must carry the hermes-trace/v1 schema line.
"$EXP" e12 --trace /tmp/hermes_e12_trace.json > /dev/null
grep -q '"schema": "hermes-trace/v1"' /tmp/hermes_e12_trace.json \
  || { echo "ci: e12 trace missing schema line" >&2; exit 1; }
python3 -c "import json; json.load(open('/tmp/hermes_e12_trace.json'))"

# E13 smoke: event-driven settle must run end to end, emit schema'd
# JSON, and report a sane activity factor (0 < f <= 1) for every kernel.
"$EXP" e13 --json /tmp/hermes_e13_smoke.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open('/tmp/hermes_e13_smoke.json'))
assert doc["schema"] == "hermes-bench/v1"
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
rows = tables["e13a"]["rows"]
assert len(rows) >= 3, "e13a must cover the kernel set"
for row in rows:
    f = float(row["activity"])
    assert 0.0 < f <= 1.0, f"activity factor {f} out of (0, 1]"
print("ci: e13 activity factors sane")
PY

# E14 smoke: the serving experiment must run end to end, emit schema'd
# JSON, sweep at least four offered loads reaching 1.5x saturation, and
# account every request at every point: served + shed + rejected ==
# offered, with zero unaccounted requests in the chaos campaign too.
"$EXP" e14 --json /tmp/hermes_e14_smoke.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open('/tmp/hermes_e14_smoke.json'))
assert doc["schema"] == "hermes-bench/v1"
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
sweep = tables["e14a"]["rows"]
assert len(sweep) >= 4, "e14a must sweep at least 4 offered loads"
assert max(int(r["load_pct"]) for r in sweep) >= 150, "sweep must pass 1.5x saturation"
for row in sweep:
    offered = int(row["offered"])
    total = int(row["served"]) + int(row["shed"]) + int(row["rejected"])
    assert total == offered, f"load {row['load_pct']}%: {total} accounted of {offered} offered"
for row in tables["e14b"]["rows"]:
    assert row["accounted"] == "yes", f"chaos campaign unaccounted: {row}"
assert any(int(r["requeued"]) > 0 for r in tables["e14b"]["rows"]), "chaos must requeue mid-batch work"
print("ci: e14 shed accounting holds at every load")
PY

# E15 smoke: the adversarial-isolation experiment must run end to end,
# emit schema'd JSON, sweep at least four seeds, and hold the
# zero-silent-leak gate at every point: probes == trapped, zero silent
# probes, sentinels intact, no trap blamed on a victim, and every fuzzed
# hypercall attributed.
"$EXP" e15 --json /tmp/hermes_e15_smoke.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open('/tmp/hermes_e15_smoke.json'))
assert doc["schema"] == "hermes-bench/v1"
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
sweep = tables["e15a"]["rows"]
assert len({r["seed"] for r in sweep}) >= 4, "e15a must sweep at least 4 seeds"
assert len({r["isolation"] for r in sweep}) == 2, "e15a must cover both isolation modes"
for row in sweep:
    assert int(row["probes"]) == int(row["trapped"]), f"unaccounted probes: {row}"
    assert int(row["silent"]) == 0, f"silent cross-partition probe: {row}"
    assert row["sentinels"] == "intact", f"victim sentinel breached: {row}"
    assert int(row["victim_blamed"]) == 0, f"trap blamed on a victim: {row}"
    assert row["leak_free"] == "yes", f"leak gate failed: {row}"
    assert int(row["escalations"]) >= 1 and int(row["failovers"]) >= 1, f"HM ladder idle: {row}"
for row in tables["e15d"]["rows"]:
    assert int(row["attempts"]) == int(row["attributed"]), f"unattributed fuzz: {row}"
    assert int(row["silent"]) == 0, f"silent fuzzed hypercall: {row}"
print("ci: e15 zero-silent-leak gate holds")
PY

# E17: causal tracing, critical-path profiling, SLO burn-rate alerting.
# One run emits the smoke JSON and a profile at --jobs 1; a second run
# profiles at --jobs 4. Profiles carry no wall channel at all, so the
# jobs-determinism diff is a straight byte diff, no stripping.
"$EXP" e17 --jobs 1 --json /tmp/hermes_e17_smoke.json --profile /tmp/hermes_e17_p1.json > /dev/null
"$EXP" e17 --jobs 4 --profile /tmp/hermes_e17_p4.json > /dev/null
grep -q '"schema": "hermes-profile/v1"' /tmp/hermes_e17_p1.json \
  || { echo "ci: profile document missing hermes-profile/v1 schema" >&2; exit 1; }
if grep -q '"wall' /tmp/hermes_e17_p1.json; then
  echo "ci: profile document must carry no wall-clock fields" >&2; exit 1
fi
diff /tmp/hermes_e17_p1.json /tmp/hermes_e17_p4.json \
  || { echo "ci: profile diverged between --jobs 1 and 4" >&2; exit 1; }
diff /tmp/hermes_e17_p1.folded /tmp/hermes_e17_p4.folded \
  || { echo "ci: folded stacks diverged between --jobs 1 and 4" >&2; exit 1; }
python3 - <<'PY'
import json
doc = json.load(open('/tmp/hermes_e17_smoke.json'))
assert doc["schema"] == "hermes-bench/v1"
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
sweep = tables["e17a"]["rows"]
assert len(sweep) >= 4, "e17a must sweep at least 4 offered loads"
for row in sweep:
    load = int(row["load_pct"])
    assert int(row["cp_exact"]) == int(row["cp_total"]) == int(row["served"]), \
        f"critical-path accounting broken: {row}"
    paged = row["alert"] == "page"
    assert paged == (load >= 150), f"SLO must page at >=150% and only there: {row}"
    if paged:
        assert int(row["transitions"]) > 0, f"paging without alert transitions: {row}"
for row in tables["e17b"]["rows"]:
    assert row["identical"] == "yes", f"tracing changed results: {row}"
chain = {r["subsystem"] for r in tables["e17d"]["rows"]}
assert {"hls", "dma", "xng"} <= chain, f"cross-layer trace incomplete: {chain}"
print("ci: e17 critical-path + SLO gates hold")
PY

# E18 smoke: the cross-layer fast-forward experiment must run end to
# end, emit schema'd JSON, fast-forward in every layer, and clear the
# >=10x cross-layer polled-tick reduction gate (the gate is algorithmic —
# counted scheduler passes, not wall clock — so it is safe to assert on
# a live run even on this single shared core). That fast-forward never
# moves results is held by the test suite: a digest pinned from the
# polling engines (determinism.rs) and per-layer polling oracles in the
# XNG and AXI tests.
"$EXP" e18 --jobs 1 --json /tmp/hermes_e18_smoke.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open('/tmp/hermes_e18_smoke.json'))
assert doc["schema"] == "hermes-bench/v1"
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
rows = {r["layer"]: r for r in tables["e18a"]["rows"]}
assert {"serve", "xng", "axi", "total"} <= set(rows), f"e18a layers missing: {set(rows)}"
for name, row in rows.items():
    if name != "total":
        assert int(row["skipped"]) > 0, f"{name} leg never fast-forwarded: {row}"
total = rows["total"]
assert int(total["polled"]) + int(total["skipped"]) == int(total["span_ticks"])
reduction = int(total["reduction_x"])
assert reduction >= 10, f"perf gate: {reduction}x < 10x polled-tick reduction"
print(f"ci: e18 fast-forward gate holds ({reduction}x polled-tick reduction)")
PY

# E19 smoke: the sharded-fleet experiment must run end to end, emit
# schema'd JSON, sweep 4/8/16 shards over at least a million requests,
# account every request on every row (served + shed + rejected +
# balancer_shed == offered — under shard-kill chaos too: evacuated work
# is re-routed, never lost), keep the routing skew under the 1.5x gate,
# and show the autoscaler taking at least one scale-up and one completed
# drain-then-kill scale-down.
"$EXP" e19 --jobs 1 --json /tmp/hermes_e19_smoke.json > /dev/null
python3 - <<'PY'
import json
doc = json.load(open('/tmp/hermes_e19_smoke.json'))
assert doc["schema"] == "hermes-bench/v1"
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
def accounted(row):
    total = (int(row["served"]) + int(row["shed"]) + int(row["rejected"])
             + int(row.get("balancer_shed", 0)))
    assert total == int(row["offered"]), f"fleet accounting broken: {row}"
sweep = tables["e19a"]["rows"]
assert {int(r["shards"]) for r in sweep} == {4, 8, 16}, "e19a must sweep 4/8/16 shards"
assert sum(int(r["offered"]) for r in sweep) >= 1_000_000, "e19a must offer >= 1M requests"
for row in sweep:
    accounted(row)
    assert int(row["skew_x100"]) <= 150, f"routing skew gate: {row}"
chaos = {r["campaign"]: r for r in tables["e19b"]["rows"]}
for row in chaos.values():
    accounted(row)
    assert row["accounted"] == "yes", f"fleet chaos unaccounted: {row}"
kill = next(r for r in chaos.values() if int(r["kills"]) > 0)
assert int(kill["rerouted"]) > 0, f"kills must evacuate live work: {kill}"
assert int(kill["revives"]) > 0, f"victims must rejoin the ring: {kill}"
scale = tables["e19c"]["rows"][0]
accounted(scale)
assert int(scale["scale_ups"]) >= 1, f"autoscaler never scaled up: {scale}"
assert int(scale["scale_downs"]) >= 1, f"autoscaler never drained down: {scale}"
print("ci: e19 fleet accounting, skew, and elasticity gates hold")
PY

# Committed-baseline gate: the checked-in BENCH_hermes.json must carry
# the E17 rows, and its sampled-tracing overhead row (16 permille) must
# stay under 5% vs the untraced recorder — sampling at
# `ServeConfig::trace_sample_permille` is how always-on tracing stays
# affordable. Asserted against
# the committed file (not a fresh run): this container's single shared
# core makes live wall-clock gates flaky by design.
python3 - <<'PY'
import json
doc = json.load(open('BENCH_hermes.json'))
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
rows = {str(r["sample_permille"]): r for r in tables["e17b"]["rows"]}
pct = int(rows["16"]["vs_untraced_pct"])
assert pct < 5, f"committed sampled-tracing overhead {pct}% >= 5%"
sweep = tables["e17a"]["rows"]
assert any(r["alert"] == "page" for r in sweep), "committed e17a never pages"
print(f"ci: committed sampled-tracing overhead {pct}% < 5%")
PY

# The committed baseline must also carry the E18 rows with the >=10x
# cross-layer polled-tick reduction intact.
python3 - <<'PY'
import json
doc = json.load(open('BENCH_hermes.json'))
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
total = next(r for r in tables["e18a"]["rows"] if r["layer"] == "total")
reduction = int(total["reduction_x"])
assert reduction >= 10, f"committed e18 reduction {reduction}x < 10x"
print(f"ci: committed e18 polled-tick reduction {reduction}x >= 10x")
PY

# The committed baseline must also carry the E19 rows: a >=1M-request
# fleet sweep whose 8-shard point keeps the consistent-hash + po2c
# routing skew within 1.5x of even.
python3 - <<'PY'
import json
doc = json.load(open('BENCH_hermes.json'))
tables = {t["id"]: t for e in doc["experiments"] for t in e["tables"]}
sweep = tables["e19a"]["rows"]
assert sum(int(r["offered"]) for r in sweep) >= 1_000_000, "committed e19a under 1M requests"
eight = next(r for r in sweep if int(r["shards"]) == 8)
skew = int(eight["skew_x100"])
assert skew <= 150, f"committed e19 routing skew {skew} > 150"
print(f"ci: committed e19 8-shard routing skew {skew} <= 150")
PY

echo "ci: OK"
