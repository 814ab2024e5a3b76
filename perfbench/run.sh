#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>] [--rev <text>]
#
# Cargo output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
# Fixed malloc settings, so peak RSS measures the program's memory rather
# than glibc's heuristics: one arena instead of per-thread arenas, and
# fixed mmap/trim thresholds instead of the dynamic ones, which moved
# blocks above 4 MiB into the heap or not from run to run (pipeline peak
# RSS 40-46 MB with them, 20-21 MB without).
export GLIBC_TUNABLES=glibc.malloc.arena_max=1:glibc.malloc.mmap_threshold=4194304:glibc.malloc.trim_threshold=67108864
exec "$CARGO_TARGET_DIR/release/hermes-perfbench" "$@"
