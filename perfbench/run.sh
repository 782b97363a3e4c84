#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Runs from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). Every workload runs with DAIL_THREADS set to the
# core count and the other DAIL_* knobs unset.
set -euo pipefail
dir=$(dirname "$0")
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec env -u DAIL_RETRIEVAL -u DAIL_EXEC -u DAIL_ANALYZE -u DAIL_TRACE_SAMPLE \
    -u DAIL_CRASH_POINT DAIL_THREADS="$(nproc)" \
    "$CARGO_TARGET_DIR/release/perfbench" "$@"
