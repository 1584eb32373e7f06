#!/usr/bin/env bash
# Builds the benchmark (its own cargo package, offline) and runs it from the
# repository root. Every argument goes to the harness:
#
#   benchmark/run.sh --seed 1                 all six workloads, table + results file
#   benchmark/run.sh --seed 1 --trace         ... plus the traced runs and stage replay
#   benchmark/run.sh --quick                  smoke run, ~1/20 rows, never comparable
#   benchmark/run.sh --workload fused1-galaxy --seed 1 --seconds 15 --trace 0
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/spca-benchmark}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/spca-benchmark" "$@"
