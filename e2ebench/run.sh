#!/usr/bin/env bash
# Builds qpilotd (from the repository's workspace) and the benchmark
# harness, then runs the harness with the given arguments:
#
#   bash e2ebench/run.sh --workload cold-sweep|warm-fetch \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Build output goes to stderr, so the
# last line of stdout is the harness's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p qpilot-service --bin qpilotd 1>&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/qpilot-e2ebench" \
    --daemon "$CARGO_TARGET_DIR/release/qpilotd" "$@"
