#!/usr/bin/env bash
# Builds snoopyd and the benchmark from source, then runs one benchmark
# workload from the repository root:
#
#   bash perfbench/run.sh --workload scan_heavy --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr, so stdout holds only the benchmark's report
# (its last line is the JSON result). CARGO_TARGET_DIR defaults to
# .bench_build under the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=perfbench/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest" -p snoopy-net --bin snoopyd >&2
cargo build --release --offline --quiet --manifest-path "$manifest" --bin perfbench >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --snoopyd "$CARGO_TARGET_DIR/release/snoopyd" "$@"
