#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repository
# root, passing every argument through:
#
#   bash fleetbench/run.sh --workload fleet_dense --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of standard output is the
# benchmark's JSON result. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path fleetbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/fleetbench" "$@"
