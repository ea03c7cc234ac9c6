#!/usr/bin/env bash
# Build the host benchmark from source and run one workload.
#
#   bash hostbench/run.sh --workload kernels-intra --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default: hostbench/target); its output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/hostbench" "$@"
