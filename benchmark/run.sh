#!/usr/bin/env bash
# Builds the harness in release mode and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat N] [--smoke]   all workloads, untraced then traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1  one run (what BENCHMARK.json's command calls)
#   benchmark/run.sh compare A.json B.json                             judge B against A by the bounds
#
# Works from any directory. The target directory is $CARGO_TARGET_DIR when
# set (relative paths resolve against the caller's directory), otherwise
# benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
target="$CARGO_TARGET_DIR"
[[ "$target" = /* ]] || target="$PWD/$target"
exec "$target/release/spg-benchmark" "$@"
