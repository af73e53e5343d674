#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--quick] [--trace-out FILE]
#       every workload, each pass in its own process; prints every metric
#       as `<tag> <workload> <name> <value> <unit>` and exits non-zero if
#       any run failed its output check.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of stdout is the result
#       object a harness reads.
#   benchmark/run.sh --bless > benchmark/expected.json
#       regenerates the reference file (review the diff before committing).
#
# Run from the repository root or anywhere else: paths are resolved from
# this script. The build goes to $CARGO_TARGET_DIR when set, else to
# benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/dchm-benchmark" "$@"
