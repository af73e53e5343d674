#!/usr/bin/env bash
# Runs two full sets of the same build and compares them.
#
#   benchmark/repeat.sh [--quick] [--seed N] [--seconds S]
#
# Prints each end-to-end metric's relative difference between the two sets
# next to its bound, and every exact count that differs; exits non-zero if
# a difference exceeds its bound, an exact count moved, or a run failed its
# output check. `--quick` is the smoke mode: 1 warm-up + 2 iterations per
# workload, untraced pass only, under 15 s per set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
args=("$@")
for a in "$@"; do
    if [ "$a" = "--quick" ]; then args+=(--trace 0); fi
done
mkdir -p "$target"
first="$target/repeat.$$.first" second="$target/repeat.$$.second"
trap 'rm -f "$first" "$second"' EXIT
"$here/run.sh" "${args[@]}" > "$first"
"$here/run.sh" "${args[@]}" > "$second"
awk '
    function abs(x) { return x < 0 ? -x : x }
    $1 == "e2e" {
        key = $2 " " $3
        bound = 0
        for (i = 6; i <= NF; i++) if ($i ~ /^bound=/) bound = substr($i, 7) + 0
        if (FNR == NR) { a[key] = $4; next }
        d = (a[key] == $4) ? 0 : abs($4 - a[key]) / abs(a[key])
        verdict = (d <= bound) ? "ok" : "EXCEEDS"
        if (d > bound) bad++
        printf "%-44s %16.6g %16.6g  diff %6.2f%%  bound %5.1f%%  %s\n", key, a[key], $4, 100 * d, 100 * bound, verdict
        next
    }
    $1 == "layer" && $NF == "exact" {
        key = $2 " " $3
        if (FNR == NR) { x[key] = $4; next }
        if (x[key] != $4) { bad++; printf "%-44s %16s %16s  exact count MOVED\n", key, x[key], $4 }
        else same++
    }
    END {
        printf "%d exact counts identical in both sets\n", same
        if (bad) { printf "%d comparison(s) out of bounds\n", bad; exit 1 }
    }
' "$first" "$second"
