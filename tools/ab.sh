#!/usr/bin/env bash
# Interleaved A/B of the host-wall benchmark: a parent revision against the
# working tree this script sits in.
#
#   tools/ab.sh <parent-rev> [--workload W[,W...]] [--pairs N] [--seconds S] [--seed K]
#   tools/ab.sh <parent-rev> --counts [--seed K]
#   tools/ab.sh <parent-rev> --layer M[,M...] [--workload W[,W...]] [--pairs N] [--seconds S] [--seed K]
#
# Checks <parent-rev> out into a temporary directory, builds both trees'
# benchmark/run.sh into separate target directories, then runs N pairs
# (default 10) of untraced passes, alternating which side goes first. With no
# --workload every workload of BENCHMARK.json runs once per side per pair.
#
# Prints, per workload and end-to-end metric: each side's median and
# quartiles, the pairs the change won (ties count for neither), and whether
# the medians are further apart than the parent's interquartile distance.
# A gain is claimed only with >= 9/10 of the pairs won AND that distance
# exceeded; `*_per_s` metrics are better when higher, all others when lower.
# Failed operations are summed per side on the last line of each workload.
#
# --counts times nothing: each side makes one `--quick --trace 1` set and
# every line it tags `exact` (counts that repeat bit for bit: modeled clock
# and ops, compiles, deopts, cache hits, ...) is compared. Prints the lines
# that differ and exits 1 if any does or a side has none, else their number.
#
# --layer makes the N interleaved passes traced (`--trace 1`) and reads the
# named per-layer metrics instead: per workload and metric, each side's
# median [q1, q3] and min, then how many passes of each side reported
# `correct: false` (the benchmark's validity checks; such a pass is kept).
# It judges nothing and always exits 0.
set -euo pipefail
usage() { sed -n '2,30p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 1 ] || usage
rev="$1"; shift
workloads="" pairs=10 seconds=20 seed=20060326 counts="" layer=""
while [ $# -gt 0 ]; do
    if [ "$1" = --counts ]; then counts=1; shift; continue; fi
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workloads="${2//,/ }" ;;
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --seed) seed="$2" ;;
        --layer) layer="$2" ;;
        *) usage ;;
    esac
    shift 2
done
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -z "$workloads" ]; then
    workloads="$(grep -o '{"name": "[a-z_]*", "why"' "$root/BENCHMARK.json" | cut -d'"' -f4)"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
echo "building parent ($rev) and change ($root)" >&2
CARGO_TARGET_DIR="$tmp/target-parent" "$tmp/parent/benchmark/run.sh" --contract > /dev/null
CARGO_TARGET_DIR="$tmp/target-change" "$root/benchmark/run.sh" --contract > /dev/null
parent_bin="$tmp/target-parent/release/dchm-benchmark"
change_bin="$tmp/target-change/release/dchm-benchmark"

if [ -n "$counts" ]; then
    for side in parent change; do
        bin="${side}_bin"
        echo "$side: --quick --trace 1 --seed $seed" >&2
        "${!bin}" --quick --trace 1 --seed "$seed" | grep ' exact$' > "$tmp/exact-$side" ||
            { echo "$side: run failed or printed no exact line" >&2; exit 1; }
    done
    if diff "$tmp/exact-parent" "$tmp/exact-change"; then
        echo "all $(wc -l < "$tmp/exact-change") exact lines identical"
        exit 0
    fi
    echo "exact lines differ (< parent, > change)" >&2
    exit 1
fi

# Quantile p of v[1..n] (sorted in place), linear interpolation.
quantile='function quantile(v, n, p,    i, j, t, h, lo) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}'

# One traced pass; appends `<side> <workload> <metric> <value>` rows for the
# --layer metrics and a `<side> <workload> incorrect 0|1` row.
layer_pass() {
    local side="$1" bin="$2" w="$3"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 > "$tmp/out" || true
    awk -v side="$side" -v want=",$layer," '
        $1 == "layer" && index(want, "," $3 ",") { print side, $2, $3, $4 }' "$tmp/out" >> "$tmp/rows"
    tail -n 1 "$tmp/out" | grep -q '"correct": true' && bad=0 || bad=1
    echo "$side $w incorrect $bad" >> "$tmp/rows"
}

# One untraced pass; appends `<side> <workload> <metric> <value>` rows.
pass() {
    local side="$1" bin="$2" w="$3"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
        awk -v side="$side" '
            $1 == "e2e" && $3 == "failure_ratio" { print side, $2, "failed", substr($8, 2); next }
            $1 == "e2e" { print side, $2, $3, $4 }' >> "$tmp/rows"
}
run=pass
[ -z "$layer" ] || run=layer_pass
for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        echo "pair $i/$pairs $w" >&2
        if [ $((i % 2)) -eq 1 ]; then
            $run parent "$parent_bin" "$w"; $run change "$change_bin" "$w"
        else
            $run change "$change_bin" "$w"; $run parent "$parent_bin" "$w"
        fi
    done
done

if [ -n "$layer" ]; then
    awk -v passes="$pairs" "$quantile"'
        { key = $2 " " $3; if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
          n[$1, key]++; val[$1, key, n[$1, key]] = $4 }
        function side(s, key,    i, m, v, med) {
            m = n[s, key]
            if (!m) return sprintf("%-38s", "-")
            for (i = 1; i <= m; i++) v[i] = val[s, key, i]
            med = quantile(v, m, 0.5)  # sorts v, so v[1] is the min
            return sprintf("%8.4g [%8.4g, %8.4g] %8.4g", med, quantile(v, m, 0.25), quantile(v, m, 0.75), v[1])
        }
        END {
            printf "%-14s %-26s %-38s | %s\n", "workload", "metric", "parent median [q1, q3] min", "change median [q1, q3] min"
            for (k = 1; k <= nkeys; k++) {
                key = order[k]; split(key, part, " ")
                if (part[2] != "incorrect") { printf "%-14s %-26s %s | %s\n", part[1], part[2], side("parent", key), side("change", key); continue }
                bp = bc = 0
                for (i = 1; i <= passes; i++) { bp += val["parent", key, i]; bc += val["change", key, i] }
                printf "%-14s correct: false on parent %d/%d, change %d/%d passes\n", part[1], bp, passes, bc, passes
            }
        }' "$tmp/rows"
    exit 0
fi

awk -v pairs="$pairs" '
    function abs(x) { return x < 0 ? -x : x }
    '"$quantile"'
    { key = $2 " " $3; if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
      n[$1, key]++; val[$1, key, n[$1, key]] = $4 }
    END {
        printf "%-14s %-22s %12s %12s %12s | %12s %12s %12s | %6s %5s %s\n", "workload", "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "ratio", "won", "vs parent IQR"
        for (k = 1; k <= nkeys; k++) {
            key = order[k]; split(key, part, " ")
            if (part[2] == "failed") {
                fp = fc = 0
                for (i = 1; i <= pairs; i++) { fp += val["parent", key, i]; fc += val["change", key, i] }
                printf "%-14s failed operations over %d passes: parent %d, change %d\n", part[1], pairs, fp, fc
                continue
            }
            higher = (part[2] ~ /_per_s$/)
            won = ties = 0
            for (i = 1; i <= pairs; i++) {
                a[i] = val["parent", key, i]; b[i] = val["change", key, i]
                if (a[i] == b[i]) ties++; else if ((b[i] > a[i]) == higher) won++
            }
            pq1 = quantile(a, pairs, 0.25); pm = quantile(a, pairs, 0.5); pq3 = quantile(a, pairs, 0.75)
            cq1 = quantile(b, pairs, 0.25); cm = quantile(b, pairs, 0.5); cq3 = quantile(b, pairs, 0.75)
            better = higher ? cm > pm : cm < pm
            verdict = abs(cm - pm) > pq3 - pq1 ? (better ? "beyond, better" : "beyond, WORSE") : "within"
            printf "%-14s %-22s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %6.3f %2d/%-2d %s\n", part[1], part[2], pq1, pm, pq3, cq1, cm, cq3, pm ? cm / pm : 0, won, pairs - ties, verdict
        }
    }
' "$tmp/rows"
