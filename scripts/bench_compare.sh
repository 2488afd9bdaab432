#!/bin/sh
# bench_compare.sh — guard against benchmark regressions.
#
# Runs a fresh benchmark sweep (or takes a pre-built results file) and
# compares it against the newest committed BENCH_*.json. A benchmark
# regresses when its ns/op or allocs/op exceeds the baseline by more than
# the budget (default 15%); a benchmark whose baseline is 0 allocs/op must
# stay at 0. Benchmarks present in only one of the two files are tolerated
# and reported explicitly — added ones (no baseline yet) and removed ones
# (baseline only) are named in the output but never fail the run. Exit
# status is 1 on any regression.
#
# Usage: scripts/bench_compare.sh [fresh.json] [budget-pct]
set -eu
cd "$(dirname "$0")/.."

BUDGET="${2:-15}"

# Newest = highest number: a lexical glob would rank BENCH_9 above BENCH_10.
BASE="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)"
if [ -z "$BASE" ]; then
    echo "bench_compare: no committed BENCH_*.json baseline found" >&2
    exit 2
fi

if [ $# -ge 1 ] && [ -n "$1" ]; then
    FRESH="$1"
    CLEAN=""
else
    FRESH="$(mktemp)"
    CLEAN="$FRESH"
    sh scripts/bench.sh "$FRESH" >/dev/null
fi
trap '[ -n "$CLEAN" ] && rm -f "$CLEAN"' EXIT INT TERM

echo "comparing $FRESH against baseline $BASE (budget ±${BUDGET}%)"

# The JSON is machine-written by bench.sh with one benchmark object per
# line, so a line-oriented awk parse is reliable here.
awk -v budget="$BUDGET" '
function field(line, key,    re, s) {
    re = "\"" key "\": *[-0-9.]+"
    if (match(line, re) == 0) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: */, "", s)
    return s
}
FNR == 1 { fileno++ }
/"name":/ {
    name = $0
    sub(/^.*"name": *"/, "", name)
    sub(/".*$/, "", name)
    ns = field($0, "ns_per_op")
    allocs = field($0, "allocs_per_op")
    if (fileno == 1) {
        base_order[++bn] = name
        base_ns[name] = ns
        base_allocs[name] = allocs
    } else {
        order[++n] = name
        new_ns[name] = ns
        new_allocs[name] = allocs
    }
}
END {
    fmt = "%-28s %14s %14s %9s  %s\n"
    printf fmt, "benchmark", "base ns/op", "new ns/op", "delta", "status"
    fail = 0
    added = removed = ""
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (!(name in base_ns)) {
            added = added (added == "" ? "" : ", ") name
            printf fmt, name, "-", new_ns[name], "-", "added (no baseline)"
            continue
        }
        d = 100 * (new_ns[name] - base_ns[name]) / base_ns[name]
        status = "ok"
        if (d > budget) { status = "REGRESSION (ns/op)"; fail = 1 }
        if (base_allocs[name] + 0 == 0 && new_allocs[name] + 0 > 0) {
            status = "REGRESSION (allocs: 0 -> " new_allocs[name] ")"
            fail = 1
        } else if (base_allocs[name] + 0 > 0 && \
                   100 * (new_allocs[name] - base_allocs[name]) / base_allocs[name] > budget) {
            status = "REGRESSION (allocs/op)"
            fail = 1
        }
        printf fmt, name, base_ns[name], new_ns[name], sprintf("%+.1f%%", d), status
    }
    for (i = 1; i <= bn; i++) {
        name = base_order[i]
        if (!(name in new_ns)) {
            removed = removed (removed == "" ? "" : ", ") name
            printf fmt, name, base_ns[name], "-", "-", "removed (baseline only)"
        }
    }
    if (added != "")   printf "added benchmarks:   %s\n", added
    if (removed != "") printf "removed benchmarks: %s\n", removed
    exit fail
}' "$BASE" "$FRESH"
