#!/bin/sh
# sim_smoke.sh — end-to-end check of lockillersim's non-default run paths.
#
#   1. -export then -import (without -threads) replays the generated
#      programs: the replay prints exactly what the plain run prints,
#      thread count included, since the programs are the same.
#   2. -threelevel runs are cacheable under -results: a second identical
#      run is answered from the disk cache and reports the same cycles.
#   3. A thread count the machine cannot run (-threads 64 on 32 cores)
#      exits non-zero with a one-line error, not a panic.
#
# Fully offline; `make sim-smoke` and CI run this.
set -eu
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/lockillersim" ./cmd/lockillersim
SIM="$TMP/lockillersim -system LockillerTM -workload intruder -seed 1"

echo "sim-smoke: export/import round trip..." >&2
$SIM -threads 4 >"$TMP/plain.txt"
$SIM -threads 4 -export "$TMP/w.json" >/dev/null
$SIM -import "$TMP/w.json" >"$TMP/import.txt"
cmp "$TMP/plain.txt" "$TMP/import.txt" || {
    echo "sim-smoke: FAIL: -import replay differs from the plain run" >&2
    diff "$TMP/plain.txt" "$TMP/import.txt" >&2 || true
    exit 1
}

echo "sim-smoke: -threelevel under -results..." >&2
$SIM -threads 4 -threelevel -results "$TMP/cache" >"$TMP/3l-1.txt"
$SIM -threads 4 -threelevel -results "$TMP/cache" >"$TMP/3l-2.txt"
if grep -q '^cached' "$TMP/3l-1.txt"; then
    echo "sim-smoke: FAIL: first -threelevel run claims a cache hit" >&2
    exit 1
fi
grep -q '^cached    : disk' "$TMP/3l-2.txt" || {
    echo "sim-smoke: FAIL: second -threelevel run was not served from the disk cache" >&2
    exit 1
}
if [ "$(grep '^cycles' "$TMP/3l-1.txt")" != "$(grep '^cycles' "$TMP/3l-2.txt")" ]; then
    echo "sim-smoke: FAIL: cached -threelevel cycles differ from the fresh run" >&2
    exit 1
fi

echo "sim-smoke: -threads 64 on 32 cores..." >&2
if $SIM -threads 64 >"$TMP/bad.txt" 2>"$TMP/bad.err"; then
    echo "sim-smoke: FAIL: -threads 64 on 32 cores exited zero" >&2
    exit 1
fi
if [ "$(wc -l <"$TMP/bad.err")" -ne 1 ] || ! grep -q 'threads' "$TMP/bad.err"; then
    echo "sim-smoke: FAIL: -threads 64 did not fail with a one-line error:" >&2
    cat "$TMP/bad.err" >&2
    exit 1
fi

echo "sim-smoke: OK ($(grep '^cycles' "$TMP/plain.txt"))" >&2
