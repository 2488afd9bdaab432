#!/bin/sh
# ab.sh — side-by-side benchmark of a base revision against the working tree.
#
#   scripts/ab.sh <rev> [workload] [pairs] [seconds]
#
# Builds the repository benchmark (perfbench/) from a temporary checkout of
# <rev> (git archive, so the repository's own state is untouched) and from
# the working tree, then runs the two binaries alternately: <pairs> pairs
# (default 6, at least 6) of one closed-loop run each on <workload>
# (default abort-storm-64), <seconds> seconds per run (default 10). The
# order inside a pair alternates (base first, then change first) so that a
# host slowing down or speeding up during the comparison weighs on both sides
# alike. Every sample is printed; the summary gives each side's median,
# min and max wall_s and the change of the medians. The script fails if
# either side reports a result that does not match the committed digests
# ("correct": false).
#
# Host drift is larger than most effects worth measuring here, so compare
# only runs made side by side like this, never a run with a stored number.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: scripts/ab.sh <rev> [workload] [pairs] [seconds]" >&2
    exit 2
fi
REV=$1
WORKLOAD=${2:-abort-storm-64}
PAIRS=${3:-6}
SECS=${4:-10}
if [ "$PAIRS" -lt 6 ]; then
    echo "ab: need at least 6 pairs, got $PAIRS" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
ROOT=$(pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

export GOWORK=off GOFLAGS=

echo "ab: building $REV and the working tree..." >&2
mkdir "$TMP/base"
git archive "$REV" | tar -x -C "$TMP/base"
(cd "$TMP/base/perfbench" && go build -o "$TMP/perfbench-base" .)
(cd "$ROOT/perfbench" && go build -o "$TMP/perfbench-change" .)

# run SIDE appends the result line of one run to $TMP/SIDE.jsonl.
run() {
    "$TMP/perfbench-$1" -workload "$WORKLOAD" -seconds "$SECS" 2>/dev/null |
        tail -n 1 >>"$TMP/$1.jsonl"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base
        run change
    else
        run change
        run base
    fi
    echo "ab: pair $i/$PAIRS done" >&2
    i=$((i + 1))
done

python3 - "$TMP/base.jsonl" "$TMP/change.jsonl" "$REV" "$WORKLOAD" <<'EOF'
import json, statistics, sys

base_path, change_path, rev, workload = sys.argv[1:5]
sides = {}
bad = False
for name, path in (("base", base_path), ("change", change_path)):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    for r in runs:
        if not r.get("correct"):
            print(f"ab: {name} reported correct:false ({r.get('failed')} of {r.get('attempted')} specs)")
            bad = True
    sides[name] = [r["metrics"]["wall_s"]["value"] for r in runs]

print(f"ab: {workload}, base {rev} vs working tree, {len(sides['base'])} pairs")
for i, (b, c) in enumerate(zip(sides["base"], sides["change"]), 1):
    print(f"  pair {i}: base {b:.4f} s  change {c:.4f} s  ({(c - b) / b * 100:+.1f}%)")
for name, vals in sides.items():
    print(f"  {name:6s} wall_s median {statistics.median(vals):.4f}  min {min(vals):.4f}  max {max(vals):.4f}")
mb, mc = statistics.median(sides["base"]), statistics.median(sides["change"])
wins = sum(c < b for b, c in zip(sides["base"], sides["change"]))
print(f"  median change {(mc - mb) / mb * 100:+.1f}%, change faster in {wins} of {len(sides['base'])} pairs")
sys.exit(1 if bad else 0)
EOF
