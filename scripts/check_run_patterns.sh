#!/bin/sh
# check_run_patterns.sh — fail when a `go test -run` or `-bench` pattern in
# CI, the Makefile or scripts/ names a test that no longer exists.
#
# A deleted or renamed test makes `go test -run '<re>'` pass vacuously, so
# a CI step can silently stop testing anything. For every `go test`
# command in .github/workflows/{ci,nightly}.yml, Makefile and scripts/*.sh
# (backslash-continued lines joined), each alternative of its -run and
# -bench patterns must list at least one test, benchmark, example or fuzz
# target under `go test -list` in the command's packages (default: the
# repository root). Only the top level of a pattern (before the first '/')
# can be listed; subtest levels are not checked. '^$', the idiom for "run
# no tests", is skipped.
#
# Usage: scripts/check_run_patterns.sh      (exit 1 on a stale pattern)
set -eu
cd "$(dirname "$0")/.."

FILES=".github/workflows/ci.yml .github/workflows/nightly.yml Makefile scripts/*.sh"
CMDS="$(mktemp)"
trap 'rm -f "$CMDS"' EXIT INT TERM

# One line per go test command: file, then the joined command text.
for f in $FILES; do
    awk -v file="$f" '
        /^[ \t]*#/ { next }
        { line = acc $0; acc = "" }
        /\\$/ { sub(/\\$/, "", line); acc = line; next }
        line ~ /(^|[^A-Za-z])(go|\$\(GO\)) test / && line ~ /-(run|bench) / { print file "\t" line }
    ' "$f"
done >"$CMDS"

# alternatives prints each alternative of a top-level pattern on its own
# line: "^(A|B)$" -> "^A$", "^B$"; "A$|B" -> "A$", "B"; anything else with
# a group is checked whole.
alternatives() {
    case "$1" in
    '^('*')$')
        inner="${1#^(}"
        inner="${inner%)\$}"
        case "$inner" in
        *'('*) printf '%s\n' "$1" ;;
        *) printf '%s\n' "$inner" | tr '|' '\n' | sed 's/.*/^&$/' ;;
        esac
        ;;
    *'('*) printf '%s\n' "$1" ;;
    *) printf '%s\n' "$1" | tr '|' '\n' ;;
    esac
}

status=0
checked=0
TAB="$(printf '\t')"
while IFS="$TAB" read -r file cmd; do
    pkgs="$(printf '%s\n' "$cmd" | tr ' ' '\n' | grep -E '^\.(/|$)' | tr '\n' ' ' || true)"
    [ -n "$pkgs" ] || pkgs="."
    for flag in run bench; do
        re="$(printf '%s\n' "$cmd" | sed -n "s/.*-$flag '\([^']*\)'.*/\1/p")"
        [ -n "$re" ] && [ "$re" != '^$' ] || continue
        top="${re%%/*}"
        for alt in $(alternatives "$top"); do
            checked=$((checked + 1))
            # shellcheck disable=SC2086 # pkgs is a word list
            if ! go test -list "$alt" $pkgs 2>&1 | grep -Eq '^(Test|Benchmark|Example|Fuzz)'; then
                echo "$file: go test -$flag '$re' $pkgs: '$alt' lists no test" >&2
                status=1
            fi
        done
    done
done <"$CMDS"

if [ "$checked" -eq 0 ]; then
    echo "check_run_patterns: found no go test -run/-bench patterns" >&2
    exit 2
fi
[ "$status" -eq 0 ] && echo "check_run_patterns: $checked pattern alternatives all list a test"
exit "$status"
