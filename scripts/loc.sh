#!/usr/bin/env bash
# loc: report non-test Go and assembly lines per internal/* package and
# per cmd/* command at a baseline ref and in this tree, with the net delta — ROADMAP aim 2 makes
# net line count a reported metric ("negative is good").
#
# Lines are plain `wc -l` over *.go files that are not *_test.go and
# over *.s files, so comments and blank lines count: deleting
# documentation is not a saving, moving code into tests is not one
# either, and neither is moving it into assembly.
#
# Knobs (environment):
#   BASE_REF  baseline ref (default: origin/main if it exists, else HEAD~1)
#   GITHUB_STEP_SUMMARY  when set (GitHub Actions sets it), the table is
#             also appended there
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${BASE_REF:-}"
if [ -z "$BASE_REF" ]; then
    if git rev-parse --verify -q origin/main >/dev/null; then
        BASE_REF=origin/main
    else
        BASE_REF=HEAD~1
    fi
fi

base="$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")"
trap 'rm -rf "$base"' EXIT
git archive "$BASE_REF" internal cmd | tar -x -C "$base"

# count ROOT prints "package lines" for every package under ROOT/internal
# and ROOT/cmd.
count() {
    (cd "$1" && find internal cmd \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -print0 |
        xargs -0 awk 'FNR == 1 { n = split(FILENAME, p, "/"); pkg = p[1] "/" p[2] } { lines[pkg]++ }
            END { for (pkg in lines) print pkg, lines[pkg] }')
}

table="$({
    echo "| package | $BASE_REF | this tree | delta |"
    echo "|---|---:|---:|---:|"
    join -a1 -a2 -e0 -o 0,1.2,2.2 <(count "$base" | sort) <(count . | sort) |
        awk '{ d = $3 - $2; b += $2; h += $3
               printf "| %s | %d | %d | %+d |\n", $1, $2, $3, d }
             END { printf "| **total** | %d | %d | %+d |\n", b, h, h - b }'
})"
echo "$table"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### Non-test Go and assembly lines per package"
        echo
        echo "$table"
    } >>"$GITHUB_STEP_SUMMARY"
fi
