#!/usr/bin/env bash
# benchcheck: benchmark-regression gate.
#
# Checks out a baseline ref into a temporary git worktree, runs the
# kernel, observability, pipeline and wire-decode benchmarks in both
# trees with identical settings, and fails when HEAD regresses any benchmark
# present in both by more than THRESHOLD percent ns/op. Benchmarks that
# exist on only one side (renamed or newly added) are reported and
# skipped, so adding a rung never breaks the gate.
#
# A second pair of runs, of the pooled hot-path benchmarks (names
# matching "Pooled") only, goes through benchdiff in -allocs mode, which
# gates B/op and allocs/op EXACTLY (no threshold, no floor): allocation
# counts are deterministic, so a single new alloc/op on the
# zero-allocation inference path fails the gate. Those runs use
# -cpu 1,2, so both the serial branch of every kernel and the branch
# that hands work to the worker pool are gated.
#
# Knobs (environment):
#   BASE_REF    baseline ref (default: origin/main if it exists, else HEAD~1)
#   THRESHOLD   allowed ns/op regression in percent (default: 15)
#   FLOOR       noise floor in ns/op: regressions smaller than this
#               absolute delta never fail, however large in percent —
#               keeps single-digit-ns benchmarks from tripping the
#               blocking gate on jitter (default: 20)
#   BENCHTIME   go test -benchtime per case (default: 200ms)
#   COUNT       go test -count; the gate compares per-benchmark medians
#               across runs to suppress scheduler noise (default: 5)
#   PKGS        packages to benchmark (default: ./internal/kernels/
#               ./internal/obs/ ./internal/core/ ./internal/parallel/
#               ./internal/serve/)
#   GITHUB_STEP_SUMMARY  when set (GitHub Actions sets it), both
#               benchdiff passes also append their verdicts there as
#               markdown tables
set -euo pipefail
cd "$(dirname "$0")/.."

# An interrupted earlier run (Ctrl-C, CI cancellation, OOM kill) can
# leave its baseline worktree behind; a leftover registration also
# blocks future checkouts of the same ref. Reap any stale benchcheck
# worktrees first — idempotent, and never touches worktrees this script
# did not create (ours live under a mktemp "benchcheck." directory).
git worktree list --porcelain 2>/dev/null | awk '/^worktree /{print $2}' |
    while IFS= read -r wt; do
        case "$wt" in
        */benchcheck.*/base)
            echo "benchcheck: removing stale worktree $wt"
            git worktree remove --force "$wt" 2>/dev/null || true
            rm -rf "$(dirname "$wt")"
            ;;
        esac
    done
git worktree prune

BASE_REF="${BASE_REF:-}"
if [ -z "$BASE_REF" ]; then
    if git rev-parse --verify -q origin/main >/dev/null; then
        BASE_REF=origin/main
    else
        BASE_REF=HEAD~1
    fi
fi
THRESHOLD="${THRESHOLD:-15}"
FLOOR="${FLOOR:-20}"
BENCHTIME="${BENCHTIME:-200ms}"
COUNT="${COUNT:-5}"
PKGS="${PKGS:-./internal/kernels/ ./internal/obs/ ./internal/core/ ./internal/parallel/ ./internal/serve/}"

tmp="$(mktemp -d -t benchcheck.XXXXXXXX)"
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
}
# The EXIT trap alone does not fire when a signal kills the shell;
# convert INT/TERM into an exit so cleanup always runs, with the
# conventional 128+signal status.
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

echo "benchcheck: baseline $BASE_REF vs HEAD (threshold ${THRESHOLD}%, floor ${FLOOR}ns, benchtime $BENCHTIME, count $COUNT)"
git worktree add --quiet --detach "$tmp/base" "$BASE_REF"

run_bench() { # $1 = tree, $2 = output file, then extra go test flags
    local tree="$1" out="$2"
    shift 2
    # A package may not exist in the baseline tree yet; benchmark the
    # intersection so newly added benchmark packages never break the gate.
    (
        cd "$tree"
        pkgs=""
        for p in $PKGS; do
            if [ -d "$p" ]; then pkgs="$pkgs $p"; fi
        done
        go test -run '^$' -benchmem -benchtime="$BENCHTIME" "$@" $pkgs
    ) >"$out"
}

run_bench "$tmp/base" "$tmp/base.txt" -bench . -count="$COUNT"
run_bench . "$tmp/head.txt" -bench . -count="$COUNT"
run_bench "$tmp/base" "$tmp/base.allocs.txt" -bench Pooled -count="$COUNT" -cpu 1,2
run_bench . "$tmp/head.allocs.txt" -bench Pooled -count="$COUNT" -cpu 1,2

# benchdiff always runs from HEAD's tree, so the baseline does not need
# to contain the tool. Under GitHub Actions the verdicts also land on
# the run's summary page as markdown tables.
md="${GITHUB_STEP_SUMMARY:-}"
go run ./cmd/benchdiff -threshold "$THRESHOLD" -floor "$FLOOR" ${md:+-md "$md"} "$tmp/base.txt" "$tmp/head.txt"
go run ./cmd/benchdiff -allocs ${md:+-md "$md"} "$tmp/base.allocs.txt" "$tmp/head.allocs.txt"
