#!/usr/bin/env bash
# Byte-identity check of the sweep artifacts against another
# revision (default HEAD~1).
#
#   scripts/check_identity.sh [REV]
#
# Builds REV's sweep in a temporary git worktree and the working
# tree's sweep in BUILD_DIR, then runs one --quick slice that
# covers solo, two-tenant, sampled and introspection points with
# every artifact flag on, plus two fig06 flag-group slices. It
# requires:
#   - the merged report, --timeseries-out and --heatmap-out to be
#     byte-identical between the two builds;
#   - the merged reports of two fig06 slices to be byte-identical
#     between the two builds: one with the sampling, histogram
#     and trace-cache-off flags, one with the trace-cache budget
#     and retry/deadline flags;
#   - --jobs 1 to reproduce the --jobs 2 artifacts byte for byte;
#   - a --resume from the --jobs 2 journal to execute nothing and
#     reproduce the artifacts byte for byte;
#   - a --resume from REV's journal to execute nothing and
#     reproduce REV's artifacts byte for byte (skipped, with the
#     reason printed, only when REV's journal magic line differs
#     from the working tree's).
#
# Environment: BUILD_DIR (working-tree build, default build) and
# JOBS (build parallelism).
set -euo pipefail

cd "$(dirname "$0")/.."

REV="${1:-HEAD~1}"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
FILTER=fig06,colocation,introspection,sampling_validation
TMP="$(mktemp -d)"
WORKTREE="$TMP/ref"

cleanup() {
    git worktree remove --force "$WORKTREE" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

build_sweep() { # SOURCE_DIR BUILD_DIR
    if [ ! -f "$2/CMakeCache.txt" ]; then
        cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release \
            -DFPC_BUILD_TESTS=OFF -DFPC_BUILD_EXAMPLES=OFF >/dev/null
    fi
    cmake --build "$2" -j "$JOBS" --target sweep >/dev/null
}

run_slice() { # SWEEP OUT_DIR JOBS [extra sweep flags...]
    local sweep="$1" out="$2" jobs="$3"
    shift 3
    mkdir -p "$out"
    "$sweep" --quick --jobs "$jobs" --filter "$FILTER" --no-report \
        --interval-records 20000 --design-probes \
        --miss-attribution 64 \
        --timeseries-out "$out/ts.json" \
        --heatmap-out "$out/heat.json" \
        --out "$out/report.json" "$@" >"$out/log.txt" 2>&1
}

# The flag groups the artifact slice leaves at their defaults.
SAMPLING_FLAGS=(--sample-mode --sample-intervals 6
    --sample-interval-records 2000 --sample-target-ci 0.05
    --histograms --no-trace-cache)
RUNNER_FLAGS=(--trace-cache-mb 64 --retries 0 --backoff-ms 1
    --point-deadline-s 600)

run_fig06() { # SWEEP OUT_DIR [extra sweep flags...]: report only
    local sweep="$1" out="$2"
    shift 2
    mkdir -p "$out"
    "$sweep" --quick --jobs 2 --filter fig06 --no-report \
        --out "$out/report.json" "$@" >"$out/log.txt" 2>&1
}

journal_magic() { # JOURNAL_DIR: first line of its first entry
    local f
    for f in "$1"/*.pt; do
        [ -f "$f" ] && head -n 1 "$f"
        return 0
    done
}

failures=0
expect_same() { # WHAT DIR_A DIR_B [FILE...] (default: all three)
    local what="$1" a="$2" b="$3" f
    shift 3
    [ "$#" -gt 0 ] || set -- report.json ts.json heat.json
    for f in "$@"; do
        if cmp -s "$a/$f" "$b/$f"; then
            echo "ok   $what: $f"
        else
            echo "FAIL $what: $f differs ($a/$f vs $b/$f)"
            failures=$((failures + 1))
        fi
    done
}
expect_no_execution() { # WHAT OUT_DIR
    if grep -q " 0 executed" "$2/log.txt"; then
        echo "ok   $1 executed no point"
    else
        echo "FAIL $1 re-executed points:"
        grep "executed" "$2/log.txt" || true
        failures=$((failures + 1))
    fi
}

echo "building $REV in a temporary worktree" >&2
git worktree add --detach "$WORKTREE" "$REV" >/dev/null
build_sweep "$WORKTREE" "$WORKTREE/build"
echo "building the working tree in $BUILD_DIR" >&2
build_sweep . "$BUILD_DIR"

echo "running slice $FILTER" >&2
run_slice "$WORKTREE/build/sweep" "$TMP/ref-j2" 2 \
    --journal "$TMP/ref-journal"
run_slice "$BUILD_DIR/sweep" "$TMP/new-j2" 2 --journal "$TMP/journal"
run_slice "$BUILD_DIR/sweep" "$TMP/new-j1" 1
run_slice "$BUILD_DIR/sweep" "$TMP/new-resume" 2 \
    --journal "$TMP/journal" --resume

expect_same "$REV vs working tree" "$TMP/ref-j2" "$TMP/new-j2"

echo "running fig06 flag-group slices" >&2
run_fig06 "$WORKTREE/build/sweep" "$TMP/ref-sampling" "${SAMPLING_FLAGS[@]}"
run_fig06 "$BUILD_DIR/sweep" "$TMP/new-sampling" "${SAMPLING_FLAGS[@]}"
run_fig06 "$WORKTREE/build/sweep" "$TMP/ref-runner" "${RUNNER_FLAGS[@]}"
run_fig06 "$BUILD_DIR/sweep" "$TMP/new-runner" "${RUNNER_FLAGS[@]}"
expect_same "$REV vs working tree, sampling flags" \
    "$TMP/ref-sampling" "$TMP/new-sampling" report.json
expect_same "$REV vs working tree, runner flags" \
    "$TMP/ref-runner" "$TMP/new-runner" report.json
expect_same "--jobs 1 vs --jobs 2" "$TMP/new-j1" "$TMP/new-j2"
expect_same "--resume vs fresh" "$TMP/new-resume" "$TMP/new-j2"
expect_no_execution "--resume" "$TMP/new-resume"

ref_magic="$(journal_magic "$TMP/ref-journal")"
new_magic="$(journal_magic "$TMP/journal")"
if [ "$ref_magic" = "$new_magic" ]; then
    run_slice "$BUILD_DIR/sweep" "$TMP/cross-resume" 2 \
        --journal "$TMP/ref-journal" --resume
    expect_same "--resume from $REV's journal vs $REV" \
        "$TMP/cross-resume" "$TMP/ref-j2"
    expect_no_execution "--resume from $REV's journal" \
        "$TMP/cross-resume"
else
    echo "skip --resume from $REV's journal: its magic" \
        "'$ref_magic' differs from the working tree's '$new_magic'"
fi

if [ "$failures" -ne 0 ]; then
    echo "check_identity: $failures check(s) failed" >&2
    exit 1
fi
echo "check_identity: all artifacts byte-identical" >&2
