#!/usr/bin/env bash
# Full verification: configure, build, run the unit tests, run the
# engine perf bench in its quick configuration (which also verifies
# that telemetry leaves metrics unchanged), and run a quick slice of the
# parallel sweep (which verifies registry completeness in the
# merged report).
#
# Every step runs under `set -euo pipefail`: the first non-zero
# exit aborts the script with that code.
#
# Usage: scripts/check.sh [--jobs N] [--build-dir DIR]
#   --jobs is passed to the build, to ctest and to the sweep
#   runner's shard pool (default: nproc; env JOBS also honored).

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

while [[ $# -gt 0 ]]; do
    case "$1" in
        --jobs)
            [[ $# -ge 2 ]] || { echo "--jobs needs a value" >&2; exit 2; }
            JOBS="$2"
            shift 2
            ;;
        --build-dir)
            [[ $# -ge 2 ]] || { echo "--build-dir needs a value" >&2; exit 2; }
            BUILD_DIR="$2"
            shift 2
            ;;
        *)
            echo "usage: $0 [--jobs N] [--build-dir DIR]" >&2
            exit 2
            ;;
    esac
done

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
# Bench-regression guard against the committed quick-scale
# baseline, exactly like CI: one quick run, whose per-design
# median per-rep ratio to the baseline design is machine-speed
# independent.
"$BUILD_DIR"/perf_engine --quick --out "$BUILD_DIR"/BENCH_engine_quick.json
python3 scripts/check_bench_regression.py \
    --baseline BENCH_engine_quick.json \
    --current "$BUILD_DIR"/BENCH_engine_quick.json --tolerance 0.15
# Telemetry overhead budget, read from the committed full-scale
# bench (deterministic: no re-timing on a possibly loaded box);
# fails when its 95% interval is above or straddles 2%.
python3 scripts/check_bench_regression.py \
    --telemetry-json BENCH_engine.json --telemetry-budget-pct 2.0
# A cheap sweep slice; CI's sweep-smoke job runs the full grid.
# Run it twice — at the default trace-cache budget and at 0, where
# points regenerate what they would share — and require
# byte-identical reports: the cache is a pure execution
# optimization.
"$BUILD_DIR"/sweep --quick --jobs "$JOBS" --filter fig12,table1,table4 \
    --out "$BUILD_DIR"/BENCH_sweep_quick.json
"$BUILD_DIR"/sweep --quick --jobs "$JOBS" --filter fig12,table1,table4 \
    --trace-cache-mb 0 --out "$BUILD_DIR"/BENCH_sweep_quick_nocache.json
cmp "$BUILD_DIR"/BENCH_sweep_quick.json \
    "$BUILD_DIR"/BENCH_sweep_quick_nocache.json
# Colocation interference matrix: shard-count invariance (byte
# diff of --jobs 1 vs --jobs 2) plus per-tenant metric
# conservation and matrix coverage in the shipped JSON.
"$BUILD_DIR"/sweep --quick --jobs 1 --filter colocation --no-report \
    --out "$BUILD_DIR"/BENCH_colocation_j1.json
"$BUILD_DIR"/sweep --quick --jobs 2 --filter colocation --no-report \
    --out "$BUILD_DIR"/BENCH_colocation_j2.json
cmp "$BUILD_DIR"/BENCH_colocation_j1.json \
    "$BUILD_DIR"/BENCH_colocation_j2.json
python3 scripts/check_telemetry.py \
    --colocation "$BUILD_DIR"/BENCH_colocation_j1.json
# Resilience slice: a fault-injected run (transient trace-build
# failure absorbed by retries, one permanent failure -> exit 3
# with a structured failure record) followed by a --resume that
# re-executes nothing and reproduces the report byte-identically
# from the checkpoint journal. CI's fault-smoke job runs the
# larger fig06 variant with the standalone validator.
rm -rf "$BUILD_DIR"/fault_journal
FAULT_PLAN="trace-build@WebSearch:transient:1"
FAULT_PLAN+=",point@fig04/WebSearch/page/256MB:permanent"
set +e
"$BUILD_DIR"/sweep --quick --jobs 2 --filter fig04 \
    --workload WebSearch --no-report --retries 3 \
    --fault-plan "$FAULT_PLAN" \
    --journal "$BUILD_DIR"/fault_journal \
    --out "$BUILD_DIR"/BENCH_fault_quick.json
status=$?
set -e
[[ $status -eq 3 ]] || { echo "expected exit 3, got $status" >&2; exit 1; }
set +e
"$BUILD_DIR"/sweep --quick --jobs 2 --filter fig04 \
    --workload WebSearch --no-report \
    --journal "$BUILD_DIR"/fault_journal --resume \
    --out "$BUILD_DIR"/BENCH_fault_resumed.json \
    | tee "$BUILD_DIR"/fault_resume_report.txt
status=$?
set -e
[[ $status -eq 3 ]] || { echo "expected exit 3, got $status" >&2; exit 1; }
grep -q "0 executed" "$BUILD_DIR"/fault_resume_report.txt
cmp "$BUILD_DIR"/BENCH_fault_quick.json \
    "$BUILD_DIR"/BENCH_fault_resumed.json
# Telemetry slice: run the same quick fig12 grid plain and with
# the artifact flags. The merged report must stay byte-identical
# (interval streaming and span tracing are observation-only;
# --histograms is the one report-changing flag, exercised by the
# unit tests), the timeseries artifact must sum bit-exactly to the
# report's aggregates, and the trace must be a well-formed Chrome
# trace-event file. CI's telemetry-smoke job runs the wider grid.
"$BUILD_DIR"/sweep --quick --jobs "$JOBS" --filter fig12 --no-report \
    --out "$BUILD_DIR"/BENCH_fig12_plain.json
"$BUILD_DIR"/sweep --quick --jobs "$JOBS" --filter fig12 --no-report \
    --interval-records 20000 \
    --timeseries-out "$BUILD_DIR"/BENCH_fig12_ts.json \
    --trace-out "$BUILD_DIR"/BENCH_fig12_trace.json \
    --out "$BUILD_DIR"/BENCH_fig12_telemetry.json
cmp "$BUILD_DIR"/BENCH_fig12_plain.json \
    "$BUILD_DIR"/BENCH_fig12_telemetry.json
python3 scripts/check_telemetry.py \
    --timeseries "$BUILD_DIR"/BENCH_fig12_ts.json \
    --report "$BUILD_DIR"/BENCH_fig12_telemetry.json \
    --trace "$BUILD_DIR"/BENCH_fig12_trace.json
# Introspection slice: the registry experiment pins miss
# attribution + design probes; the artifact flags add the probe
# columns and the spatial heatmap. Heatmap cells must sum to the
# report's aggregate counters, probe columns must telescope, and
# every journal entry must carry the v6 format. CI's
# telemetry-smoke job additionally byte-diffs --jobs 1 vs 2.
rm -rf "$BUILD_DIR"/intro_journal
"$BUILD_DIR"/sweep --quick --jobs "$JOBS" --filter introspection \
    --no-report --journal "$BUILD_DIR"/intro_journal \
    --timeseries-out "$BUILD_DIR"/BENCH_intro_ts.json \
    --heatmap-out "$BUILD_DIR"/BENCH_intro_heat.json \
    --out "$BUILD_DIR"/BENCH_intro.json
python3 scripts/check_telemetry.py \
    --timeseries "$BUILD_DIR"/BENCH_intro_ts.json \
    --report "$BUILD_DIR"/BENCH_intro.json \
    --heatmap "$BUILD_DIR"/BENCH_intro_heat.json \
    --journal "$BUILD_DIR"/intro_journal
# Sampling slice: the paired exact-vs-sampled validation grid.
# check_sampling.py enforces >= 90% CI coverage of the exact
# values, the >= 5x marginal speedup floor (timed + fast-forward
# phases; the one-off span-artifact build amortizes like the
# trace cache), and the sampled extras schema. CI's
# sampling-smoke job runs the same grid.
"$BUILD_DIR"/sweep --quick --jobs "$JOBS" \
    --filter sampling_validation --no-report \
    --out "$BUILD_DIR"/BENCH_sampling_quick.json \
    --time-out "$BUILD_DIR"/BENCH_sampling_timing.json
python3 scripts/check_sampling.py \
    --report "$BUILD_DIR"/BENCH_sampling_quick.json \
    --timing "$BUILD_DIR"/BENCH_sampling_timing.json
