#!/usr/bin/env python3
"""Guard the engine's speed and the telemetry budget from perf_engine JSON.

Engine regression (--baseline/--current): compares one fresh
perf_engine run (typically --quick) against a committed
BENCH_engine*.json recorded at the same scale. The metric is each
design's `ratio_to_baseline`: perf_engine's median, over its
interleaved reps, of the design's ns/record (warm restore plus
measured window) divided by the mean ns/record of the `baseline`
runs just before and after it. Those runs saw the same machine
conditions, so the ratio cancels machine speed and a file
recorded on another host stays comparable. The check fails when a
design's ratio exceeds the committed one by more than --tolerance,
or when a committed design is missing from the current run.

Telemetry budget (--telemetry-json): validates the `telemetry`
section perf_engine emits. Interval streaming + histograms, and
separately the introspection layer (shadow-directory miss
attribution + design probes + heatmaps), each report a median
per-rep overhead over the instrumentation-off runs around it and
a distribution-free 95% interval of that median. Each gets one of three
verdicts against --telemetry-budget-pct (default 2%):
  pass        the interval's upper end is within the budget;
  fail        the interval's lower end exceeds the budget;
  unresolved  the interval straddles the budget, so the run cannot
              tell the two apart.
Fail and unresolved both exit 1. The engine metrics must also be
bit-identical either way, and the interval and probe-column
deltas must conserve.

scripts/check.sh and the CI release cells run the regression
check on one --quick run against BENCH_engine_quick.json; CI's
telemetry-smoke job and check.sh gate the committed
BENCH_engine.json's telemetry section.

Usage:
  check_bench_regression.py --baseline BENCH_engine_quick.json \
      --current quick.json [--tolerance 0.15]
  check_bench_regression.py --telemetry-json BENCH_engine.json \
      [--telemetry-budget-pct 2.0]
"""

import argparse
import json
import sys


def budget_verdict(label, tel, prefix, budget_pct):
    lo, hi = tel[prefix + "overhead_pct_ci95"]
    print(f"{label} budget guard: overhead "
          f"{tel[prefix + 'overhead_pct']:+.2f}% "
          f"[95%: {lo:+.2f}, {hi:+.2f}] over {tel['reps']} reps, "
          f"budget {budget_pct:.1f}%")
    if hi <= budget_pct:
        return 0
    if lo > budget_pct:
        print(f"fail: {label} costs more than the budget (the "
              f"interval's lower end {lo:.2f}% exceeds "
              f"{budget_pct:.1f}%)")
    else:
        print(f"unresolved: {label}'s interval straddles the "
              f"{budget_pct:.1f}% budget; this run cannot tell "
              f"pass from fail")
    return 1


def check_telemetry_budget(path, budget_pct):
    with open(path) as f:
        tel = json.load(f).get("telemetry") or {}
    try:
        violations = (
            budget_verdict("telemetry", tel, "", budget_pct) +
            budget_verdict("introspection", tel, "introspection_",
                           budget_pct))
    except KeyError as e:
        print(f"{path}: telemetry section lacks {e} (regenerate it "
              f"with a full perf_engine run)")
        return 1
    for field, what in (
            ("metrics_identical",
             "metrics diverged with telemetry enabled"),
            ("intervals_conserve",
             "interval deltas do not sum to aggregates"),
            ("introspection_metrics_identical",
             "metrics diverged with introspection enabled"),
            ("introspection_probes_conserve",
             "probe-column deltas do not sum to aggregates")):
        if not tel.get(field, False):
            print(f"fail: {what}")
            violations += 1
    if violations:
        return 1
    print("OK: telemetry and introspection within budget, metrics "
          "identical, intervals and probes conserve")
    return 0


def check_regression(baseline, current, tolerance):
    with open(baseline) as f:
        base = json.load(f)
    with open(current) as f:
        cur = json.load(f)
    # The design-vs-baseline ratios shift systematically with the
    # window scale, which would silently miscalibrate the tolerance.
    if cur.get("scale") != base.get("scale"):
        print(f"scale mismatch: baseline {baseline} is scale "
              f"{base.get('scale')}, {current} is scale "
              f"{cur.get('scale')} — compare like with like (the "
              f"committed quick-scale baseline is "
              f"BENCH_engine_quick.json)")
        return 1

    print(f"engine regression guard (x baseline, tolerance "
          f"{100 * tolerance:.0f}%)")
    print(f"  {'design':<12} {'committed':>10} {'current':>10} "
          f"{'ratio':>7}")
    failed = []
    for name, entry in base["designs"].items():
        b = entry["ratio_to_baseline"]
        c = cur["designs"].get(name, {}).get("ratio_to_baseline")
        if c is None:
            failed.append(name)
            print(f"  {name:<12} {b:>10.3f} {'missing':>10}")
            continue
        ratio = c / b
        flag = ""
        if ratio > 1.0 + tolerance:
            failed.append(name)
            flag = "  << REGRESSION"
        print(f"  {name:<12} {b:>10.3f} {c:>10.3f} "
              f"{ratio:>6.2f}x{flag}")
    if failed:
        print(f"FAIL: missing, or ns/record ratio regressed >"
              f"{100 * tolerance:.0f}%, for: {', '.join(failed)}")
        return 1
    print("OK: no design regressed beyond tolerance")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--telemetry-json")
    ap.add_argument("--telemetry-budget-pct", type=float,
                    default=2.0)
    args = ap.parse_args()

    if bool(args.baseline) != bool(args.current):
        ap.error("--baseline and --current go together")
    if not args.baseline and not args.telemetry_json:
        ap.error("--baseline/--current or --telemetry-json is "
                 "required")
    rc = 0
    if args.telemetry_json:
        rc = check_telemetry_budget(args.telemetry_json,
                                    args.telemetry_budget_pct)
    if args.baseline:
        rc = check_regression(args.baseline, args.current,
                              args.tolerance) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
