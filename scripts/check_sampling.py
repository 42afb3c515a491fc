#!/usr/bin/env python3
"""Validate a sampled-execution run against its exact twin.

Operates on the sampling_validation experiment of a merged sweep
report: every design x workload point appears twice, once with the
full measurement window timed end to end (key suffix /exact) and
once under PodSystem::runSampled (suffix /sampled). Three checks:

Coverage
    For each pair and each of four derived metrics (ipc,
    miss_ratio, avg_latency, offchip_gbps), the exact value must
    fall inside the sampled run's reported 95% confidence interval
    [mean - ci95, mean + ci95]. The fraction of covered
    (pair, metric) cells must reach --min-coverage (default 0.9 —
    the CI's own confidence level, so a healthy estimator sits at
    or above it).

Speedup
    With --timing (the --time-out artifact of the same run), the
    summed exact measure_s divided by the summed sampled
    sample_ff_s + sample_timed_s must reach --min-speedup (default
    5.0). This is the marginal per-run cost: the one-off span
    artifact build is part of measure_s but shared across every
    run of the same (workload, warmup, hierarchy, schedule), so it
    amortizes like the trace cache and is reported separately.
    A point whose result the sweep copied from an equal point
    (timing "reused_from") is charged that point's timing.

Schema
    Every sampled point must carry the full extras contract:
    sampled_intervals >= 2 and {metric}_mean / {metric}_ci95 for
    all four metrics, with non-negative ci95.

Exit code 0 when every requested check passes, 1 otherwise.

Usage:
  check_sampling.py --report sweep.json [--timing timing.json]
      [--min-coverage 0.9] [--min-speedup 5.0]
"""

import argparse
import json
import sys

EXPERIMENT = "sampling_validation"

# Derived metric -> function of the exact point's raw metrics,
# mirroring the per-interval definitions in appendSampledExtras
# (src/sim/sweep.cc). offchip_gbps uses the engine's 3GHz clock
# convention.
EXACT_FORMULAS = {
    "ipc": lambda m: m["instructions"] / m["cycles"]
    if m["cycles"] else 0.0,
    "miss_ratio": lambda m: (m["demand_accesses"] -
                             m["demand_hits"]) /
    m["demand_accesses"] if m["demand_accesses"] else 0.0,
    "avg_latency": lambda m: m["mem_latency_cycles"] /
    m["demand_accesses"] if m["demand_accesses"] else 0.0,
    "offchip_gbps": lambda m: m["offchip_bytes"] /
    (m["cycles"] / 3.0) if m["cycles"] else 0.0,
}


def load(path):
    with open(path) as f:
        return json.load(f)


def validation_points(report):
    exp = report.get("experiments", {}).get(EXPERIMENT)
    if exp is None:
        print(f"FAIL: no {EXPERIMENT} experiment in the report")
        return None
    return [p for p in exp.get("points", []) if not p.get("failed")]


def pair_points(points):
    """Map pair identity -> {'exact': point, 'sampled': point}."""
    pairs = {}
    for p in points:
        key = p["key"]
        for suffix in ("/exact", "/sampled"):
            if key.endswith(suffix):
                base = key[: -len(suffix)]
                pairs.setdefault(base, {})[suffix[1:]] = p
                break
    return pairs


def check_schema(sampled):
    problems = []
    extra = sampled.get("extra", {})
    n = extra.get("sampled_intervals", 0)
    if n < 2:
        problems.append(f"sampled_intervals = {n} < 2")
    for metric in EXACT_FORMULAS:
        for stat in ("mean", "ci95"):
            name = f"{metric}_{stat}"
            if name not in extra:
                problems.append(f"missing extra {name}")
        ci = extra.get(f"{metric}_ci95")
        if ci is not None and ci < 0:
            problems.append(f"{metric}_ci95 = {ci} < 0")
    return problems


def check_coverage(report, min_coverage):
    points = validation_points(report)
    if points is None:
        return 1
    pairs = pair_points(points)
    complete = {b: d for b, d in pairs.items()
                if "exact" in d and "sampled" in d}
    if not complete:
        print("FAIL: no exact/sampled pairs in the report")
        return 1
    covered = 0
    total = 0
    violations = 0
    for base, pair in sorted(complete.items()):
        problems = check_schema(pair["sampled"])
        for msg in problems:
            print(f"{base}: {msg}")
        violations += len(problems)
        if problems:
            continue
        exact_metrics = pair["exact"]["metrics"]
        extra = pair["sampled"]["extra"]
        for metric, formula in EXACT_FORMULAS.items():
            exact = formula(exact_metrics)
            mean = extra[f"{metric}_mean"]
            ci95 = extra[f"{metric}_ci95"]
            total += 1
            # The epsilon keeps a mathematically-on-the-boundary
            # cell from flipping on float rounding.
            if abs(exact - mean) <= ci95 + 1e-12:
                covered += 1
            else:
                print(f"{base}: {metric} exact {exact:.6g} "
                      f"outside {mean:.6g} +/- {ci95:.6g}")
    if violations:
        print(f"FAIL: {violations} schema violation(s)")
        return 1
    coverage = covered / total
    print(f"coverage: {covered}/{total} (pair, metric) cells "
          f"inside the 95% CI ({coverage:.1%}) across "
          f"{len(complete)} pair(s)")
    if coverage < min_coverage:
        print(f"FAIL: coverage {coverage:.1%} < "
              f"{min_coverage:.1%}")
        return 1
    print("OK: exact values covered by the sampled CIs")
    return 0


def check_speedup(report, timing_path, min_speedup):
    points = validation_points(report)
    if points is None:
        return 1
    wanted = {p["key"] for p in points}
    timing = load(timing_path)
    if timing.get("bench") != "sweep_timing":
        print(f"{timing_path}: not a sweep_timing artifact")
        return 1
    exact_s = 0.0
    sampled_s = 0.0
    build_s = 0.0
    exact_n = 0
    sampled_n = 0
    by_key = {e["key"]: e["timing"] for e in timing.get("points", [])}
    for entry in timing.get("points", []):
        if entry["key"] not in wanted:
            continue
        t = entry["timing"]
        if "reused_from" in t:
            # The sweep ran this simulation once, under another
            # point's key; that point's timing is this one's cost.
            t = by_key[t["reused_from"]]
        if entry["key"].endswith("/exact"):
            exact_s += t["measure_s"]
            exact_n += 1
        elif entry["key"].endswith("/sampled"):
            if not t.get("sampled"):
                print(f"{entry['key']}: timing lacks the sampled "
                      f"split")
                return 1
            sampled_s += t["sample_ff_s"] + t["sample_timed_s"]
            # Everything measure_s holds beyond the ff+timed
            # phases is the one-off span-artifact build.
            build_s += max(
                0.0, t["measure_s"] -
                t["sample_ff_s"] - t["sample_timed_s"])
            sampled_n += 1
    if not exact_n or not sampled_n:
        print(f"FAIL: timing covers {exact_n} exact / "
              f"{sampled_n} sampled point(s)")
        return 1
    if sampled_s <= 0.0:
        print("FAIL: sampled phase time is zero")
        return 1
    speedup = exact_s / sampled_s
    print(f"speedup: exact {exact_s:.2f}s / sampled "
          f"{sampled_s:.2f}s = {speedup:.2f}x marginal "
          f"({exact_n}+{sampled_n} points, one-off artifact "
          f"build {build_s:.2f}s excluded)")
    if speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < "
              f"{min_speedup:.2f}x")
        return 1
    print("OK: sampled mode meets the speedup floor")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", required=True)
    ap.add_argument("--timing")
    ap.add_argument("--min-coverage", type=float, default=0.9)
    ap.add_argument("--min-speedup", type=float, default=5.0)
    args = ap.parse_args()

    report = load(args.report)
    rc = check_coverage(report, args.min_coverage)
    if args.timing:
        rc |= check_speedup(report, args.timing,
                            args.min_speedup)
    return rc


if __name__ == "__main__":
    sys.exit(main())
