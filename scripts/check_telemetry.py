#!/usr/bin/env python3
"""Validate the telemetry artifacts a sweep run produced.

Five independent checks, each optional:

--timeseries TS.json --report SWEEP.json
    Interval-stream conservation against the shipped merged
    report: for every point series, each column must sum
    bit-exactly to the same-named aggregate metric of the same
    point key in the merged report (tests/test_telemetry.cc
    proves the invariant in-process; this guards the artifacts).
    Per-tenant columns are checked against the report's per-tenant
    metrics the same way, and when the sweep ran with
    introspection the probe columns (intro.* plus per-design
    counters) must each sum to their probe_totals entry. Also
    validates artifact shape: every column of a point has the same
    epoch count, and every epoch is non-degenerate (records can be
    zero only in a trailing cycles-only epoch).

--heatmap HEAT.json [--report SWEEP.json]
    Spatial-heatmap conservation: for every point, the per-set
    access/conflict/occupancy cells must sum bit-exactly to their
    shipped *_total fields, and every channel x bank DRAM grid
    must carry channels * banks cells per counter summing to its
    *_total. With --report, each grid's activate total is also
    cross-checked against the same point's stacked_acts /
    offchip_acts aggregate — the cells and the report metric come
    from independent counters, so agreement proves the per-bank
    split conserves.

--journal DIR
    Journal integrity: every *.pt entry in the directory must
    open with the journal magic (kMagic, read from
    src/sim/journal.cc), name its point key, and terminate with
    the "end" sentinel — the structural contract
    `sweep --resume` relies on (the bit-exact round-trip itself is
    proven by tests/test_introspection.cc and CI's resume
    byte-diff).

--trace TRACE.json
    Chrome trace-event schema: the file must be valid JSON with a
    "traceEvents" list, every event must carry ph/pid/tid/ts/name,
    phases are limited to X (complete, with dur), i (instant, with
    scope), and M (metadata), and at least one measure-phase span
    must be present — the shape Perfetto and chrome://tracing
    load without complaint.

--colocation SWEEP.json [--min-pairs 3] [--min-designs 7]
    Colocation interference matrix in a merged report: every
    point of the `colocation` experiment carries per-tenant
    metrics whose TENANT_COLUMNS each sum bit-exactly to the
    point's aggregate metric (tests/test_tenant.cc proves the
    invariant in-process), and the matrix covers at least
    --min-pairs workload pairs and --min-designs designs with
    paired (two-tenant) points.

Exit code 0 when every requested check passes, 1 otherwise.

Usage:
  check_telemetry.py --timeseries ts.json --report sweep.json
  check_telemetry.py --heatmap heat.json [--report sweep.json]
  check_telemetry.py --journal journal_dir/
  check_telemetry.py --trace trace.json [--min-events 10]
  check_telemetry.py --colocation sweep.json \
      [--min-pairs 3] [--min-designs 7]
"""

import argparse
import json
import os
import re
import sys

# timeseries column -> merged-report metrics key. The cycles of a
# point accumulate across epochs exactly like every other integer
# field (the engine's snapshot deltas telescope).
AGGREGATE_COLUMNS = {
    "records": "trace_records",
    "instructions": "instructions",
    "cycles": "cycles",
    "llc_misses": "llc_misses",
    "demand_accesses": "demand_accesses",
    "demand_hits": "demand_hits",
    "mem_latency_cycles": "mem_latency_cycles",
    "offchip_bytes": "offchip_bytes",
    "stacked_bytes": "stacked_bytes",
    "offchip_acts": "offchip_acts",
    "stacked_acts": "stacked_acts",
}

# Per-tenant counters, each a slice of the same-named aggregate
# metric: the tenant series of a timeseries and the tenant metrics
# of a colocation point both sum to it bit-exactly.
TENANT_COLUMNS = [
    "trace_records", "instructions", "llc_misses",
    "demand_accesses", "demand_hits", "mem_latency_cycles",
    "offchip_bytes",
]


def load(path):
    with open(path) as f:
        return json.load(f)


def report_points_by_key(report):
    points = {}
    for exp in report.get("experiments", {}).values():
        for p in exp.get("points", []):
            if not p.get("failed"):
                points[p["key"]] = p
    return points


def check_timeseries(ts_path, report_path):
    ts = load(ts_path)
    report = load(report_path)
    if ts.get("bench") != "sweep_timeseries":
        print(f"{ts_path}: not a sweep_timeseries artifact")
        return 1
    if ts.get("interval_records", 0) <= 0:
        print(f"{ts_path}: interval_records must be positive")
        return 1
    by_key = report_points_by_key(report)
    violations = 0
    checked = 0
    for series in ts.get("points", []):
        key = series["key"]
        cols = series["columns"]
        epochs = series["intervals"]
        if epochs <= 0:
            print(f"{key}: empty interval stream emitted")
            violations += 1
            continue
        for name, col in cols.items():
            if len(col) != epochs:
                print(f"{key}: column {name} has {len(col)} "
                      f"epochs, expected {epochs}")
                violations += 1
        # Zero-record epochs are legal only as the trailing
        # cycles-only closeout of an exhausted trace.
        for i, r in enumerate(cols["records"][:-1]):
            if r == 0:
                print(f"{key}: zero-record epoch {i} before the "
                      f"final one")
                violations += 1
        point = by_key.get(key)
        if point is None:
            print(f"{key}: in the timeseries but not the report")
            violations += 1
            continue
        metrics = point["metrics"]
        for col, agg in AGGREGATE_COLUMNS.items():
            total = sum(cols[col])
            if total != metrics[agg]:
                print(f"{key}: sum({col}) = {total} != "
                      f"aggregate {agg} = {metrics[agg]}")
                violations += 1
        # Probe columns (sweeps run with introspection): every
        # name in probe_totals is a streamed column whose epochs
        # telescope to the shipped total.
        for name, total in series.get("probe_totals",
                                      {}).items():
            if name not in cols:
                print(f"{key}: probe_totals names {name} but "
                      f"the column is missing")
                violations += 1
                continue
            got = sum(cols[name])
            if got != total:
                print(f"{key}: sum({name}) = {got} != "
                      f"probe_total {total}")
                violations += 1
        for tseries in series.get("tenants", []):
            t = tseries["tenant"]
            tpoint = point.get("tenants", [])
            if t >= len(tpoint):
                print(f"{key}: tenant {t} missing from report")
                violations += 1
                continue
            for col in TENANT_COLUMNS:
                total = sum(tseries["columns"][col])
                if total != tpoint[t][col]:
                    print(f"{key}: tenant {t} sum({col}) = "
                          f"{total} != {tpoint[t][col]}")
                    violations += 1
        checked += 1
    print(f"timeseries guard: {checked} point(s) conserved "
          f"across {len(ts.get('points', []))} series")
    if checked == 0:
        print("FAIL: no point series to check")
        return 1
    if violations:
        print(f"FAIL: {violations} timeseries violation(s)")
        return 1
    print("OK: every interval stream sums to its aggregate")
    return 0


def check_cells(key, what, obj, names, expected_len):
    """Cells-vs-total conservation for one heatmap section."""
    violations = 0
    for name in names:
        cells = obj.get(name)
        total = obj.get(f"{name}_total")
        if cells is None or total is None:
            print(f"{key}: {what} lacks {name}/{name}_total")
            violations += 1
            continue
        if expected_len is not None and \
                len(cells) != expected_len:
            print(f"{key}: {what} {name} has {len(cells)} "
                  f"cells, expected {expected_len}")
            violations += 1
        if sum(cells) != total:
            print(f"{key}: {what} sum({name}) = {sum(cells)} "
                  f"!= {name}_total = {total}")
            violations += 1
    return violations


def check_heatmap(heatmap_path, report_path):
    doc = load(heatmap_path)
    if doc.get("bench") != "sweep_heatmap":
        print(f"{heatmap_path}: not a sweep_heatmap artifact")
        return 1
    by_key = report_points_by_key(load(report_path)) \
        if report_path else {}
    violations = 0
    checked = 0
    grids = 0
    for point in doc.get("points", []):
        key = point["key"]
        sets = point.get("sets")
        if sets is not None:
            if sets.get("bins", 0) <= 0 or \
                    sets.get("sets_per_bin", 0) <= 0:
                print(f"{key}: degenerate set space {sets.get('bins')} "
                      f"x {sets.get('sets_per_bin')}")
                violations += 1
            violations += check_cells(
                key, "sets", sets,
                ("access", "conflict", "occupancy"),
                sets.get("bins"))
        for grid in point.get("drams", []):
            cells = grid.get("channels", 0) * grid.get("banks", 0)
            if cells <= 0:
                print(f"{key}: empty DRAM grid "
                      f"{grid.get('name')!r}")
                violations += 1
                continue
            violations += check_cells(
                key, f"dram {grid.get('name')!r}", grid,
                ("activates", "reads", "writes"), cells)
            grids += 1
            # Independent cross-check: the per-bank activate
            # cells and the report's window aggregate come from
            # different counters.
            report_point = by_key.get(key)
            if report_point is not None:
                agg_key = ("stacked_acts"
                           if grid.get("name") == "stacked"
                           else "offchip_acts")
                agg = report_point["metrics"][agg_key]
                got = grid.get("activates_total", -1)
                if got != agg:
                    print(f"{key}: dram {grid.get('name')!r} "
                          f"activates_total = {got} != report "
                          f"{agg_key} = {agg}")
                    violations += 1
        checked += 1
    print(f"heatmap guard: {checked} point(s), {grids} DRAM "
          f"grid(s), report cross-check "
          f"{'on' if by_key else 'off'}")
    if checked == 0:
        print("FAIL: no heatmap points to check")
        return 1
    if violations:
        print(f"FAIL: {violations} heatmap violation(s)")
        return 1
    print("OK: every heatmap cell set sums to its aggregate")
    return 0


JOURNAL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "src", "sim", "journal.cc")


def journal_magic():
    """The kMagic line the journal writer opens every entry with."""
    with open(JOURNAL_SOURCE, encoding="utf-8") as f:
        m = re.search(r'constexpr const char \*kMagic = "([^"]+)";',
                      f.read())
    if not m:
        raise SystemExit(f"{JOURNAL_SOURCE}: no kMagic definition")
    return m.group(1)


def check_journal(journal_dir):
    magic = journal_magic()
    version = "v" + magic.split()[-1]
    entries = 0
    violations = 0
    try:
        names = sorted(os.listdir(journal_dir))
    except OSError as e:
        print(f"{journal_dir}: {e}")
        return 1
    for name in names:
        if not name.endswith(".pt"):
            continue
        path = os.path.join(journal_dir, name)
        with open(path, encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        if not text.startswith(magic + "\n"):
            print(f"{name}: bad magic (want {magic!r}, got "
                  f"{text.splitlines()[0][:40]!r})")
            violations += 1
            continue
        if "\nkey " not in text:
            print(f"{name}: no point key")
            violations += 1
        if not text.endswith("\nend\n"):
            print(f"{name}: missing end sentinel (truncated?)")
            violations += 1
        entries += 1
    print(f"journal guard: {entries} {version} entrie(s) in "
          f"{journal_dir}")
    if entries == 0:
        print("FAIL: no journal entries to check")
        return 1
    if violations:
        print(f"FAIL: {violations} journal violation(s)")
        return 1
    print(f"OK: every journal entry is {version} and complete")
    return 0


def check_trace(trace_path, min_events):
    doc = load(trace_path)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"{trace_path}: no traceEvents list")
        return 1
    violations = 0
    phases = {}
    for i, ev in enumerate(events):
        # Metadata events (ph M) carry no timestamp by design.
        required = ("ph", "pid", "tid", "name")
        if ev.get("ph") != "M":
            required += ("ts",)
        for field in required:
            if field not in ev:
                print(f"event {i}: missing {field}")
                violations += 1
        ph = ev.get("ph")
        phases[ph] = phases.get(ph, 0) + 1
        if ph == "X" and "dur" not in ev:
            print(f"event {i}: complete span without dur")
            violations += 1
        elif ph == "i" and "s" not in ev:
            print(f"event {i}: instant without scope")
            violations += 1
        elif ph not in ("X", "i", "M"):
            print(f"event {i}: unexpected phase {ph!r}")
            violations += 1
    spans = [e for e in events if e.get("ph") == "X"]
    measures = [e for e in spans
                if e.get("name", "").startswith("measure:")]
    print(f"trace guard: {len(events)} event(s) "
          f"({', '.join(f'{k}={v}' for k, v in sorted(phases.items()))}), "
          f"{len(measures)} measure span(s)")
    if len(events) < min_events:
        print(f"FAIL: expected >= {min_events} events")
        violations += 1
    if not measures:
        print("FAIL: no measure-phase spans")
        violations += 1
    if violations:
        print(f"FAIL: {violations} trace violation(s)")
        return 1
    print("OK: trace events well-formed")
    return 0


def check_colocation(path, min_pairs, min_designs):
    exp = load(path).get("experiments", {}).get("colocation")
    if exp is None:
        print(f"{path}: no colocation experiment in the report")
        return 1
    points = exp["points"]
    pairs, designs = set(), set()
    violations = 0
    tenant_points = 0
    for p in points:
        tenants = p.get("tenants", [])
        if not tenants:
            print(f"{p['key']}: no per-tenant metrics")
            violations += 1
            continue
        tenant_points += 1
        if len(tenants) >= 2:
            pairs.add(p["key"].split("/")[1])
            designs.add(p["design"])
        m = p["metrics"]
        for field in TENANT_COLUMNS:
            total = sum(t[field] for t in tenants)
            if total != m[field]:
                print(f"{p['key']}: tenant {field} sum {total} "
                      f"!= aggregate {m[field]}")
                violations += 1
    print(f"colocation guard: {len(points)} point(s), "
          f"{tenant_points} with tenant metrics, "
          f"{len(pairs)} pair(s), {len(designs)} design(s) "
          f"with paired runs")
    if len(pairs) < min_pairs:
        print(f"FAIL: need >= {min_pairs} workload pairs")
        violations += 1
    if len(designs) < min_designs:
        print(f"FAIL: need >= {min_designs} designs with "
              f"paired points")
        violations += 1
    if violations:
        print(f"FAIL: {violations} colocation violation(s)")
        return 1
    print("OK: colocation matrix complete and conserved")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--timeseries")
    ap.add_argument("--report")
    ap.add_argument("--heatmap")
    ap.add_argument("--journal")
    ap.add_argument("--trace")
    ap.add_argument("--min-events", type=int, default=10)
    ap.add_argument("--colocation")
    ap.add_argument("--min-pairs", type=int, default=3)
    ap.add_argument("--min-designs", type=int, default=7)
    args = ap.parse_args()

    if args.timeseries and not args.report:
        ap.error("--timeseries needs --report")
    if args.report and not (args.timeseries or args.heatmap):
        ap.error("--report needs --timeseries and/or --heatmap")
    if not (args.timeseries or args.heatmap or args.journal
            or args.trace or args.colocation):
        ap.error("nothing to check: pass --timeseries/--report, "
                 "--heatmap, --journal, --trace and/or "
                 "--colocation")

    rc = 0
    if args.timeseries:
        rc |= check_timeseries(args.timeseries, args.report)
    if args.heatmap:
        rc |= check_heatmap(args.heatmap, args.report)
    if args.journal:
        rc |= check_journal(args.journal)
    if args.trace:
        rc |= check_trace(args.trace, args.min_events)
    if args.colocation:
        rc |= check_colocation(args.colocation, args.min_pairs,
                               args.min_designs)
    return rc


if __name__ == "__main__":
    sys.exit(main())
