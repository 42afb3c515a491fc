#!/usr/bin/env python3
"""Sweep benchmark: host-time cost of the simulator on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload colocation --seed 7 --seconds 52 --trace 0

Builds `sweep`, the layer harness `fpc_layers` (perfbench/layers.cc)
and the host-speed probe `fpc_calib` (perfbench/calib.cc) into
$CARGO_TARGET_DIR (default .bench_build), then repeats the workload's
sweep for --seconds seconds in a closed loop (one sweep process at a
time, at most two worker threads inside it) and prints one JSON object
as its last stdout line.

--trace 0  end-to-end metrics: medians over the repetitions, with host
           times scaled to the reference host's speed by fpc_calib
           probes taken around each repetition.
--trace 1  per-layer metrics: one untraced sweep, then the layer harness
           re-runs every point with a span around each public layer
           call and times each layer alone over one recorded trace;
           every point's metrics must equal the untraced report's.

Every repetition's merged report must be byte-identical to the others
of the run, and for a seed recorded in perfbench/reference.json to the
recorded per-point digests. Other modes:

    --workload all         print every workload's table, no JSON line
    --record-reference     rewrite perfbench/reference.json
    --steadiness           two sets of ten runs per workload, apart in time;
                           writes perfbench/steadiness.json
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
STEADINESS = HERE / "steadiness.json"
STEADINESS_REPS = 10
STEADINESS_GAP_S = 300

# Each workload is one sweep invocation; `jobs` is its worker-thread
# count (closed loop: a worker takes the next point when its last one
# finishes).
WORKLOADS = {
    "figures": {
        "filter": "fig05,fig06,sampling_validation",
        "args": ["--scale", "0.01"],
        "jobs": 2,
    },
    "colocation": {
        "filter": "colocation",
        "args": ["--scale", "0.01"],
        "jobs": 1,
    },
}
DESIGNS = ["baseline", "block", "page", "footprint", "ideal", "alloy",
           "banshee"]
SWEEP_TIMEOUT_S = 150
# Median fpc_calib seconds on the host the bounds were measured on (4
# vCPUs of a shared 2.1 GHz Xeon); host times are reported at its speed.
CALIB_REF_S = 0.33


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


# ------------------------------------------------------------- build

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build sweep + fpc_layers; returns the build dir."""
    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src").is_dir():
        fail("run from the repository root (no CMakeLists.txt/src here)")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    logf = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "perfbench", "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "sweep",
                  "fpc_layers", "fpc_calib", "-j", jobs])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                sys.stderr.write(logf.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)
    return bdir


# --------------------------------------------------------- execution

def run_child(cmd, stdout_path):
    """Run @p cmd to completion; returns (rc, wall_s, cpu_s, rss_mb)."""
    with open(stdout_path, "w") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        deadline = t0 + SWEEP_TIMEOUT_S
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, ru = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def calibrate(bdir, jobs):
    """Mean seconds of @p jobs concurrent fpc_calib probes.

    A probe does fixed work with none of the simulator's code; running
    as many as the sweep has workers samples the speed of every CPU the
    sweep runs on.
    """
    procs = [subprocess.Popen([str(bdir / "fpc_calib")],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(jobs)]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        fail("fpc_calib failed", 1)
    return statistics.mean(float(o.split()[0]) for o in outs)


def point_digests(report):
    """Canonical per-point digests of a merged report, in order."""
    out = []
    for exp in report["experiments"].values():
        for p in exp["points"]:
            blob = json.dumps(p, sort_keys=True).encode()
            out.append((p["key"], hashlib.sha256(blob).hexdigest()[:16]))
    return out


def first_difference(a, b):
    for (ka, da), (kb, db) in zip(a, b):
        if ka != kb or da != db:
            return ka
    if len(a) != len(b):
        return "point count %d vs %d" % (len(a), len(b))
    return None


def sweep_rep(bdir, wl, seed, tag):
    """One sweep process; returns the repetition's record."""
    w = WORKLOADS[wl]
    out = bdir / "runs" / ("%s-%d-%d-%s" % (wl, seed, os.getpid(), tag))
    out.mkdir(parents=True, exist_ok=True)
    report, timing = out / "report.json", out / "timing.json"
    for f in (report, timing):
        if f.exists():
            f.unlink()
    cmd = [str(bdir / "fpc" / "sweep"), "--filter", w["filter"],
           *w["args"], "--jobs", str(w["jobs"]), "--seed", str(seed),
           "--no-report", "--out", str(report), "--time",
           "--time-out", str(timing)]
    rc, wall, cpu, rss = run_child(cmd, out / "stdout.txt")
    rep = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
           "dir": out}
    if rc != 0 or not report.exists() or not timing.exists():
        log("sweep exited %d; see %s" % (rc, out / "stdout.txt"))
        rep["ok"] = False
        return rep
    raw = report.read_bytes()
    rep["ok"] = True
    rep["sha256"] = hashlib.sha256(raw).hexdigest()
    rep["report"] = json.loads(raw)
    rep["timing"] = json.loads(timing.read_text())
    rep["digests"] = point_digests(rep["report"])
    return rep


def count_failures(rep, reference, first):
    """Failed points of one repetition (attempted = expected points)."""
    expected = reference["points"]
    if not rep["ok"]:
        return expected
    failed = 0
    for name, want in reference["experiment_points"].items():
        exp = rep["report"]["experiments"].get(name)
        if exp is None:
            log("experiment %s missing from the report" % name)
            failed += want
            continue
        failed += sum(1 for p in exp["points"] if p.get("failed"))
        failed += max(0, want - len(exp["points"]))
    if first is not None and rep["sha256"] != first["sha256"]:
        log("report differs from the run's first repetition at %s" %
            first_difference(first["digests"], rep["digests"]))
        return expected
    return min(failed, expected)


def check_reference(rep, reference, seed):
    """Compare against recorded digests; True when none recorded."""
    rec = reference.get("digests", {}).get(str(seed))
    if rec is None or not rep["ok"]:
        return True
    if rep["sha256"] == rec["sha256"]:
        return True
    recorded = [tuple(x) for x in rec["points"]]
    log("report for seed %d differs from the recorded digest at %s" %
        (seed, first_difference(recorded, rep["digests"])))
    return False


def quantiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def point_seconds(rep):
    """Trace+warmup+measure seconds of every point of a repetition."""
    return {p["key"]: sum(p["timing"][k] for k in ("trace_s", "warmup_s",
                                                   "measure_s"))
            for p in rep["timing"]["points"]}


def rep_metrics(rep):
    """Per-repetition end-to-end metrics, host times at reference speed."""
    records = 0
    for exp in rep["report"]["experiments"].values():
        for p in exp["points"]:
            if not p.get("failed"):
                records += p["metrics"]["trace_records"]
    h = rep["host_factor"]
    return {
        "wall_s": rep["wall_s"] * h,
        "mrec_per_cpu_s": records / max(rep["cpu_s"] * h, 1e-9) / 1e6,
        "setup_s": rep["timing"]["cache"]["build_seconds"] * h,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


REP_UNITS = {"wall_s": "s", "mrec_per_cpu_s": "Mrec/s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def measure_end_to_end(bdir, wl, seed, seconds, reference):
    """Repeat the sweep for @p seconds; medians of every metric.

    A calibration probe runs before the first repetition and after
    each one. A repetition's host factor is CALIB_REF_S over the mean
    of the two probes around it, and its host times are multiplied by
    it, so a host that slows down for minutes does not move the medians.
    """
    reps = []
    t0 = time.monotonic()
    longest = 0.0
    jobs = WORKLOADS[wl]["jobs"]
    cal = calibrate(bdir, jobs)
    while not reps or time.monotonic() - t0 + longest <= seconds:
        t_rep = time.monotonic()
        rep = sweep_rep(bdir, wl, seed, str(len(reps)))
        after = calibrate(bdir, jobs)
        rep["calib_s"] = (cal + after) / 2
        rep["host_factor"] = CALIB_REF_S / rep["calib_s"]
        cal = after
        longest = max(longest, time.monotonic() - t_rep)
        reps.append(rep)
        if not rep["ok"]:
            break
    attempted = reference["points"] * len(reps)
    failed = sum(count_failures(r, reference, reps[0]) for r in reps)
    if not all(check_reference(r, reference, seed) for r in reps):
        failed = attempted
    good = [r for r in reps if r["ok"]]
    per_rep = [rep_metrics(r) for r in good]
    metrics = {}
    for name, unit in REP_UNITS.items():
        q1, med, q3 = quantiles([m[name] for m in per_rep] or [0.0])
        metrics[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(per_rep)}
    # A point's time is its median over the repetitions.
    times = [{k: t * r["host_factor"] for k, t in point_seconds(r).items()}
             for r in good]
    points = [statistics.median(t[k] for t in times)
              for k in (times[0] if times else {})] or [0.0]
    metrics["point_s_p50"] = {"value": statistics.median(points),
                              "unit": "s", "n": len(points)}
    raw = {"wall_s": [r["wall_s"] for r in good],
           "host_factor": [r["host_factor"] for r in good]}
    return attempted, failed, metrics, raw


# ------------------------------------------------------------ traced

def self_times(spans):
    """Per-span self time: duration minus the covered child time."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        child = sum(c["end_ns"] - c["start_ns"] for c in kids.get(s["id"], []))
        out[s["id"]] = (dur - child) / 1e9
    return out, kids


def layer_metrics(spans, iso, untraced, traced_wall, jobs):
    """Per-layer metrics from spans, isolated replays and the report."""
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans}
    own, kids = self_times(spans)
    points = [s for s in spans if s["name"] == "point"]
    total = sum(dur[s["id"]] for s in points) or 1e-12

    def named(name, design=None):
        return [s for s in spans if s["name"] == name and
                (design is None or s["design"] == design)]

    def seconds(name):
        return sum(dur[s["id"]] for s in named(name))

    def per_unit(name, design=None, only=None):
        ss = [s for s in named(name, design) if only is None or
              s["point"] in only]
        units = sum(s["units"] for s in ss)
        return sum(dur[s["id"]] for s in ss) * 1e9 / units if units else 0.0

    m = {}
    gen = named("workload.generate")
    m["workload.generate_s"] = (seconds("workload.generate"), "s")
    m["workload.generate_ns_per_rec"] = (per_unit("workload.generate"),
                                        "ns/rec")
    m["workload.generate_share"] = (seconds("workload.generate") / total,
                                    "share")
    m["workload.identities"] = (len({s["identity"] for s in gen}), "count")

    cache = untraced["timing"]["cache"]
    m["mem.replay_ns_per_rec"] = (iso["mem.replay_ns_per_rec"], "ns/rec")
    m["mem.cache_hits"] = (cache["hits"], "count")
    m["mem.cache_misses"] = (cache["misses"], "count")
    m["mem.cache_waits"] = (cache["waits"], "count")
    m["mem.cache_peak_mb"] = (cache["peak_bytes"] / 2**20, "MB")
    waits = sum(own[s["id"]] for s in spans if s["name"].endswith(".acquire"))
    m["mem.cache_wait_share"] = (waits / total, "share")

    m["cache.hierarchy_ns_per_rec"] = (iso["cache.hierarchy_ns_per_rec"],
                                       "ns/rec")
    m["cache.post_l2_ops_per_rec"] = (iso["cache.post_l2_ops_per_rec"],
                                      "op/rec")
    m["cache.hierarchy_share"] = (seconds("cache.hierarchy") / total, "share")

    hits = {d: [0, 0] for d in DESIGNS}
    for exp in untraced["report"]["experiments"].values():
        for p in exp["points"]:
            if p["design"] in hits:
                hits[p["design"]][0] += p["metrics"]["demand_hits"]
                hits[p["design"]][1] += p["metrics"]["demand_accesses"]
    for d in DESIGNS:
        built = named("dramcache.construct", d)
        m["dramcache.%s.construct_ms" % d] = (
            1e3 * sum(dur[s["id"]] for s in built) / max(1, len(built)), "ms")
        m["dramcache.%s.warm_ns_per_op" % d] = (
            iso["dramcache.%s.warm_ns_per_op" % d], "ns/op")
        m["dramcache.%s.hit_ratio" % d] = (
            hits[d][0] / hits[d][1] if hits[d][1] else 0.0, "ratio")
    m["dramcache.construct_share"] = (seconds("dramcache.construct") / total,
                                      "share")
    m["dramcache.warm_share"] = (seconds("dramcache.warm") / total, "share")

    for k in ("stacked_ns_per_access", "offchip_ns_per_access"):
        m["dram." + k] = (iso["dram." + k], "ns/access")
    for k in ("stacked_row_hit_ratio", "offchip_row_hit_ratio"):
        m["dram." + k] = (iso["dram." + k], "ratio")

    for d in DESIGNS:
        m["sim.%s.measure_ns_per_rec" % d] = (per_unit("sim.measure", d),
                                              "ns/rec")
    m["sim.dispatch_ns_per_rec"] = (iso["sim.dispatch_ns_per_rec"], "ns/rec")
    m["sim.inband_warmup_ns_per_rec"] = (per_unit("sim.inband_warmup"),
                                         "ns/rec")
    for k in ("measure", "inband_warmup", "span_build", "sampled_measure"):
        m["sim.%s_share" % k] = (seconds("sim." + k) / total, "share")
    labels = [k.split("/", 1)[1] for k, _ in untraced["digests"]]
    m["sim.points"] = (len(labels), "count")
    m["sim.points_distinct"] = (len(set(labels)), "count")
    busy = sum(sum(p["timing"][k] for k in ("trace_s", "warmup_s",
                                            "measure_s"))
               for p in untraced["timing"]["points"])
    m["sim.runner_busy_ratio"] = (busy / (untraced["wall_s"] * jobs),
                                  "ratio")
    covered = sum(dur[c["id"]] for s in points for c in kids.get(s["id"], []))
    m["sim.layer_coverage"] = (covered / total, "ratio")
    m["sim.trace_overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    # The highest percentile with 10 points beyond it (p96 of 264
    # points, p82 of 56); host time of the untraced sweep.
    point_s = sorted(point_seconds(untraced).values())
    m["sim.point_s_tail"] = (point_s[max(0, len(point_s) - 11)], "s")

    mixed = {s["point"] for s in named("tenant.mix_build")}
    m["tenant.warmup_ns_per_rec"] = (
        per_unit("sim.inband_warmup", only=mixed), "ns/rec")
    m["tenant.measure_ns_per_rec"] = (per_unit("sim.measure", only=mixed),
                                      "ns/rec")
    m["tenant.mix_build_share"] = (seconds("tenant.mix_build") / total,
                                   "share")
    m["tenant.mix_drain_ns_per_rec"] = (iso["tenant.mix_drain_ns_per_rec"],
                                        "ns/rec")
    m["tenant.points"] = (sum(1 for exp in
                              untraced["report"]["experiments"].values()
                              for p in exp["points"] if p.get("tenants")),
                          "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def fidelity(untraced, traced_report):
    """Points whose metrics differ between the sweep and fpc_layers."""
    bad = 0
    first = None
    for name, exp in untraced["report"]["experiments"].items():
        other = traced_report["experiments"].get(name, {"points": []})
        pts = other["points"]
        for i, p in enumerate(exp["points"]):
            q = pts[i] if i < len(pts) else {}
            same = all(p.get(k) == q.get(k) for k in
                       ("key", "metrics", "tenants", "footprint"))
            if not same:
                bad += 1
                first = first or p["key"]
    if first:
        log("fpc_layers disagrees with the sweep report at %s" % first)
    return bad


def measure_traced(bdir, wl, seed, reference):
    untraced = sweep_rep(bdir, wl, seed, "t")
    attempted = 2 * reference["points"]
    if not untraced["ok"]:
        return attempted, attempted, None
    failed = count_failures(untraced, reference, None)
    if not check_reference(untraced, reference, seed):
        failed = reference["points"]
    w = WORKLOADS[wl]
    out = untraced["dir"]
    cmd = [str(bdir / "fpc_layers"), "--filter", w["filter"], *w["args"],
           "--jobs", str(w["jobs"]), "--seed", str(seed),
           "--report", str(out / "layers_report.json"),
           "--spans", str(out / "spans.json")]
    rc, traced_wall, _, _ = run_child(cmd, out / "layers_stdout.txt")
    if rc != 0:
        log("fpc_layers exited %d; see %s" % (rc, out))
        return attempted, failed + reference["points"], None
    traced_report = json.loads((out / "layers_report.json").read_text())
    failed += fidelity(untraced, traced_report)
    cmd = [str(bdir / "fpc_layers"), "--filter", w["filter"], *w["args"],
           "--seed", str(seed), "--isolated", str(out / "isolated.json")]
    if run_child(cmd, out / "isolated_stdout.txt")[0] != 0:
        log("isolated layer replays failed; see %s" % out)
        return attempted, attempted, None
    spans = json.loads((out / "spans.json").read_text())["spans"]
    iso = json.loads((out / "isolated.json").read_text())
    metrics = layer_metrics(spans, iso, untraced, traced_wall, w["jobs"])
    return attempted, failed, metrics


# ----------------------------------------------------------- reports

def load_reference():
    if not REFERENCE.exists():
        fail("missing " + str(REFERENCE))
    return json.loads(REFERENCE.read_text())


def print_table(wl, seed, metrics, attempted, failed, trace):
    print("workload %s  seed %d  trace %d" % (wl, seed, trace))
    for name, v in metrics.items():
        extra = ""
        if "q1" in v:
            extra = "  q1 %.4f q3 %.4f  reps %d" % (v["q1"], v["q3"], v["n"])
        elif "n" in v:
            extra = "  over %d points, each a median of the reps" % v["n"]
        print("  %-34s %14.6f %-9s%s" % (name, v["value"], v["unit"], extra))
    print("  points attempted %d, failed %d" % (attempted, failed))


def print_split(metrics):
    """Split each design's measured ns/rec with the isolated replays."""
    v = {k: x["value"] for k, x in metrics.items()}
    hier = v["cache.hierarchy_ns_per_rec"]
    stub = v["sim.dispatch_ns_per_rec"]
    dram = v["cache.post_l2_ops_per_rec"] * v["dram.offchip_ns_per_access"]
    print("  measure split, ns/rec: hierarchy %.1f, pod over stub memory "
          "%.1f (includes hierarchy), off-chip DRAM timing %.1f" %
          (hier, stub, dram))
    for d in DESIGNS:
        meas = v["sim.%s.measure_ns_per_rec" % d]
        if meas <= 0:
            continue
        print("    %-9s %7.1f ns/rec: hierarchy %3.0f%%  dispatch %3.0f%%  "
              "DRAM %3.0f%%  design and rest %4.0f%%" %
              (d, meas, 100 * hier / meas, 100 * (stub - hier) / meas,
               100 * dram / meas, 100 * (1 - (stub + dram) / meas)))


def run_one(bdir, wl, seed, seconds, trace, reference):
    ref = reference["workloads"][wl]
    if trace:
        attempted, failed, metrics = measure_traced(bdir, wl, seed, ref)
        if metrics is None:
            return None
    else:
        attempted, failed, metrics, raw = measure_end_to_end(
            bdir, wl, seed, seconds, ref)
    print_table(wl, seed, metrics, attempted, failed, trace)
    if not trace:
        q1, med, q3 = quantiles(raw["host_factor"])
        print("  host times are at reference host speed: raw wall_s median "
              "%.4f s, host factor median %.4f (q1 %.4f q3 %.4f)" %
              (statistics.median(raw["wall_s"]), med, q1, q3))
    if trace:
        print_split(metrics)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()}}


def record_reference(bdir, seeds):
    """Record each workload's shape and per-seed report digests."""
    ref = {"default_seed": seeds[0], "held_out_seed": seeds[1],
           "workloads": {}}
    for wl in WORKLOADS:
        entry = {"digests": {}}
        for seed in seeds:
            rep = sweep_rep(bdir, wl, seed, "ref")
            if not rep["ok"]:
                fail("sweep failed while recording %s" % wl, 1)
            exps = rep["report"]["experiments"]
            entry["experiments"] = list(exps)
            entry["experiment_points"] = {k: len(v["points"])
                                          for k, v in exps.items()}
            entry["points"] = sum(entry["experiment_points"].values())
            entry["digests"][str(seed)] = {
                "sha256": rep["sha256"],
                "points": [list(x) for x in rep["digests"]]}
        ref["workloads"][wl] = entry
    ref["host"] = host_facts(bdir)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log("wrote " + str(REFERENCE))


def host_facts(bdir):
    cache = (bdir / "CMakeCache.txt").read_text().splitlines()
    get = {l.split("=", 1)[0].split(":")[0]: l.split("=", 1)[1]
           for l in cache if "=" in l and not l.startswith(("#", "//"))}
    cxx = get.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": get.get("CMAKE_BUILD_TYPE", "")}


def steadiness(args):
    """Two sets of runs per workload, STEADINESS_GAP_S seconds apart."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, STEADINESS_REPS + 1))
    sets = []
    for k in range(2):
        if k:
            log("steadiness: waiting %d s before set 2" % STEADINESS_GAP_S)
            time.sleep(STEADINESS_GAP_S)
        values = {wl: {m: [] for m in bounds} for wl in WORKLOADS}
        for seed in seeds:
            for wl in WORKLOADS:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       wl, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", "0"]
                res = subprocess.run(cmd, capture_output=True, text=True)
                line = res.stdout.strip().splitlines()[-1]
                got = json.loads(line)
                if not got["correct"] or res.returncode:
                    fail("run %s seed %d not correct" % (wl, seed), 1)
                for m in bounds:
                    values[wl][m].append(got["metrics"][m]["value"])
                log("set %d %s seed %d wall_s %.3f" %
                    (k + 1, wl, seed, got["metrics"]["wall_s"]["value"]))
        sets.append(values)
    summary = {"reps_per_set": STEADINESS_REPS, "gap_s": STEADINESS_GAP_S,
               "seconds": args.seconds, "seeds": seeds,
               "workloads": {}}
    ok = True
    for wl in WORKLOADS:
        rows = {}
        for m, b in bounds.items():
            qs = [quantiles(s[wl][m]) for s in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in qs]
            sign = 1 if b["better"] == "lower" else -1
            drift = sign * (qs[1][1] - qs[0][1]) / qs[0][1]
            within = drift <= b["bound"] and max(spreads) <= b["bound"]
            ok &= within
            rows[m] = {"bound": b["bound"],
                       "set1": {"q1": qs[0][0], "median": qs[0][1],
                                "q3": qs[0][2], "spread": spreads[0]},
                       "set2": {"q1": qs[1][0], "median": qs[1][1],
                                "q3": qs[1][2], "spread": spreads[1]},
                       "drift_worse": drift, "within_bound": within}
            print("%-11s %-15s set1 %10.4f [%.4f..%.4f] spread %5.1f%%  "
                  "set2 %10.4f spread %5.1f%%  drift %+5.1f%%  bound "
                  "%4.0f%%  %s" %
                  (wl, m, qs[0][1], qs[0][0], qs[0][2], 100 * spreads[0],
                   qs[1][1], 100 * spreads[1], 100 * drift,
                   100 * b["bound"], "ok" if within else "OUT"))
        summary["workloads"][wl] = rows
    summary["host"] = host_facts(build_dir())
    STEADINESS.write_text(json.dumps(summary, indent=1) + "\n")
    log("wrote " + str(STEADINESS))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--steadiness", action="store_true")
    args = ap.parse_args()

    bdir = build()
    if args.record_reference:
        ref = load_reference() if REFERENCE.exists() else {}
        record_reference(bdir, [ref.get("default_seed", 42),
                                ref.get("held_out_seed", 7919)])
        return 0
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        fail("--workload is required")
    reference = load_reference()
    if args.workload == "all":
        ok = True
        for wl in WORKLOADS:
            res = run_one(bdir, wl, args.seed, args.seconds, args.trace,
                          reference)
            ok &= res is not None and res["correct"]
        return 0 if ok else 1
    res = run_one(bdir, args.workload, args.seed, args.seconds, args.trace,
                  reference)
    if res is None:
        fail("traced run failed", 1)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
