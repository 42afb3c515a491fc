/**
 * @file
 * Engine performance harness.
 *
 * For every memory-system design it runs the same 512MB workload
 * once: the functional warmup (hierarchy pass plus op replay, the
 * only warmup the engine has), then the full timing loop over the
 * measured window. Warmup and measurement phases are timed
 * separately; the run is deliberately warmup-dominated (full
 * capacity-scaled warmup window, quarter measurement window), as
 * the Figure 6/9/Table 1 sweeps are. Further sections time trace
 * generation against arena replay, the telemetry and
 * introspection overhead on the measured loop, and sampled
 * against exact measurement. Results go to stdout and to
 * BENCH_engine.json (records/sec per phase per design), committed
 * as the perf trajectory across PRs.
 *
 * Flags: the window subset of the common set (--quick, --scale,
 * --seed/--base-seed, --workload; every other common flag exits
 * 2) plus --out FILE for the JSON path.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/wall_clock.hh"
#include "sim/sweep.hh"
#include "workload/generator.hh"

using namespace fpc;

namespace {

struct PhaseTimes
{
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    std::uint64_t warmupRecords = 0;
    std::uint64_t measureRecords = 0;
    RunMetrics metrics;

    double
    warmupRecsPerSec() const
    {
        return warmupSeconds > 0.0 ? warmupRecords / warmupSeconds
                                   : 0.0;
    }

    double
    measureRecsPerSec() const
    {
        return measureSeconds > 0.0
                   ? measureRecords / measureSeconds
                   : 0.0;
    }
};

PhaseTimes
runPhased(WorkloadKind wk, const std::string &design, double scale,
          std::uint64_t seed, std::uint64_t capacity_mb)
{
    Experiment::Config cfg;
    cfg.design = design;
    cfg.capacityMb = capacity_mb;

    WorkloadSpec spec = makeWorkload(wk, cfg.pageBytes, seed);
    SyntheticTraceSource trace(spec);
    Experiment exp(cfg, trace);

    PhaseTimes out;
    out.warmupRecords = design == "baseline"
                            ? warmupRecords(64, scale)
                            : warmupRecords(capacity_mb, scale);
    // Warmup-dominated by design: the measurement window only has
    // to be large enough for stable rates.
    out.measureRecords = measureRecords(scale) / 4;

    auto t0 = std::chrono::steady_clock::now();
    exp.run(out.warmupRecords, 0);
    out.warmupSeconds = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    out.metrics = exp.run(0, out.measureRecords);
    out.measureSeconds = secondsSince(t0);
    return out;
}

/** Trace generate-vs-replay rates (the arena's raison d'être). */
struct TraceBench
{
    std::uint64_t records = 0;
    double generateSeconds = 0.0;
    double replaySeconds = 0.0;

    double
    generateRecsPerSec() const
    {
        return generateSeconds > 0.0 ? records / generateSeconds
                                     : 0.0;
    }

    double
    replayRecsPerSec() const
    {
        return replaySeconds > 0.0 ? records / replaySeconds
                                   : 0.0;
    }

    double
    speedup() const
    {
        return replaySeconds > 0.0
                   ? generateSeconds / replaySeconds
                   : 0.0;
    }
};

/**
 * Materialize one warm-window-sized stream (generation cost,
 * including the sampler construction every fresh source pays),
 * then drain it through a ReplayTraceSource via the batch API
 * (replay cost).
 */
TraceBench
runTraceBench(WorkloadKind wk, double scale, std::uint64_t seed,
              std::uint64_t capacity_mb)
{
    TraceBench out;
    out.records = warmupRecords(capacity_mb, scale);

    auto arena = std::make_shared<MaterializedTrace>();
    auto t0 = std::chrono::steady_clock::now();
    materializeTrace(makeWorkload(wk, 2048, seed), out.records,
                     *arena);
    out.generateSeconds = secondsSince(t0);

    ReplayTraceSource replay(arena);
    std::uint64_t sink = 0;
    t0 = std::chrono::steady_clock::now();
    for (;;) {
        TraceRecord *span = nullptr;
        const std::size_t avail = replay.acquire(0, span);
        if (avail == 0)
            break;
        for (std::size_t i = 0; i < avail; ++i)
            sink += span[i].req.paddr;
        replay.skip(avail);
    }
    out.replaySeconds = secondsSince(t0);
    // Keep the drain loop observable.
    if (sink == 0x5eed)
        std::fprintf(stderr, "\n");
    return out;
}

/** Instrumentation armed during one telemetry repetition. */
enum class TelemetryMode
{
    Off,           //!< no probes at all (the baseline side)
    Probes,        //!< PR8/PR9: interval stream + histograms
    Introspection, //!< miss attribution + design probes + heatmaps
};

/** One telemetry-overhead repetition: measured-phase wall clock
 * with the probes on or off, plus what they produced. */
struct TelemetryRep
{
    double measureSeconds = 0.0;
    RunMetrics metrics;
    std::vector<IntervalSample> intervals;
};

TelemetryRep
runTelemetryRep(WorkloadKind wk, double scale, std::uint64_t seed,
                std::uint64_t capacity_mb, TelemetryMode mode)
{
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = capacity_mb;
    if (mode == TelemetryMode::Probes) {
        // Both features on: every probe site and the epoch check
        // are live, so this bounds the full enabled cost.
        cfg.pod.telemetry.intervalRecords =
            std::max<std::uint64_t>(1,
                                    measureRecords(scale) / 32);
        cfg.pod.telemetry.histograms = true;
    } else if (mode == TelemetryMode::Introspection) {
        // The full introspection surface: shadow-directory miss
        // attribution, per-structure probe columns and spatial
        // heatmaps, streamed per epoch — the enabled path the
        // <=2% budget covers. 1-in-64 set sampling is the
        // classical shadow-tag ratio; it also keeps the shadow
        // structures inside the LLC, where the budget is won.
        cfg.pod.telemetry.intervalRecords =
            std::max<std::uint64_t>(1,
                                    measureRecords(scale) / 32);
        cfg.pod.telemetry.missAttributionStride = 64;
        cfg.pod.telemetry.designProbes = true;
        cfg.pod.telemetry.heatmaps = true;
    }

    WorkloadSpec spec = makeWorkload(wk, cfg.pageBytes, seed);
    SyntheticTraceSource trace(spec);
    Experiment exp(cfg, trace);

    // A short warmup suffices: the overhead under test lives in
    // the measured event-queue loop, not in cache fill quality.
    exp.run(warmupRecords(64, scale), 0);

    TelemetryRep out;
    const auto t0 = std::chrono::steady_clock::now();
    out.metrics = exp.run(0, measureRecords(scale));
    out.measureSeconds = secondsSince(t0);
    out.intervals = exp.pod().intervals();
    return out;
}

/** Are two counter blocks identical? A mismatch is reported on
 * stderr, counter by counter, under @p what. */
bool
countersIdentical(const char *what, const PodCounters &x,
                  const PodCounters &y)
{
    const std::string diff =
        fieldDiff(PodCounters::kCounters, x, y);
    if (!diff.empty())
        std::fprintf(stderr, "%s: %s\n", what, diff.c_str());
    return diff.empty();
}

/** Do the probe-column deltas telescope to the aggregate? */
bool
probesConserve(const TelemetryRep &rep)
{
    if (rep.metrics.probeValues.empty() ||
        rep.intervals.empty())
        return false;
    std::vector<std::uint64_t> sum(
        rep.metrics.probeValues.size(), 0);
    for (const IntervalSample &s : rep.intervals) {
        if (s.probeValues.size() != sum.size())
            return false;
        for (std::size_t c = 0; c < sum.size(); ++c)
            sum[c] += s.probeValues[c];
    }
    return sum == rep.metrics.probeValues;
}

/** Do the interval deltas sum bit-exactly to the aggregate? */
bool
intervalsConserve(const TelemetryRep &rep)
{
    if (rep.intervals.empty())
        return false;
    PodCounters sum;
    for (const IntervalSample &s : rep.intervals)
        addFields(PodCounters::kCounters, sum, s);
    return countersIdentical("interval sum vs aggregate", sum,
                             rep.metrics);
}

/** Exact-vs-sampled twins of one footprint point (runPoint). */
struct SamplingBench
{
    PointResult exact;
    PointResult sampled;
    unsigned intervals = 0;
    /** Derived metrics whose exact value landed inside the
     * sampled 95% CI (of metricsChecked). */
    int metricsWithinCi = 0;
    int metricsChecked = 0;

    /** Exact measure time over the sampled ff+timed phases; the
     * one-off span-artifact build is excluded (it amortizes
     * across runs like the trace cache). */
    double
    marginalSpeedup() const
    {
        const double s = sampled.timing.sampleFfSeconds +
                         sampled.timing.sampleTimedSeconds;
        return s > 0.0 ? exact.timing.measureSeconds / s : 0.0;
    }

    /** Same numerator over the whole sampled measure phase,
     * artifact build included. */
    double
    allInSpeedup() const
    {
        return sampled.timing.measureSeconds > 0.0
                   ? exact.timing.measureSeconds /
                         sampled.timing.measureSeconds
                   : 0.0;
    }
};

double
samplingExtra(const PointResult &r, const char *name)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return value;
    }
    return 0.0;
}

SamplingBench
runSamplingBench(WorkloadKind wk, double scale,
                 std::uint64_t seed, std::uint64_t capacity_mb)
{
    ExperimentPoint exact;
    exact.experiment = "perf_engine";
    exact.workload = wk;
    exact.cfg.design = "footprint";
    exact.cfg.capacityMb = capacity_mb;
    exact.scale = scale;
    exact.baseSeed = seed;
    exact.label = standardLabel(wk, exact.cfg) + "/exact";
    exact.pinSampling = true;

    ExperimentPoint sampled = exact;
    sampled.label = standardLabel(wk, sampled.cfg) + "/sampled";
    sampled.cfg.pod.sampling.enabled = true;

    SamplingBench out;
    out.exact = runPoint(exact);
    out.sampled = runPoint(sampled);
    out.intervals = static_cast<unsigned>(
        samplingExtra(out.sampled, "sampled_intervals"));

    const RunMetrics &m = out.exact.metrics;
    for (const SampledRatio &ratio : kSampledRatios) {
        const std::string base = ratio.name;
        const double mean = samplingExtra(
            out.sampled, (base + "_mean").c_str());
        const double ci = samplingExtra(
            out.sampled, (base + "_ci95").c_str());
        ++out.metricsChecked;
        if (std::abs(ratio.of(m) - mean) <= ci + 1e-12)
            ++out.metricsWithinCi;
    }
    return out;
}

/** The common flags perf_engine honours: the run window. */
bool
isWindowFlag(const char *flag)
{
    for (const char *window :
         {"--quick", "--scale", "--seed", "--base-seed", "--workload"}) {
        if (!std::strcmp(flag, window))
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_engine.json";
    SweepOptions args;
    try {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
                out_path = argv[++i];
            } else if (const char *flag = argv[i];
                       parseCommonFlag(args, argc, argv, i)) {
                // perf_engine times one engine serially over a
                // window: a shard pool would perturb the very
                // timings it reports, and it writes no sweep
                // artifact, journal or sampled result. Any other
                // common flag would be silently ignored.
                if (!isWindowFlag(flag)) {
                    std::fprintf(stderr,
                                 "perf_engine takes only the window "
                                 "flags (--quick, --scale, --seed, "
                                 "--workload); %s is not "
                                 "supported\n",
                                 flag);
                    return 2;
                }
            } else {
                std::fprintf(stderr,
                             "usage: %s [--quick] [--scale F] "
                             "[--seed N] [--workload NAME] "
                             "[--out FILE]\n",
                             argv[0]);
                return 2;
            }
        }
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (!checkWorkloadFilter(args))
        return 2;

    const std::uint64_t capacity_mb = 512;
    // checkWorkloadFilter guarantees a non-empty selection.
    const WorkloadKind wk = args.workloads().front();

    const char *designs[] = {
        "baseline", "block", "page",
        "footprint", "ideal"};

    std::printf("\n=== engine performance ===\n");
    std::printf("workload %s, %lluMB, scale %.2f, seed %llu\n",
                workloadName(wk),
                static_cast<unsigned long long>(capacity_mb),
                args.scale,
                static_cast<unsigned long long>(args.seed));
    std::printf("  %-10s %14s %14s\n", "design", "warmup r/s",
                "measure r/s");

    std::FILE *json = std::fopen(out_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"perf_engine\",\n");
    std::fprintf(json, "  \"workload\": \"%s\",\n",
                 workloadName(wk));
    std::fprintf(json, "  \"capacity_mb\": %llu,\n",
                 static_cast<unsigned long long>(capacity_mb));
    std::fprintf(json, "  \"scale\": %.4f,\n", args.scale);
    std::fprintf(json, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(json, "  \"designs\": {\n");

    bool first_design = true;
    for (const char *d : designs) {
        const PhaseTimes r =
            runPhased(wk, d, args.scale, args.seed, capacity_mb);
        std::printf("  %-10s %14.0f %14.0f\n", d,
                    r.warmupRecsPerSec(), r.measureRecsPerSec());

        if (!first_design)
            std::fprintf(json, ",\n");
        first_design = false;
        std::fprintf(
            json,
            "    \"%s\": {\"warmup_records\": %llu, "
            "\"warmup_seconds\": %.4f, "
            "\"warmup_records_per_sec\": %.0f, "
            "\"measure_records\": %llu, "
            "\"measure_seconds\": %.4f, "
            "\"measure_records_per_sec\": %.0f,\n"
            "      \"measured\": {\"ipc\": %.5f, "
            "\"miss_ratio\": %.5f, \"mpki\": %.4f}}",
            d, static_cast<unsigned long long>(r.warmupRecords),
            r.warmupSeconds, r.warmupRecsPerSec(),
            static_cast<unsigned long long>(r.measureRecords),
            r.measureSeconds, r.measureRecsPerSec(),
            r.metrics.ipc(), r.metrics.missRatio(),
            r.metrics.instructions
                ? 1000.0 * r.metrics.llcMisses / r.metrics.instructions
                : 0.0);
    }
    std::fprintf(json, "\n  },\n");

    // Trace arena: generation vs zero-copy replay of the same
    // stream — the per-point cost the sweep's TraceCache removes
    // for every point after the first sharing a trace identity.
    const TraceBench tb =
        runTraceBench(wk, args.scale, args.seed, capacity_mb);
    std::printf("\ntrace arena (%llu records): generate %.0f "
                "rec/s, replay %.0f rec/s (%.1fx)\n",
                static_cast<unsigned long long>(tb.records),
                tb.generateRecsPerSec(), tb.replayRecsPerSec(),
                tb.speedup());
    std::fprintf(
        json,
        "  \"trace\": {\"records\": %llu, "
        "\"generate_seconds\": %.4f, "
        "\"generate_records_per_sec\": %.0f, "
        "\"replay_seconds\": %.4f, "
        "\"replay_records_per_sec\": %.0f, "
        "\"replay_speedup\": %.2f},\n",
        static_cast<unsigned long long>(tb.records),
        tb.generateSeconds, tb.generateRecsPerSec(),
        tb.replaySeconds, tb.replayRecsPerSec(), tb.speedup());

    // Telemetry hot-path overhead: interleaved off/on pairs (so
    // thermal and frequency drift hit both sides equally), min of
    // reps (the least-disturbed sample), full measured window
    // with every probe live on the on side. The <2% budget is
    // enforced by scripts/check_bench_regression.py.
    constexpr int kTelemetryReps = 4;
    double telemetry_off_min = 0.0, telemetry_on_min = 0.0;
    double intro_min = 0.0;
    bool telemetry_identical = true, telemetry_conserves = true;
    bool intro_identical = true, intro_conserves = true;
    for (int rep = 0; rep < kTelemetryReps; ++rep) {
        const TelemetryRep off =
            runTelemetryRep(wk, args.scale, args.seed,
                            capacity_mb, TelemetryMode::Off);
        const TelemetryRep on =
            runTelemetryRep(wk, args.scale, args.seed,
                            capacity_mb, TelemetryMode::Probes);
        const TelemetryRep intro = runTelemetryRep(
            wk, args.scale, args.seed, capacity_mb,
            TelemetryMode::Introspection);
        if (rep == 0 || off.measureSeconds < telemetry_off_min)
            telemetry_off_min = off.measureSeconds;
        if (rep == 0 || on.measureSeconds < telemetry_on_min)
            telemetry_on_min = on.measureSeconds;
        if (rep == 0 || intro.measureSeconds < intro_min)
            intro_min = intro.measureSeconds;
        telemetry_identical =
            telemetry_identical &&
            countersIdentical("telemetry off vs on", off.metrics,
                              on.metrics);
        telemetry_conserves =
            telemetry_conserves && intervalsConserve(on);
        intro_identical =
            intro_identical &&
            countersIdentical("introspection off vs on",
                              off.metrics, intro.metrics);
        intro_conserves = intro_conserves &&
                          intervalsConserve(intro) &&
                          probesConserve(intro);
    }
    const double telemetry_overhead_pct =
        telemetry_off_min > 0.0
            ? 100.0 * (telemetry_on_min - telemetry_off_min) /
                  telemetry_off_min
            : 0.0;
    const double intro_overhead_pct =
        telemetry_off_min > 0.0
            ? 100.0 * (intro_min - telemetry_off_min) /
                  telemetry_off_min
            : 0.0;
    std::printf("\ntelemetry overhead (footprint, intervals + "
                "histograms, min of %d): %.2f%% "
                "(off %.3fs, on %.3fs), metrics identical: %s, "
                "intervals conserve: %s\n",
                kTelemetryReps, telemetry_overhead_pct,
                telemetry_off_min, telemetry_on_min,
                telemetry_identical ? "yes" : "NO",
                telemetry_conserves ? "yes" : "NO");
    std::printf("introspection overhead (attribution + design "
                "probes + heatmaps, min of %d): %.2f%% "
                "(on %.3fs), metrics identical: %s, "
                "probes conserve: %s\n",
                kTelemetryReps, intro_overhead_pct, intro_min,
                intro_identical ? "yes" : "NO",
                intro_conserves ? "yes" : "NO");
    std::fprintf(
        json,
        "  \"telemetry\": {\"reps\": %d, "
        "\"measure_seconds_off\": %.4f, "
        "\"measure_seconds_on\": %.4f, "
        "\"overhead_pct\": %.2f, "
        "\"metrics_identical\": %s, "
        "\"intervals_conserve\": %s, "
        "\"measure_seconds_introspection\": %.4f, "
        "\"introspection_overhead_pct\": %.2f, "
        "\"introspection_metrics_identical\": %s, "
        "\"introspection_probes_conserve\": %s},\n",
        kTelemetryReps, telemetry_off_min, telemetry_on_min,
        telemetry_overhead_pct,
        telemetry_identical ? "true" : "false",
        telemetry_conserves ? "true" : "false", intro_min,
        intro_overhead_pct, intro_identical ? "true" : "false",
        intro_conserves ? "true" : "false");

    // Sampled execution: the same footprint point measured exact
    // and sampled (runPoint twins, as the sampling_validation
    // experiment pairs them). Marginal speedup excludes the
    // one-off span-artifact build, which amortizes across every
    // run sharing (workload, warmup, hierarchy, schedule) — the
    // all-in number charges it to this single run. Coverage is
    // how many of the four derived metrics the exact run lands
    // inside the sampled 95% CI (scripts/check_sampling.py
    // enforces >=90% across the whole validation grid).
    const SamplingBench sb =
        runSamplingBench(wk, args.scale, args.seed, capacity_mb);
    std::printf("\nsampled execution (footprint, %u intervals): "
                "%.2fx marginal / %.2fx all-in "
                "(exact %.3fs, sampled ff %.3fs + timed %.3fs), "
                "%d/%d metrics within 95%% CI\n",
                sb.intervals, sb.marginalSpeedup(),
                sb.allInSpeedup(),
                sb.exact.timing.measureSeconds,
                sb.sampled.timing.sampleFfSeconds,
                sb.sampled.timing.sampleTimedSeconds,
                sb.metricsWithinCi, sb.metricsChecked);
    std::fprintf(
        json,
        "  \"sampling\": {\"intervals\": %u, "
        "\"exact_measure_seconds\": %.4f, "
        "\"sampled_measure_seconds\": %.4f, "
        "\"sample_ff_seconds\": %.4f, "
        "\"sample_timed_seconds\": %.4f, "
        "\"marginal_speedup\": %.2f, "
        "\"all_in_speedup\": %.2f, "
        "\"metrics_within_ci\": %d, "
        "\"metrics_checked\": %d}\n",
        sb.intervals, sb.exact.timing.measureSeconds,
        sb.sampled.timing.measureSeconds,
        sb.sampled.timing.sampleFfSeconds,
        sb.sampled.timing.sampleTimedSeconds,
        sb.marginalSpeedup(), sb.allInSpeedup(),
        sb.metricsWithinCi, sb.metricsChecked);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());

    if (!telemetry_identical || !intro_identical ||
        !telemetry_conserves)
        return 1;
    return 0;
}
