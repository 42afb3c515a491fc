/**
 * @file
 * Engine performance harness.
 *
 * Every timed run is runPoint() over one shared TraceCache, the
 * path the sweep runs: each point replays the identity's arena
 * and its warm window's WarmupArtifact, then times the measured
 * window. The cache is primed first (one untimed point per warm
 * window), so no timed rep builds anything. Sections:
 *
 *  - trace: arena generation against zero-copy replay;
 *  - designs: every DesignRegistry design at 512MB, kReps
 *    interleaved reps in which baseline runs before and after
 *    each other design; per-design medians of warm ns/op and
 *    measure ns/record, and the median per-rep ratio of the
 *    design's ns/record to baseline's around it (the regression
 *    guard's metric);
 *  - telemetry: the footprint point with probes and with
 *    introspection, each bracketed the same way by the point with
 *    telemetry off; median per-rep overhead with a
 *    distribution-free 95% interval;
 *  - sampling: the footprint point measured sampled against the
 *    exact reps, with the span-artifact build and its break-even.
 *
 * Results go to stdout and to BENCH_engine.json, committed as the
 * perf trajectory across PRs. Exits nonzero if telemetry changes
 * metrics or intervals or probe columns do not conserve.
 *
 * Flags: the window subset of the common set (--quick, --scale,
 * --seed/--base-seed, --workload; every other common flag exits
 * 2) plus --out FILE for the JSON path.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/wall_clock.hh"
#include "sim/sweep.hh"

using namespace fpc;

namespace {

/** Interleaved reps per timed point; >= 6 so a distribution-free
 * 95% interval of the median exists. */
constexpr int kReps = 9;
static_assert(kReps >= 6);

constexpr std::uint64_t kCapacityMb = 512;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Distribution-free 95% interval of the median: the order
 * statistics x(r) and x(n+1-r), r the largest rank with
 * P(Binomial(n, 1/2) < r) <= 2.5%.
 */
std::pair<double, double>
medianInterval95(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    double term = std::ldexp(1.0, -static_cast<int>(n));
    double tail = 0.0;
    std::size_t r = 0;
    for (std::size_t k = 0; k < n; ++k) {
        tail += term; // P(X <= k)
        if (tail > 0.025)
            break;
        r = k + 1;
        term = term * static_cast<double>(n - k) / (k + 1);
    }
    return {v[r - 1], v[n - r]};
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
probesConserve(const PointResult &r)
{
    if (r.metrics.probeValues.empty() || r.intervals.empty())
        return false;
    std::vector<std::uint64_t> sum(r.metrics.probeValues.size(), 0);
    for (const IntervalSample &s : r.intervals) {
        if (s.probeValues.size() != sum.size())
            return false;
        for (std::size_t c = 0; c < sum.size(); ++c)
            sum[c] += s.probeValues[c];
    }
    return sum == r.metrics.probeValues;
}

/** Do the interval deltas sum bit-exactly to the aggregate? */
bool
intervalsConserve(const PointResult &r)
{
    if (r.intervals.empty())
        return false;
    PodCounters sum;
    for (const IntervalSample &s : r.intervals)
        addFields(PodCounters::kCounters, sum, s);
    return countersIdentical("interval sum vs aggregate", sum,
                             r.metrics);
}

double
extraValue(const PointResult &r, const std::string &name)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return value;
    }
    return 0.0;
}

/**
 * kReps bracketed reps of @p points over their primed cache: per
 * rep the reference points[0] runs first and again after each
 * other point, whose cost is divided by the mean cost of the two
 * reference runs around it, so a drift in host speed over the rep
 * cancels to first order. Odd reps run the others in reverse.
 * @p observe records a result and returns its cost. Returns each
 * point's per-rep ratios (1 for the reference).
 */
std::vector<std::vector<double>>
bracketedRatios(
    const std::vector<ExperimentPoint> &points,
    const std::function<double(std::size_t, const PointResult &)>
        &observe)
{
    auto run = [&](std::size_t i) {
        const PointResult r = runPoint(points[i]);
        if (r.timing.generatedTrace || r.timing.builtWarmup) {
            std::fprintf(stderr,
                         "%s: timed rep rebuilt a shared artifact\n",
                         points[i].label.c_str());
            std::exit(1);
        }
        return observe(i, r);
    };
    const std::size_t n = points.size();
    std::vector<std::vector<double>> ratio(n);
    for (int rep = 0; rep < kReps; ++rep) {
        double before = run(0);
        ratio[0].push_back(1.0);
        for (std::size_t k = 1; k < n; ++k) {
            const std::size_t i = rep % 2 ? n - k : k;
            const double cost = run(i);
            const double after = run(0);
            ratio[i].push_back(cost / (0.5 * (before + after)));
            before = after;
        }
    }
    return ratio;
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

const char *
yesNo(bool b)
{
    return b ? "yes" : "NO";
}

const char *
trueFalse(bool b)
{
    return b ? "true" : "false";
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

    // checkWorkloadFilter guarantees a non-empty selection.
    const WorkloadKind wk = args.workloads().front();
    const std::uint64_t measure = measureRecords(args.scale);

    // Unbounded budget: nothing is evicted, so no timed rep
    // rebuilds an arena or artifact.
    TraceCache cache(std::numeric_limits<std::uint64_t>::max());

    // Every registry design, baseline first: the reference the
    // others are bracketed by.
    std::vector<ExperimentPoint> points;
    std::uint64_t arena_records = 0;
    for (const std::string &d : DesignRegistry::instance().names()) {
        ExperimentPoint &p = points.emplace_back();
        p.experiment = "perf_engine";
        p.workload = wk;
        p.cfg.design = d;
        p.cfg.capacityMb = kCapacityMb;
        p.scale = args.scale;
        p.baseSeed = args.seed;
        p.label = standardLabel(wk, p.cfg);
        p.traceCache = &cache;
        arena_records = std::max(arena_records, p.standardRecords());
    }
    std::stable_partition(points.begin(), points.end(),
                          [](const ExperimentPoint &p) {
                              return p.cfg.design == "baseline";
                          });
    std::size_t footprint = 0;
    while (points[footprint].cfg.design != "footprint")
        ++footprint;

    std::printf("\n=== engine performance ===\n");
    std::printf("workload %s, %lluMB, scale %.2f, seed %llu, "
                "%d reps\n",
                workloadName(wk),
                static_cast<unsigned long long>(kCapacityMb),
                args.scale, static_cast<unsigned long long>(args.seed),
                kReps);

    // Trace arena: generation of the shared arena vs zero-copy
    // replay of it — the per-point cost the TraceCache removes
    // for every point after the first sharing a trace identity.
    auto t0 = std::chrono::steady_clock::now();
    const auto arena = acquireTraceArena(
        cache, wk, points.front().cfg.pageBytes, args.seed,
        arena_records);
    const double generate_s = secondsSince(t0);
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
    const double replay_s = secondsSince(t0);
    // Keep the drain loop observable.
    if (sink == 0x5eed)
        std::fprintf(stderr, "\n");
    const double records = static_cast<double>(arena->size());
    std::printf("trace arena (%.0f records): generate %.0f rec/s, "
                "replay %.0f rec/s (%.1fx)\n",
                records, records / generate_s, records / replay_s,
                generate_s / replay_s);

    // Prime: per warm window, count the post-L2 ops of its
    // hierarchy pass and let one untimed point build its
    // WarmupArtifact into the cache.
    std::map<std::uint64_t, double> warm_ops;
    for (const ExperimentPoint &p : points) {
        const std::uint64_t warm = p.warmupWindow();
        if (warm_ops.count(warm))
            continue;
        warm_ops[warm] = std::max<double>(
            1, PodSystem::buildWarmupArtifact(*arena,
                                              p.cfg.pod.hierarchy, warm)
                   ->paddr.size());
        runPoint(p);
    }

    // Designs: the cost compared is ns/record over the warm
    // restore and the measured window.
    const std::size_t nd = points.size();
    std::vector<std::vector<double>> warm_s(nd), measure_s(nd);
    std::vector<RunMetrics> metrics(nd);
    const auto ratio = bracketedRatios(
        points, [&](std::size_t d, const PointResult &r) {
            warm_s[d].push_back(r.timing.warmupSeconds);
            measure_s[d].push_back(r.timing.measureSeconds);
            metrics[d] = r.metrics;
            return (r.timing.warmupSeconds + r.timing.measureSeconds) /
                   points[d].standardRecords();
        });

    std::FILE *json = std::fopen(out_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n  \"bench\": \"perf_engine\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"capacity_mb\": %llu,\n"
                 "  \"scale\": %.4f,\n"
                 "  \"seed\": %llu,\n"
                 "  \"reps\": %d,\n"
                 "  \"designs\": {\n",
                 workloadName(wk),
                 static_cast<unsigned long long>(kCapacityMb),
                 args.scale, static_cast<unsigned long long>(args.seed),
                 kReps);
    std::printf("\n  %-10s %12s %14s %10s\n", "design",
                "warm ns/op", "measure ns/rec", "x baseline");
    for (std::size_t d = 0; d < nd; ++d) {
        const std::string &name = points[d].cfg.design;
        const std::uint64_t warm = points[d].warmupWindow();
        const double warm_ns = 1e9 * median(warm_s[d]) / warm_ops.at(warm);
        const double measure_ns = 1e9 * median(measure_s[d]) / measure;
        const double rel = median(ratio[d]);
        std::printf("  %-10s %12.1f %14.1f %10.3f\n", name.c_str(),
                    warm_ns, measure_ns, rel);
        const RunMetrics &m = metrics[d];
        std::fprintf(
            json,
            "    \"%s\": {\"warm_records\": %llu, \"warm_ops\": %.0f, "
            "\"warm_seconds\": %.4f, \"warm_ns_per_op\": %.2f, "
            "\"measure_records\": %llu, \"measure_seconds\": %.4f, "
            "\"measure_ns_per_record\": %.2f, "
            "\"ratio_to_baseline\": %.4f,\n"
            "      \"measured\": {\"ipc\": %.5f, "
            "\"miss_ratio\": %.5f, \"mpki\": %.4f}}%s\n",
            name.c_str(), static_cast<unsigned long long>(warm),
            warm_ops.at(warm), median(warm_s[d]), warm_ns,
            static_cast<unsigned long long>(measure),
            median(measure_s[d]), measure_ns, rel, m.ipc(),
            m.missRatio(),
            m.instructions ? 1000.0 * m.llcMisses / m.instructions
                           : 0.0,
            d + 1 < nd ? "," : "");
    }
    std::fprintf(
        json,
        "  },\n"
        "  \"trace\": {\"records\": %.0f, "
        "\"generate_seconds\": %.4f, "
        "\"generate_records_per_sec\": %.0f, "
        "\"replay_seconds\": %.4f, "
        "\"replay_records_per_sec\": %.0f, "
        "\"replay_speedup\": %.2f},\n",
        records, generate_s, records / generate_s, replay_s,
        records / replay_s, generate_s / replay_s);

    // Telemetry hot-path overhead: three points that differ only
    // in cfg.pod.telemetry share the footprint point's arena and
    // artifact; the instrumented ones are bracketed by the off one
    // and each rep yields one overhead of the measured window per
    // instrumented point. The <=2% budget is enforced on the
    // interval by scripts/check_bench_regression.py.
    const ExperimentPoint &off = points[footprint];
    ExperimentPoint probes = off;
    // Both features on: every probe site and the epoch check are
    // live, so this bounds the full enabled cost.
    probes.cfg.pod.telemetry.intervalRecords =
        std::max<std::uint64_t>(1, measure / 32);
    probes.cfg.pod.telemetry.histograms = true;
    // The full introspection surface: shadow-directory miss
    // attribution, per-structure probe columns and spatial
    // heatmaps, streamed per epoch. 1-in-64 set sampling is the
    // classical shadow-tag ratio; it also keeps the shadow
    // structures inside the LLC, where the budget is won.
    ExperimentPoint intro = off;
    intro.cfg.pod.telemetry.intervalRecords =
        probes.cfg.pod.telemetry.intervalRecords;
    intro.cfg.pod.telemetry.missAttributionStride = 64;
    intro.cfg.pod.telemetry.designProbes = true;
    intro.cfg.pod.telemetry.heatmaps = true;

    std::vector<std::vector<double>> tel_s(3);
    bool probes_identical = true, probes_conserve = true;
    bool intro_identical = true, intro_conserve = true;
    auto tel_ratio = bracketedRatios(
        {off, probes, intro}, [&](std::size_t i, const PointResult &r) {
            tel_s[i].push_back(r.timing.measureSeconds);
            if (i == 1) {
                probes_identical =
                    countersIdentical("telemetry off vs on",
                                      metrics[footprint], r.metrics) &&
                    probes_identical;
                probes_conserve = intervalsConserve(r) && probes_conserve;
            } else if (i == 2) {
                intro_identical =
                    countersIdentical("introspection off vs on",
                                      metrics[footprint], r.metrics) &&
                    intro_identical;
                intro_conserve = intervalsConserve(r) &&
                                 probesConserve(r) && intro_conserve;
            }
            return r.timing.measureSeconds;
        });
    for (std::vector<double> &ratios : tel_ratio) {
        for (double &x : ratios)
            x = 100.0 * (x - 1.0);
    }
    const std::vector<double> &probes_pct = tel_ratio[1];
    const std::vector<double> &intro_pct = tel_ratio[2];
    const auto [probes_lo, probes_hi] = medianInterval95(probes_pct);
    const auto [intro_lo, intro_hi] = medianInterval95(intro_pct);
    std::printf("\ntelemetry overhead (footprint, intervals + "
                "histograms): %+.2f%% [95%%: %+.2f, %+.2f] "
                "(off %.3fs, on %.3fs), metrics identical: %s, "
                "intervals conserve: %s\n",
                median(probes_pct), probes_lo, probes_hi,
                median(tel_s[0]), median(tel_s[1]),
                yesNo(probes_identical), yesNo(probes_conserve));
    std::printf("introspection overhead (attribution + design "
                "probes + heatmaps): %+.2f%% [95%%: %+.2f, %+.2f] "
                "(on %.3fs), metrics identical: %s, "
                "probes conserve: %s\n",
                median(intro_pct), intro_lo, intro_hi,
                median(tel_s[2]), yesNo(intro_identical),
                yesNo(intro_conserve));
    std::fprintf(
        json,
        "  \"telemetry\": {\"reps\": %d, "
        "\"measure_seconds_off\": %.4f, "
        "\"measure_seconds_on\": %.4f, "
        "\"overhead_pct\": %.2f, "
        "\"overhead_pct_ci95\": [%.2f, %.2f], "
        "\"metrics_identical\": %s, "
        "\"intervals_conserve\": %s,\n"
        "    \"measure_seconds_introspection\": %.4f, "
        "\"introspection_overhead_pct\": %.2f, "
        "\"introspection_overhead_pct_ci95\": [%.2f, %.2f], "
        "\"introspection_metrics_identical\": %s, "
        "\"introspection_probes_conserve\": %s},\n",
        kReps, median(tel_s[0]), median(tel_s[1]), median(probes_pct),
        probes_lo, probes_hi, trueFalse(probes_identical),
        trueFalse(probes_conserve), median(tel_s[2]),
        median(intro_pct), intro_lo, intro_hi,
        trueFalse(intro_identical), trueFalse(intro_conserve));

    // Sampled execution: the footprint point measured sampled
    // against the exact reps above (the sampling_validation
    // pairing). Marginal speedup is exact measure time over the
    // sampled ff + timed phases; the span artifact built here
    // amortizes across every design sharing (workload, warmup,
    // hierarchy, schedule), and break-even is how many such
    // designs repay its build. Coverage counts the derived
    // metrics whose exact value lands inside the sampled 95% CI.
    ExperimentPoint sampled = off;
    sampled.cfg.pod.sampling.enabled = true;
    const double built_before = cache.stats().buildSeconds;
    const PointResult sr = runPoint(sampled);
    const double span_build_s = cache.stats().buildSeconds - built_before;
    const double exact_s = median(measure_s[footprint]);
    const double sampled_s =
        sr.timing.sampleFfSeconds + sr.timing.sampleTimedSeconds;
    const double saved_s = exact_s - sampled_s;
    const double break_even =
        saved_s > 0.0 ? span_build_s / saved_s : 0.0;
    int within_ci = 0;
    for (const SampledRatio &r : kSampledRatios) {
        const std::string base = r.name;
        if (std::abs(r.of(metrics[footprint]) -
                     extraValue(sr, base + "_mean")) <=
            extraValue(sr, base + "_ci95") + 1e-12)
            ++within_ci;
    }
    const unsigned intervals = static_cast<unsigned>(
        extraValue(sr, "sampled_intervals"));
    std::printf("\nsampled execution (footprint, %u intervals): "
                "%.2fx marginal (exact %.3fs, sampled ff %.3fs + "
                "timed %.3fs), span build %.3fs = %.2f designs to "
                "break even, %d/%zu metrics within 95%% CI\n",
                intervals, exact_s / sampled_s, exact_s,
                sr.timing.sampleFfSeconds,
                sr.timing.sampleTimedSeconds, span_build_s,
                break_even, within_ci, kSampledRatios.size());
    std::fprintf(
        json,
        "  \"sampling\": {\"intervals\": %u, "
        "\"exact_measure_seconds\": %.4f, "
        "\"sample_ff_seconds\": %.4f, "
        "\"sample_timed_seconds\": %.4f, "
        "\"marginal_speedup\": %.2f, "
        "\"span_build_seconds\": %.4f, "
        "\"break_even_designs\": %.2f, "
        "\"metrics_within_ci\": %d, "
        "\"metrics_checked\": %zu}\n}\n",
        intervals, exact_s, sr.timing.sampleFfSeconds,
        sr.timing.sampleTimedSeconds, exact_s / sampled_s,
        span_build_s, break_even, within_ci, kSampledRatios.size());
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());

    return probes_identical && probes_conserve && intro_identical &&
                   intro_conserve
               ? 0
               : 1;
}
