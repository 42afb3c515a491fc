/**
 * @file
 * Sweep subsystem tests: grid expansion, per-point seed
 * determinism (stable under registry reordering, independent of
 * shard count), bit-identical metrics between --jobs 1 and
 * --jobs 8, merged-report completeness, strict validation of the
 * common flags' numeric values, the one field each common flag
 * lands in, and how a sweep's options apply to its points.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "experiments/experiments.hh"
#include "sim/registry.hh"
#include "sim/sweep.hh"

#include "run_points.hh"

namespace fpc {
namespace {

using fpcbench::registerAllExperiments;

/** A small but non-trivial batch: two designs, two workloads. */
std::vector<ExperimentPoint>
smallBatch()
{
    SweepSpec spec;
    spec.experiment = "unit";
    spec.workloads = {WorkloadKind::WebSearch,
                      WorkloadKind::DataServing};
    spec.designs = {"baseline", "footprint"};
    spec.capacitiesMb = {64};
    spec.scale = 0.02;
    return spec.expand();
}

void
expectMetricsIdentical(const PointResult &a, const PointResult &b,
                       const std::string &key)
{
    EXPECT_EQ(
        fieldDiff(PodCounters::kCounters, a.metrics, b.metrics), "")
        << key;
    EXPECT_EQ(a.covered, b.covered) << key;
    EXPECT_EQ(a.underpred, b.underpred) << key;
    EXPECT_EQ(a.overpred, b.overpred) << key;
    EXPECT_EQ(a.trigMisses, b.trigMisses) << key;
    EXPECT_EQ(a.singletonBypasses, b.singletonBypasses) << key;
    EXPECT_EQ(a.densityBuckets, b.densityBuckets) << key;
}

TEST(SweepSpec, ExpandsFullCrossProduct)
{
    SweepSpec spec;
    spec.experiment = "x";
    spec.workloads = {WorkloadKind::WebSearch,
                      WorkloadKind::MapReduce};
    spec.designs = {"block", "footprint"};
    spec.capacitiesMb = {64, 256};
    spec.pageBytes = {1024, 2048};
    std::vector<ExperimentPoint> points = spec.expand();
    EXPECT_EQ(points.size(), 2u * 2 * 2 * 2);

    // Keys are unique.
    std::vector<std::string> keys;
    for (const ExperimentPoint &p : points)
        keys.push_back(p.key());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());

    // Fixed nested order: workload outermost, then capacity,
    // then design, then page size.
    EXPECT_EQ(points[0].workload, WorkloadKind::WebSearch);
    EXPECT_EQ(points[0].cfg.capacityMb, 64u);
    EXPECT_EQ(points[0].cfg.design, "block");
    EXPECT_EQ(points[0].cfg.pageBytes, 1024u);
    EXPECT_EQ(points[1].cfg.pageBytes, 2048u);
    EXPECT_EQ(points[2].cfg.design, "footprint");
    EXPECT_EQ(points[8].workload, WorkloadKind::MapReduce);
}

TEST(SweepSpec, LabelsEncodeNonDefaultKnobs)
{
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 256;
    EXPECT_EQ(standardLabel(WorkloadKind::WebSearch, cfg),
              "WebSearch/footprint/256MB/2048B");
    cfg.singletonOptimization = false;
    cfg.fhtTrain = FhtTrain::Union;
    EXPECT_EQ(
        standardLabel(WorkloadKind::WebSearch, cfg),
        "WebSearch/footprint/256MB/2048B/nosingleton/train=union");
}

TEST(SweepSeed, DerivedFromTraceIdentityOnly)
{
    ExperimentPoint a;
    a.experiment = "fig05";
    a.workload = WorkloadKind::WebSearch;
    a.cfg.design = "block";
    a.cfg.capacityMb = 64;
    a.label = standardLabel(a.workload, a.cfg);

    // Same trace identity, different organization/capacity/
    // experiment: the same trace replays (paired comparison).
    ExperimentPoint b = a;
    b.experiment = "fig06";
    b.cfg.design = "footprint";
    b.cfg.capacityMb = 512;
    b.label = standardLabel(b.workload, b.cfg);
    EXPECT_EQ(a.traceSeed(), b.traceSeed());

    // Different workload, page size or base seed: new trace.
    ExperimentPoint c = a;
    c.workload = WorkloadKind::MapReduce;
    EXPECT_NE(a.traceSeed(), c.traceSeed());
    ExperimentPoint d = a;
    d.cfg.pageBytes = 4096;
    EXPECT_NE(a.traceSeed(), d.traceSeed());
    ExperimentPoint e = a;
    e.baseSeed = 43;
    EXPECT_NE(a.traceSeed(), e.traceSeed());
}

TEST(SweepSeed, StableUnderRegistryReordering)
{
    // The same experiments registered in opposite orders must
    // expand to identical per-point seeds: seeds derive from the
    // point itself, never from registry position.
    SweepOptions opts;
    opts.scale = 0.02;
    opts.workloadFilter = "WebSearch";

    ExperimentRegistry forward, backward;
    registerAllExperiments(forward);
    for (auto it = forward.all().rbegin();
         it != forward.all().rend(); ++it)
        backward.add(*it);

    std::map<std::string, std::uint64_t> seeds_fwd, seeds_bwd;
    for (const ExperimentDef &def : forward.all())
        for (const ExperimentPoint &p : def.build(opts))
            seeds_fwd[p.key()] = p.traceSeed();
    for (const ExperimentDef &def : backward.all())
        for (const ExperimentPoint &p : def.build(opts))
            seeds_bwd[p.key()] = p.traceSeed();

    EXPECT_FALSE(seeds_fwd.empty());
    EXPECT_EQ(seeds_fwd, seeds_bwd);
}

TEST(SweepRunner, JobsOneAndJobsEightBitIdentical)
{
    const std::vector<ExperimentPoint> points = smallBatch();
    const std::vector<PointResult> serial =
        runPoints(SweepRunner(1), points);
    const std::vector<PointResult> sharded =
        runPoints(SweepRunner(8), points);
    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(sharded.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        expectMetricsIdentical(serial[i], sharded[i],
                               points[i].key());

    // The rendered report is byte-identical too: no execution
    // detail (like the job count) leaks into the artifact.
    SweepOptions opts;
    opts.scale = 0.02;
    ExperimentRun a{"unit", "t", points, serial};
    ExperimentRun b{"unit", "t", points, sharded};
    opts.jobs = 1;
    const std::string json_a = renderSweepJson(opts, {a});
    opts.jobs = 8;
    const std::string json_b = renderSweepJson(opts, {b});
    EXPECT_EQ(json_a, json_b);
}

TEST(SweepRunner, CacheOnAndOffBitIdentical)
{
    // The trace/warmup cache is a pure execution optimization:
    // metrics and the rendered report must not change with it.
    const std::vector<ExperimentPoint> points = smallBatch();
    TraceCacheConfig off;
    off.enabled = false;
    SweepRunner cached(2);
    SweepRunner uncached(2, off);
    const std::vector<PointResult> a = runPoints(cached, points);
    const std::vector<PointResult> b =
        runPoints(uncached, points);
    for (std::size_t i = 0; i < points.size(); ++i)
        expectMetricsIdentical(a[i], b[i], points[i].key());

    // The cache actually engaged on the cached run...
    EXPECT_GT(cached.lastCacheStats().hits +
                  cached.lastCacheStats().misses,
              0u);
    EXPECT_EQ(uncached.lastCacheStats().hits, 0u);

    // ...and the artifact replay kicked in for standard points.
    for (const PointResult &r : a)
        EXPECT_TRUE(r.timing.replayedTrace);
    for (const PointResult &r : b)
        EXPECT_FALSE(r.timing.replayedTrace);

    SweepOptions opts;
    opts.scale = 0.02;
    ExperimentRun ra{"unit", "t", points, a};
    ExperimentRun rb{"unit", "t", points, b};
    opts.cache.enabled = true;
    const std::string json_a = renderSweepJson(opts, {ra});
    opts.cache.enabled = false;
    const std::string json_b = renderSweepJson(opts, {rb});
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(json_a.find("timing"), std::string::npos);
}

TEST(SweepRunner, FrontierJsonIdenticalAcrossCacheModes)
{
    // The frontier experiment is the trace cache's prime target:
    // seven designs share each workload's trace and warm window.
    // The merged JSON must stay byte-identical with the cache on
    // (shared arena + warmup artifacts) and off.
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    const ExperimentDef *def = reg.find("frontier");
    ASSERT_NE(def, nullptr);

    SweepOptions opts;
    opts.scale = 0.01;
    opts.workloadFilter = "WebSearch";
    ExperimentRun run;
    run.name = def->name;
    run.title = def->title;
    run.points = def->build(opts);
    ASSERT_EQ(run.points.size(), 7u);

    TraceCacheConfig off;
    off.enabled = false;
    ExperimentRun cached = run;
    cached.results = runPoints(SweepRunner(4), run.points);
    ExperimentRun uncached = run;
    uncached.results =
        runPoints(SweepRunner(4, off), run.points);

    opts.cache.enabled = true;
    const std::string json_on =
        renderSweepJson(opts, {cached});
    opts.cache.enabled = false;
    const std::string json_off =
        renderSweepJson(opts, {uncached});
    EXPECT_EQ(json_on, json_off);
}

TEST(SweepRunner, TinyBudgetEvictsButStaysCorrect)
{
    // A one-byte budget forces eviction after every release; the
    // sweep must still produce identical results (the cache
    // degrades to regeneration, never to wrong data).
    const std::vector<ExperimentPoint> points = smallBatch();
    TraceCacheConfig tiny;
    tiny.budgetBytes = 1;
    SweepRunner constrained(2, tiny);
    SweepRunner roomy(2);
    const std::vector<PointResult> a =
        runPoints(constrained, points);
    const std::vector<PointResult> b = runPoints(roomy, points);
    for (std::size_t i = 0; i < points.size(); ++i)
        expectMetricsIdentical(a[i], b[i], points[i].key());
}

TEST(SweepJson, TimingEmittedOnlyOnExplicitRequest)
{
    const std::vector<ExperimentPoint> points = smallBatch();
    std::vector<PointResult> results(points.size());
    results[0].timing.traceSeconds = 1.25;
    results[0].timing.replayedTrace = true;
    ExperimentRun run{"unit", "t", points, results};

    SweepOptions opts;
    EXPECT_EQ(renderSweepJson(opts, {run}).find("timing"),
              std::string::npos);

    opts.time = true;
    EXPECT_NE(renderSweepJson(opts, {run}).find("\"timing\""),
              std::string::npos);

    // --time-out keeps the merged report clean; the breakdown
    // goes to the standalone artifact instead.
    opts.timeOut = "timing.json";
    EXPECT_EQ(renderSweepJson(opts, {run}).find("timing"),
              std::string::npos);
    const std::string timing_json =
        renderTimingJson(opts, {run}, TraceCacheStats{});
    EXPECT_NE(timing_json.find("\"trace_s\": 1.2500"),
              std::string::npos);
    EXPECT_NE(timing_json.find("sweep_timing"),
              std::string::npos);
    const std::string report =
        renderTimingReport({run}, TraceCacheStats{});
    EXPECT_NE(report.find("unit/"), std::string::npos);
    EXPECT_NE(report.find("trace cache:"), std::string::npos);
}

TEST(SweepRunner, ResultsIndependentOfBatchOrder)
{
    // Reversing the batch must permute, not perturb, results —
    // the other half of schedule-independence.
    std::vector<ExperimentPoint> points = smallBatch();
    std::vector<ExperimentPoint> reversed(points.rbegin(),
                                          points.rend());
    const std::vector<PointResult> a =
        runPoints(SweepRunner(2), points);
    const std::vector<PointResult> b =
        runPoints(SweepRunner(2), reversed);
    for (std::size_t i = 0; i < points.size(); ++i)
        expectMetricsIdentical(a[i],
                               b[points.size() - 1 - i],
                               points[i].key());
}

TEST(SweepRunner, PointFailurePropagatesWithKey)
{
    // A throwing point must come back as a failure record —
    // never std::terminate from a worker thread — without
    // suppressing the other points, and runPoints must report it
    // by key and error.
    std::vector<ExperimentPoint> points;
    ExperimentPoint bad;
    bad.experiment = "unit";
    bad.label = "explodes";
    bad.custom = [](const ExperimentPoint &) -> PointResult {
        throw std::runtime_error("boom");
    };
    points.push_back(bad);
    ExperimentPoint fine = bad;
    fine.label = "fine";
    fine.custom = [](const ExperimentPoint &) {
        return PointResult{};
    };
    points.push_back(fine);

    const SweepOutcome out =
        SweepRunner(4).runResilient(points, ResilienceOptions{});
    EXPECT_EQ(out.failed, 1u);
    EXPECT_TRUE(out.results[0].failed);
    EXPECT_EQ(out.results[0].error, "boom");
    EXPECT_FALSE(out.results[1].failed);
    EXPECT_NONFATAL_FAILURE(runPoints(SweepRunner(4), points),
                            "unit/explodes failed: boom");
}

/** parseCommonFlag over one "--flag value" pair. */
SweepOptions
parseOne(const char *flag, const char *value)
{
    const char *argv[] = {"sweep", flag, value};
    SweepOptions opts;
    int i = 1;
    EXPECT_TRUE(
        parseCommonFlag(opts, 3, const_cast<char **>(argv), i));
    EXPECT_EQ(i, 2);
    return opts;
}

TEST(CommonFlags, RejectsMalformedAndOutOfRangeValues)
{
    const std::pair<const char *, const char *> bad[] = {
        {"--scale", "abc"},
        {"--scale", "-1"},
        {"--scale", "0"},
        {"--scale", "0.5x"},
        {"--scale", "inf"},
        {"--scale", "nan"},
        {"--scale", ""},
        {"--jobs", "x"},
        {"--jobs", "-1"},
        {"--jobs", "4294967296"},
        {"--jobs", " 4"},
        {"--seed", "-3"},
        {"--seed", "18446744073709551616"},
        {"--base-seed", "1e3"},
        {"--trace-cache-mb", "17592186044416"}, // 2^44: << 20 wraps
        {"--retries", "+1"},
        {"--backoff-ms", "10ms"},
        {"--point-deadline-s", "-0.5"},
        {"--interval-records", "0x10"},
        {"--miss-attribution", "4294967296"},
        {"--sample-intervals", "ten"},
        {"--sample-interval-records", "-4000"},
        {"--sample-target-ci", "-0.1"},
        {"--sample-target-ci", "inf"},
    };
    for (const auto &[flag, value] : bad) {
        try {
            parseOne(flag, value);
            ADD_FAILURE() << flag << " '" << value << "' accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(flag),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CommonFlags, AcceptsWholeInRangeValues)
{
    EXPECT_EQ(parseOne("--scale", "0.25").scale, 0.25);
    EXPECT_EQ(parseOne("--scale", "1e-3").scale, 1e-3);
    EXPECT_EQ(parseOne("--jobs", "0").jobs, 0u);
    EXPECT_EQ(parseOne("--jobs", "4294967295").jobs, 4294967295u);
    EXPECT_EQ(parseOne("--seed", "18446744073709551615").seed,
              18446744073709551615ull);
    EXPECT_EQ(parseOne("--trace-cache-mb", "17592186044415")
                  .cache.budgetBytes,
              17592186044415ull << 20);
    EXPECT_EQ(parseOne("--point-deadline-s", "0")
                  .resilience.pointDeadlineS,
              0.0);
    const SweepOptions ci = parseOne("--sample-target-ci", "0.02");
    EXPECT_TRUE(ci.sampling.enabled);
    EXPECT_EQ(ci.sampling.targetCi, 0.02);
    EXPECT_EQ(parseOne("--sample-interval-records", "4000")
                  .sampling.intervalRecords,
              4000u);
}

/** One SweepOptions field, rendered for comparison. */
struct OptionField
{
    const char *name;
    std::string (*render)(const SweepOptions &);
};

template <typename T>
std::string
show(const T &value)
{
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

#define OPTION_FIELD(path)                                         \
    OptionField                                                    \
    {                                                              \
        #path, [](const SweepOptions &o) { return show(o.path); }  \
    }

/** Every field of SweepOptions, subsystem structs field by field. */
const OptionField kOptionFields[] = {
    OPTION_FIELD(scale),
    OPTION_FIELD(seed),
    OPTION_FIELD(workloadFilter),
    OPTION_FIELD(jobs),
    OPTION_FIELD(cache.enabled),
    OPTION_FIELD(cache.budgetBytes),
    OPTION_FIELD(time),
    OPTION_FIELD(timeOut),
    OPTION_FIELD(resilience.retries),
    OPTION_FIELD(resilience.backoffMs),
    OPTION_FIELD(resilience.pointDeadlineS),
    OPTION_FIELD(resilience.journalDir),
    OPTION_FIELD(resilience.resume),
    OPTION_FIELD(resilience.tracer),
    OPTION_FIELD(faultPlan),
    OPTION_FIELD(telemetry.intervalRecords),
    OPTION_FIELD(telemetry.histograms),
    OPTION_FIELD(telemetry.missAttributionStride),
    OPTION_FIELD(telemetry.designProbes),
    OPTION_FIELD(telemetry.heatmaps),
    OPTION_FIELD(telemetry.shadowCapacityBytes),
    OPTION_FIELD(timeseriesOut),
    OPTION_FIELD(traceOut),
    OPTION_FIELD(heatmapOut),
    OPTION_FIELD(sampling.enabled),
    OPTION_FIELD(sampling.intervals),
    OPTION_FIELD(sampling.intervalRecords),
    OPTION_FIELD(sampling.rampRecords),
    OPTION_FIELD(sampling.targetCi),
    OPTION_FIELD(sampling.minIntervals),
};

#undef OPTION_FIELD

TEST(CommonFlags, EveryFlagLandsInOneField)
{
    // Each row: a command line and every field it must change
    // (with the value it must hold); all other fields keep their
    // defaults.
    struct FlagCase
    {
        std::vector<const char *> args;
        std::map<std::string, std::string> changed;
    };
    const FlagCase cases[] = {
        {{"--quick"}, {{"scale", show(0.1)}}},
        {{"--scale", "0.25"}, {{"scale", show(0.25)}}},
        {{"--seed", "7"}, {{"seed", "7"}}},
        {{"--base-seed", "7"}, {{"seed", "7"}}},
        {{"--workload", "WebSearch"},
         {{"workloadFilter", "WebSearch"}}},
        {{"--jobs", "3"}, {{"jobs", "3"}}},
        {{"--no-trace-cache"}, {{"cache.enabled", "0"}}},
        {{"--trace-cache-mb", "64"},
         {{"cache.budgetBytes", show(std::uint64_t{64} << 20)}}},
        {{"--time"}, {{"time", "1"}}},
        {{"--time-out", "t.json"},
         {{"time", "1"}, {"timeOut", "t.json"}}},
        {{"--journal", "j"}, {{"resilience.journalDir", "j"}}},
        {{"--resume"}, {{"resilience.resume", "1"}}},
        {{"--retries", "0"}, {{"resilience.retries", "0"}}},
        {{"--backoff-ms", "1"}, {{"resilience.backoffMs", "1"}}},
        {{"--point-deadline-s", "600"},
         {{"resilience.pointDeadlineS", "600"}}},
        {{"--fault-plan", "point@x:permanent"},
         {{"faultPlan", "point@x:permanent"}}},
        {{"--interval-records", "20000"},
         {{"telemetry.intervalRecords", "20000"}}},
        {{"--histograms"}, {{"telemetry.histograms", "1"}}},
        {{"--timeseries-out", "ts.json"},
         {{"timeseriesOut", "ts.json"}}},
        {{"--trace-out", "tr.json"}, {{"traceOut", "tr.json"}}},
        {{"--miss-attribution", "64"},
         {{"telemetry.missAttributionStride", "64"}}},
        {{"--design-probes"}, {{"telemetry.designProbes", "1"}}},
        {{"--heatmap-out", "h.json"}, {{"heatmapOut", "h.json"}}},
        {{"--sample-mode"}, {{"sampling.enabled", "1"}}},
        {{"--sample-intervals", "6"},
         {{"sampling.enabled", "1"}, {"sampling.intervals", "6"}}},
        {{"--sample-interval-records", "2000"},
         {{"sampling.enabled", "1"},
          {"sampling.intervalRecords", "2000"}}},
        {{"--sample-target-ci", "0.05"},
         {{"sampling.enabled", "1"},
          {"sampling.targetCi", show(0.05)}}},
        // 0 selects the SamplingConfig default (10 intervals of
        // 4000 records): the tuning flags only imply the mode.
        {{"--sample-intervals", "0"}, {{"sampling.enabled", "1"}}},
        {{"--sample-interval-records", "0"},
         {{"sampling.enabled", "1"}}},
        {{"--sample-intervals", "5", "--sample-intervals", "0"},
         {{"sampling.enabled", "1"}}},
    };

    const SweepOptions defaults;
    EXPECT_EQ(defaults.resilience.retries, 2u);
    EXPECT_EQ(defaults.sampling.intervals, 10u);
    EXPECT_EQ(defaults.sampling.intervalRecords, 4000u);

    std::set<std::string> covered;
    for (const FlagCase &c : cases) {
        std::vector<const char *> argv = {"sweep"};
        argv.insert(argv.end(), c.args.begin(), c.args.end());
        const int argc = static_cast<int>(argv.size());
        SweepOptions opts;
        for (int i = 1; i < argc; ++i) {
            covered.insert(argv[i]);
            EXPECT_TRUE(parseCommonFlag(
                opts, argc, const_cast<char **>(argv.data()), i))
                << argv[i];
        }
        std::map<std::string, std::string> changed;
        for (const OptionField &f : kOptionFields) {
            if (f.render(opts) != f.render(defaults))
                changed[f.name] = f.render(opts);
        }
        EXPECT_EQ(changed, c.changed) << c.args.front();
    }

    // Every flag of the usage string has a row.
    std::istringstream usage(kCommonFlagsUsage);
    std::string token;
    std::size_t flags = 0;
    while (usage >> token) {
        const std::size_t start = token.find("--");
        if (start == std::string::npos)
            continue;
        const std::string flag =
            token.substr(start, token.find(']') - start);
        EXPECT_TRUE(covered.count(flag)) << flag;
        ++flags;
    }
    EXPECT_EQ(flags, 27u);
}

/** A standard point the sweep options can be applied to. */
ExperimentPoint
plainPoint()
{
    ExperimentPoint p;
    p.experiment = "unit";
    p.label = "plain";
    p.scale = 0.02;
    return p;
}

TEST(ApplySweepOptions, IntrospectionOnlyWidensWhatThePointPinned)
{
    SweepOptions opts;
    opts.telemetry.missAttributionStride = 64;
    ExperimentPoint narrow = plainPoint();
    narrow.cfg.pod.telemetry.missAttributionStride = 8;
    applySweepOptions(narrow, opts);
    EXPECT_EQ(narrow.cfg.pod.telemetry.missAttributionStride, 64u);

    opts.telemetry.missAttributionStride = 8;
    ExperimentPoint wide = plainPoint();
    wide.cfg.pod.telemetry.missAttributionStride = 64;
    applySweepOptions(wide, opts);
    EXPECT_EQ(wide.cfg.pod.telemetry.missAttributionStride, 64u);

    // Design probes and heatmaps are OR-ed: the sweep turns them
    // on, never off.
    ExperimentPoint pinned = plainPoint();
    pinned.cfg.pod.telemetry.designProbes = true;
    pinned.cfg.pod.telemetry.heatmaps = true;
    applySweepOptions(pinned, SweepOptions{});
    EXPECT_TRUE(pinned.cfg.pod.telemetry.designProbes);
    EXPECT_TRUE(pinned.cfg.pod.telemetry.heatmaps);

    SweepOptions probes;
    probes.telemetry.designProbes = true;
    probes.heatmapOut = "heat.json";
    ExperimentPoint plain = plainPoint();
    applySweepOptions(plain, probes);
    EXPECT_TRUE(plain.cfg.pod.telemetry.designProbes);
    EXPECT_TRUE(plain.cfg.pod.telemetry.heatmaps);
}

TEST(ApplySweepOptions, IntervalsAndHistogramsFollowTheSweep)
{
    // --timeseries-out alone: ~32 epochs over the sweep's
    // measured window.
    SweepOptions opts;
    opts.scale = 0.1;
    opts.timeseriesOut = "ts.json";
    ExperimentPoint p = plainPoint();
    p.cfg.pod.telemetry.histograms = true;
    applySweepOptions(p, opts);
    EXPECT_EQ(p.cfg.pod.telemetry.intervalRecords,
              measureRecords(0.1) / 32);
    EXPECT_FALSE(p.cfg.pod.telemetry.histograms);

    // An explicit --interval-records wins.
    opts.telemetry.intervalRecords = 20000;
    opts.telemetry.histograms = true;
    applySweepOptions(p, opts);
    EXPECT_EQ(p.cfg.pod.telemetry.intervalRecords, 20000u);
    EXPECT_TRUE(p.cfg.pod.telemetry.histograms);
}

TEST(ApplySweepOptions, SamplingSkipsPinnedTenantAndTimedWarmupPoints)
{
    SweepOptions opts;
    opts.sampling.enabled = true;
    opts.sampling.intervals = 6;

    ExperimentPoint plain = plainPoint();
    applySweepOptions(plain, opts);
    EXPECT_EQ(plain.cfg.pod.sampling, opts.sampling);

    const auto exempt = [&](ExperimentPoint p, const char *why) {
        p.cfg.pod.sampling.intervals = 3;
        const SamplingConfig before = p.cfg.pod.sampling;
        applySweepOptions(p, opts);
        EXPECT_EQ(p.cfg.pod.sampling, before) << why;
    };
    ExperimentPoint p = plainPoint();
    p.pinSampling = true;
    exempt(p, "pinSampling");
    p = plainPoint();
    p.cfg.pod.numTenants = 2;
    exempt(p, "numTenants");
    p = plainPoint();
    p.cfg.pod.allTimedWarmup = true;
    exempt(p, "allTimedWarmup");
    p = plainPoint();
    p.cfg.pod.warmupMode = SimMode::Timed;
    exempt(p, "timed warmupMode");

    // With sampling off the sweep leaves a point's config alone.
    p = plainPoint();
    p.cfg.pod.sampling.enabled = true;
    applySweepOptions(p, SweepOptions{});
    EXPECT_TRUE(p.cfg.pod.sampling.enabled);
}

TEST(SweepRunner, RejectsDuplicateKeys)
{
    std::vector<ExperimentPoint> points = smallBatch();
    points.push_back(points.front());
    EXPECT_THROW(runPoints(SweepRunner(1), points),
                 std::runtime_error);
}

TEST(Registry, AllPaperExperimentsRegistered)
{
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    const std::vector<std::string> expected = {
        "fig01",  "fig04",  "fig05",
        "fig06",  "fig07",  "fig08",
        "fig09",  "fig10",  "fig11",
        "fig12",  "table1", "table4",
        "ablation_capacity", "ablation_predictor", "frontier",
        "colocation", "sampling_validation", "introspection"};
    EXPECT_EQ(reg.names(), expected);
    for (const std::string &name : expected)
        EXPECT_NE(reg.find(name), nullptr) << name;
}

TEST(Registry, RejectsDuplicateNames)
{
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    EXPECT_THROW(fpcbench::registerFig06(reg),
                 std::runtime_error);
}

TEST(Registry, EveryBuilderExpandsUniqueKeys)
{
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    SweepOptions opts;
    std::vector<std::string> keys;
    for (const ExperimentDef &def : reg.all())
        for (const ExperimentPoint &p : def.build(opts))
            keys.push_back(p.key());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(SweepJson, MergedReportContainsEveryExperiment)
{
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    SweepOptions opts;

    // Render with expanded (unrun) points: the completeness gate
    // only needs the report structure, not simulation output.
    std::vector<ExperimentRun> runs;
    for (const ExperimentDef &def : reg.all()) {
        ExperimentRun run;
        run.name = def.name;
        run.title = def.title;
        run.points = def.build(opts);
        run.results.resize(run.points.size());
        runs.push_back(std::move(run));
    }
    const std::string json = renderSweepJson(opts, runs);
    for (const std::string &name : reg.names())
        EXPECT_TRUE(sweepJsonHasExperiment(json, name)) << name;
    EXPECT_FALSE(sweepJsonHasExperiment(json, "fig99"));
}

} // namespace
} // namespace fpc
