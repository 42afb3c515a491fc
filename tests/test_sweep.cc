/**
 * @file
 * Sweep subsystem tests: grid expansion, per-point seed
 * determinism (stable under registry reordering, independent of
 * shard count), bit-identical metrics between --jobs 1 and
 * --jobs 8, and merged-report completeness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "experiments/experiments.hh"
#include "sim/registry.hh"
#include "sim/sweep.hh"

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
        SweepRunner(1).run(points);
    const std::vector<PointResult> sharded =
        SweepRunner(8).run(points);
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
    const std::vector<PointResult> a = cached.run(points);
    const std::vector<PointResult> b = uncached.run(points);
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
    opts.traceCache = true;
    const std::string json_a = renderSweepJson(opts, {ra});
    opts.traceCache = false;
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
    cached.results = SweepRunner(4).run(run.points);
    ExperimentRun uncached = run;
    uncached.results = SweepRunner(4, off).run(run.points);

    opts.traceCache = true;
    const std::string json_on =
        renderSweepJson(opts, {cached});
    opts.traceCache = false;
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
    const std::vector<PointResult> a = constrained.run(points);
    const std::vector<PointResult> b = roomy.run(points);
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
        SweepRunner(2).run(points);
    const std::vector<PointResult> b =
        SweepRunner(2).run(reversed);
    for (std::size_t i = 0; i < points.size(); ++i)
        expectMetricsIdentical(a[i],
                               b[points.size() - 1 - i],
                               points[i].key());
}

TEST(SweepRunner, PointFailurePropagatesWithKey)
{
    // A throwing point must surface as a catchable error naming
    // the point — never std::terminate from a worker thread —
    // and must not suppress the other points' execution.
    std::vector<ExperimentPoint> points;
    ExperimentPoint bad;
    bad.experiment = "unit";
    bad.label = "explodes";
    bad.custom = [](const ExperimentPoint &) -> PointResult {
        throw std::runtime_error("boom");
    };
    points.push_back(bad);
    try {
        SweepRunner(4).run(points);
        FAIL() << "expected a runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unit/explodes"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("boom"),
                  std::string::npos);
    }
}

TEST(SweepRunner, RejectsDuplicateKeys)
{
    std::vector<ExperimentPoint> points = smallBatch();
    points.push_back(points.front());
    EXPECT_THROW(SweepRunner(1).run(points),
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
