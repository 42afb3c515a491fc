/**
 * @file
 * Sweep subsystem tests: grid expansion, per-point seed
 * determinism (stable under registry reordering, independent of
 * shard count), bit-identical metrics between --jobs 1 and
 * --jobs 8, merged-report completeness, strict validation of the
 * common flags' numeric values, the one field each common flag
 * lands in, how a sweep's options apply to its points, that
 * equal points are simulated once, and how the work queue picks
 * points around builds in flight.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <iomanip>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hh"
#include "common/rng.hh"
#include "experiments/experiments.hh"
#include "mem/materialized_trace.hh"
#include "sim/registry.hh"
#include "sim/sweep.hh"
#include "telemetry/trace_events.hh"

#include "run_points.hh"

namespace fpc {
namespace {

using fpcbench::registerAllExperiments;

/** A small but non-trivial batch: two designs, two workloads. */
std::vector<ExperimentPoint>
smallBatch()
{
    ExperimentDef def;
    def.name = "unit";
    def.expand = [](const SweepOptions &) {
        SweepSpec spec;
        spec.workloads = {WorkloadKind::WebSearch,
                          WorkloadKind::DataServing};
        spec.designs = {"baseline", "footprint"};
        spec.capacitiesMb = {64};
        return spec.expand();
    };
    SweepOptions opts;
    opts.scale = 0.02;
    return def.build(opts);
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
    spec.workloads = {WorkloadKind::WebSearch,
                      WorkloadKind::MapReduce};
    spec.designs = {"block", "footprint"};
    spec.capacitiesMb = {64, 256};
    spec.pageBytes = {1024, 2048};
    const std::vector<ExperimentPoint> points = spec.expand();
    EXPECT_EQ(points.size(), 2u * 2 * 2 * 2);

    // Keys are unique once build() has labelled the points.
    ExperimentDef def;
    def.name = "x";
    def.expand = [&](const SweepOptions &) { return points; };
    std::vector<std::string> keys;
    for (const ExperimentPoint &p : def.build(SweepOptions{}))
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

TEST(SweepRunner, FrontierJsonIdenticalAcrossCacheBudgets)
{
    // The frontier experiment is the trace cache's prime target:
    // seven designs share each workload's trace and warm window.
    // The merged JSON must stay byte-identical whether they share
    // one arena and warmup artifact or regenerate them per point
    // (a one-byte budget).
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

    TraceCacheStats shared_stats, tiny_stats;
    ExperimentRun shared = run;
    shared.results =
        runPoints(SweepRunner(4), run.points, &shared_stats);
    ExperimentRun tiny = run;
    tiny.results = runPoints(SweepRunner(1, {.budgetBytes = 1}),
                             run.points, &tiny_stats);
    EXPECT_EQ(shared_stats.regenerations, 0u);
    EXPECT_GT(tiny_stats.regenerations, 0u);

    EXPECT_EQ(renderSweepJson(opts, {shared}),
              renderSweepJson(opts, {tiny}));
}

TEST(SweepRunner, TinyBudgetEvictsButStaysCorrect)
{
    // The trace/warmup cache is a pure execution optimization. A
    // one-byte budget evicts every entry no point holds, so each
    // point regenerates its trace and warmup artifact; metrics
    // and the rendered report must match the run that shares
    // them (the cache degrades to regeneration, never to wrong
    // data).
    const std::vector<ExperimentPoint> points = smallBatch();
    TraceCacheStats roomy_stats, tiny_stats;
    const std::vector<PointResult> a =
        runPoints(SweepRunner(2), points, &roomy_stats);
    const std::vector<PointResult> b =
        runPoints(SweepRunner(1, {.budgetBytes = 1}), points,
                  &tiny_stats);
    for (std::size_t i = 0; i < points.size(); ++i)
        expectMetricsIdentical(a[i], b[i], points[i].key());

    // The roomy run shared each arena and artifact; the tiny one
    // rebuilt them for every point.
    EXPECT_GT(roomy_stats.hits, 0u);
    EXPECT_EQ(roomy_stats.regenerations, 0u);
    EXPECT_EQ(tiny_stats.hits, 0u);
    EXPECT_GT(tiny_stats.regenerations, 0u);
    for (const PointResult &r : b)
        EXPECT_TRUE(r.timing.replayedTrace);

    SweepOptions opts;
    opts.scale = 0.02;
    ExperimentRun ra{"unit", "t", points, a};
    ExperimentRun rb{"unit", "t", points, b};
    const std::string json_a = renderSweepJson(opts, {ra});
    opts.cache.budgetBytes = 1;
    const std::string json_b = renderSweepJson(opts, {rb});
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(json_a.find("timing"), std::string::npos);
}

TEST(SweepRunner, Fig12ReplaysTheIdentitysPlannedArena)
{
    // fig12's access-counting run replays a prefix of the arena
    // its identity's standard points share: next to a standard
    // point it adds one hit on that arena and no entry of its
    // own, and every planned entry is released. Alone, it plans
    // and builds only the 12e6 x scale records it reads.
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    const ExperimentDef *def = reg.find("fig12");
    ASSERT_NE(def, nullptr);
    SweepOptions opts;
    opts.scale = 0.01;
    opts.workloadFilter = "WebSearch";
    const std::vector<ExperimentPoint> hot = def->build(opts);
    ASSERT_EQ(hot.size(), 1u);

    ExperimentPoint standard;
    standard.experiment = "unit";
    standard.workload = WorkloadKind::WebSearch;
    standard.cfg.design = "footprint";
    standard.scale = opts.scale;
    standard.baseSeed = opts.seed;
    standard.label = standardLabel(standard.workload, standard.cfg);
    ASSERT_EQ(hot[0].traceKey(), standard.traceKey());
    ASSERT_EQ(hot[0].standardRecords(), standard.standardRecords());

    TraceCacheStats alone, both;
    runPoints(SweepRunner(1), {standard}, &alone);
    // fig12 first: it builds the arena at the planned size.
    const std::vector<PointResult> results =
        runPoints(SweepRunner(1), {hot[0], standard}, &both);
    EXPECT_EQ(both.misses, 2u); // the arena and the warmup artifact
    EXPECT_EQ(both.hits, 1u);   // the standard point's arena
    EXPECT_EQ(both.released, 2u);
    EXPECT_EQ(both.released, alone.released);
    EXPECT_EQ(both.peakBytes, alone.peakBytes);

    const auto window = static_cast<std::uint64_t>(12e6 * opts.scale);
    ASSERT_EQ(hot[0].arenaRecords, window);
    ASSERT_LT(window, standard.standardRecords());
    TraceCacheStats hot_alone;
    runPoints(SweepRunner(1), {hot[0]}, &hot_alone);
    EXPECT_EQ(hot_alone.misses, 1u);
    EXPECT_EQ(hot_alone.released, 1u);
    EXPECT_EQ(hot_alone.peakBytes,
              window * MaterializedTrace::kBytesPerRecord);

    // Replaying the longer planned arena changes nothing: the
    // point alone builds an arena of exactly its own window.
    const PointResult solo = runPoint(hot[0]);
    EXPECT_EQ(solo.extra, results[0].extra);
    EXPECT_EQ(fieldDiff(PodCounters::kCounters, solo.metrics,
                        results[0].metrics),
              "");
}

/** Takes one item and checks what came out. */
void
expectTake(PointQueue &queue, std::size_t item, bool fallback)
{
    const std::optional<PointQueue::Pick> pick = queue.take();
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->item, item);
    EXPECT_EQ(pick->fallback, fallback);
}

TEST(PointQueue, OneWorkerKeepsTheInputOrder)
{
    // Each item finishes before the next take, so nothing is
    // ever claimed at pick time.
    PointQueue queue(
        {{"a"}, {"a", "b"}, {"b"}, {}, {"c", "a"}, {"a"}});
    for (std::size_t i = 0; i < 6; ++i) {
        expectTake(queue, i, false);
        queue.finish(i);
    }
    EXPECT_FALSE(queue.take().has_value());
    EXPECT_EQ(queue.stats().deferred, 0u);
    EXPECT_EQ(queue.stats().fallbacks, 0u);
}

TEST(PointQueue, SkipsAPointWhoseKeyIsClaimed)
{
    PointQueue queue({{"a"}, {"a"}, {"b"}});
    expectTake(queue, 0, false); // claims a
    expectTake(queue, 2, false); // 1 would wait on 0's build
    EXPECT_EQ(queue.stats().deferred, 1u);
    EXPECT_EQ(queue.stats().fallbacks, 0u);
}

TEST(PointQueue, TakesTheFrontPointWhenEveryPointIsBlocked)
{
    PointQueue queue({{"a"}, {"a", "b"}, {"a"}});
    expectTake(queue, 0, false);
    expectTake(queue, 1, true);
    // 1 came out as a fallback yet claims b, which no running
    // item held; 2 still waits on a.
    expectTake(queue, 2, true);
    EXPECT_FALSE(queue.take().has_value());
    EXPECT_EQ(queue.stats().deferred, 0u);
    EXPECT_EQ(queue.stats().fallbacks, 2u);
}

TEST(PointQueue, AFinishedPointsClaimsNoLongerBlock)
{
    PointQueue queue({{"a"}, {"a"}, {"b"}});
    expectTake(queue, 0, false);
    queue.finish(0);
    expectTake(queue, 1, false);
    expectTake(queue, 2, false);
    EXPECT_EQ(queue.stats().deferred, 0u);
}

TEST(PointQueue, AKeyIsClaimedOnlyByItsFirstTaker)
{
    PointQueue queue({{"a"}, {"a"}, {"a"}, {"b"}});
    expectTake(queue, 0, false);
    expectTake(queue, 3, false);
    expectTake(queue, 1, true);
    queue.finish(0);
    // 1 is still running but never claimed a: 2 is free.
    expectTake(queue, 2, false);
    EXPECT_EQ(queue.stats().deferred, 1u);
    EXPECT_EQ(queue.stats().fallbacks, 1u);
}

TEST(PointQueue, PointsWithoutKeysComeOutLikeACursor)
{
    PointQueue queue(std::vector<std::vector<std::string>>(5));
    for (std::size_t i = 0; i < 5; ++i)
        expectTake(queue, i, false);
    EXPECT_FALSE(queue.take().has_value());
    EXPECT_EQ(queue.stats().deferred, 0u);
    EXPECT_EQ(queue.stats().fallbacks, 0u);
}

TEST(PointQueue, ConcurrentWorkersNeverStartOnAClaimedKey)
{
    // 4 workers drain 300 items over 96 keys. Each queue call is
    // bracketed by tickets of one global counter, which orders the
    // calls the tickets cannot overlap: a key's first taker is
    // known only where its take ended before any other user's take
    // began, and a later take ran inside that taker's claim only
    // where it ended before the taker's finish began. Such a take
    // must be a fallback.
    constexpr std::size_t kItems = 300;
    std::mt19937_64 rng(7919);
    std::vector<std::vector<std::string>> keys(kItems);
    for (auto &k : keys) {
        for (std::size_t n = rng() % 4; n; --n)
            k.push_back(std::to_string(rng() % 96));
    }
    PointQueue queue(keys);
    struct Trace
    {
        std::uint64_t takeBegin = 0, takeEnd = 0, finishBegin = 0;
        bool fallback = false;
    };
    std::vector<Trace> traces(kItems);
    std::vector<std::atomic<unsigned>> taken(kItems);
    std::atomic<std::uint64_t> ticket{0};
    const auto work = [&]() {
        while (true) {
            const std::uint64_t begin = ticket.fetch_add(1);
            const std::optional<PointQueue::Pick> pick = queue.take();
            const std::uint64_t end = ticket.fetch_add(1);
            if (!pick)
                return;
            Trace &t = traces[pick->item];
            t.takeBegin = begin;
            t.takeEnd = end;
            t.fallback = pick->fallback;
            taken[pick->item].fetch_add(1);
            for (std::size_t spin = pick->item % 64; spin; --spin)
                std::this_thread::yield();
            t.finishBegin = ticket.fetch_add(1);
            queue.finish(pick->item);
        }
    };
    std::vector<std::thread> pool;
    for (int w = 0; w < 4; ++w)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();

    std::uint64_t fallbacks = 0;
    for (std::size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(taken[i].load(), 1u) << i;
        fallbacks += traces[i].fallback;
    }
    EXPECT_EQ(queue.stats().fallbacks, fallbacks);

    std::map<std::string, std::vector<std::size_t>> users;
    for (std::size_t i = 0; i < kItems; ++i) {
        for (const std::string &k : keys[i])
            users[k].push_back(i);
    }
    for (const auto &[key, items] : users) {
        const auto first = std::min_element(
            items.begin(), items.end(),
            [&](std::size_t a, std::size_t b) {
                return traces[a].takeEnd < traces[b].takeEnd;
            });
        const Trace &holder = traces[*first];
        const bool known = std::all_of(
            items.begin(), items.end(), [&](std::size_t i) {
                return i == *first ||
                       traces[i].takeBegin > holder.takeEnd;
            });
        if (!known)
            continue;
        for (const std::size_t i : items) {
            const Trace &t = traces[i];
            EXPECT_TRUE(i == *first || t.fallback ||
                        t.takeEnd > holder.finishBegin)
                << "item " << i << " started on " << key
                << " claimed by item " << *first;
        }
    }
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(SweepRunner, Fig12ReportsItsPhaseSeconds)
{
    // fig12's bespoke run times its phases like a standard
    // point: the arena acquisition as trace_s, the pod run as
    // measure_s, each with its phase span.
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    const ExperimentDef *def = reg.find("fig12");
    ASSERT_NE(def, nullptr);
    SweepOptions opts;
    opts.scale = 0.01;
    opts.workloadFilter = "WebSearch";
    std::vector<ExperimentPoint> hot = def->build(opts);
    ASSERT_EQ(hot.size(), 1u);
    SpanTracer tracer;
    hot[0].tracer = &tracer;

    const PointResult r = runPoint(hot[0]);
    ASSERT_FALSE(r.failed) << r.error;
    EXPECT_TRUE(r.timing.generatedTrace);
    EXPECT_GT(r.timing.traceSeconds, 0.0);
    EXPECT_GT(r.timing.measureSeconds, 0.0);
    EXPECT_EQ(r.timing.warmupSeconds, 0.0);
    const std::string trace = tracer.render();
    for (const char *phase : {"trace:", "construct:", "measure:"})
        EXPECT_EQ(countOf(trace, std::string("\"name\": \"") + phase +
                                     hot[0].key() + "\""),
                  1u)
            << phase;
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
    // Scheduling is execution detail: only the timing artifacts
    // show it.
    EXPECT_EQ(renderSweepJson(opts, {run}).find("scheduler"),
              std::string::npos);

    // --time-out keeps the merged report clean; the breakdown
    // goes to the standalone artifact instead.
    opts.timeOut = "timing.json";
    EXPECT_EQ(renderSweepJson(opts, {run}).find("timing"),
              std::string::npos);
    const SchedulerStats sched{.deferred = 3, .fallbacks = 1};
    const std::string timing_json =
        renderTimingJson(opts, {run}, TraceCacheStats{}, sched);
    EXPECT_NE(timing_json.find("\"trace_s\": 1.2500"),
              std::string::npos);
    EXPECT_NE(timing_json.find("sweep_timing"),
              std::string::npos);
    EXPECT_NE(timing_json.find("\"scheduler\": {\"deferred\": 3, "
                               "\"fallbacks\": 1},\n"),
              std::string::npos);
    const std::string report =
        renderTimingReport({run}, TraceCacheStats{}, sched);
    EXPECT_NE(report.find("unit/"), std::string::npos);
    EXPECT_NE(report.find("trace cache:"), std::string::npos);
    EXPECT_NE(report.find("\nscheduler: 3 deferred pick(s), "
                          "1 fallback(s)\n"),
              std::string::npos);
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
    EXPECT_EQ(flags, 26u);

    // The retired switch that turned the trace cache off is an
    // unknown flag now: the parser leaves it (and the options)
    // alone. (Split so a search for the old flag finds no use.)
    const char *retired[] = {"sweep", "--no-" "trace-cache"};
    SweepOptions opts;
    int i = 1;
    EXPECT_FALSE(
        parseCommonFlag(opts, 2, const_cast<char **>(retired), i));
    EXPECT_EQ(i, 1);
    for (const OptionField &f : kOptionFields)
        EXPECT_EQ(f.render(opts), f.render(defaults)) << f.name;
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

TEST(ApplySweepOptions, SamplingSkipsPinnedAndTenantPoints)
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

    // With sampling off the sweep leaves a point's config alone.
    p = plainPoint();
    p.cfg.pod.sampling.enabled = true;
    applySweepOptions(p, SweepOptions{});
    EXPECT_TRUE(p.cfg.pod.sampling.enabled);
}

/** The merged-report bytes of one point and its result. */
std::string
renderPoint(const ExperimentPoint &p, const PointResult &r)
{
    return renderSweepJson(SweepOptions{},
                           {{p.experiment, "t", {p}, {r}}});
}


/**
 * Two experiments listing the same two configs, a sampled twin of
 * the first config and a custom point whose run function simulates
 * that config too: 6 points, 4 distinct simulations.
 */
std::vector<ExperimentPoint>
batchWithRepeats()
{
    std::vector<ExperimentPoint> points;
    for (const char *experiment : {"first", "second"}) {
        ExperimentDef def;
        def.name = experiment;
        def.expand = [](const SweepOptions &) {
            SweepSpec spec;
            spec.workloads = {WorkloadKind::WebSearch};
            spec.designs = {"baseline", "footprint"};
            spec.capacitiesMb = {64};
            return spec.expand();
        };
        SweepOptions opts;
        opts.scale = 0.02;
        for (ExperimentPoint &p : def.build(opts))
            points.push_back(std::move(p));
    }
    ExperimentPoint sampled = points[1];
    sampled.experiment = "twin";
    sampled.label += "/sampled";
    sampled.pinSampling = true;
    sampled.cfg.pod.sampling.enabled = true;
    points.push_back(sampled);
    ExperimentPoint custom = points[1];
    custom.experiment = "custom";
    custom.custom = [](const ExperimentPoint &p) {
        ExperimentPoint plain = p;
        plain.custom = nullptr;
        return runPoint(plain);
    };
    points.push_back(custom);
    return points;
}

TEST(SweepRunner, EqualPointsSimulateOnce)
{
    const std::vector<ExperimentPoint> points = batchWithRepeats();
    ASSERT_EQ(points.size(), 6u);
    SpanTracer tracer;
    ResilienceOptions res;
    res.tracer = &tracer;
    const SweepRunner runner(2);
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.executed, 6u);
    EXPECT_EQ(out.reused, 2u);
    EXPECT_EQ(out.failed, 0u);

    // One "point" span per distinct simulation; the two copies
    // show as zero-length "reused:" spans.
    const std::string trace = tracer.render();
    EXPECT_EQ(countOf(trace, "\"cat\": \"point\""), 4u);
    EXPECT_EQ(countOf(trace, "\"cat\": \"reused\""), 2u);
    EXPECT_NE(trace.find("\"dur\": 0, \"cat\": \"reused\", "
                         "\"name\": \"reused:second/WebSearch/"
                         "baseline/64MB/2048B\""),
              std::string::npos);
    // Each simulated point's lane shows its design construction
    // between the trace and warmup phases.
    EXPECT_EQ(countOf(trace, "\"name\": \"construct:"), 4u);
    const std::size_t trace_at =
        trace.find("\"name\": \"trace:first/WebSearch/baseline/");
    const std::size_t construct_at =
        trace.find("\"name\": \"construct:first/WebSearch/baseline/");
    const std::size_t warm_at = trace.find(
        "\"name\": \"warmup-restore:first/WebSearch/baseline/");
    ASSERT_NE(construct_at, std::string::npos);
    EXPECT_LT(trace_at, construct_at);
    EXPECT_LT(construct_at, warm_at);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &r = out.results[i];
        SCOPED_TRACE(points[i].key());
        if (points[i].experiment != "second") {
            EXPECT_EQ(r.timing.reusedFrom, "");
            continue;
        }
        // A copy names its representative, costs no phase time,
        // and equals what the point produces when run alone.
        EXPECT_EQ(r.timing.reusedFrom, points[i - 2].key());
        EXPECT_EQ(r.timing.totalSeconds(), 0.0);
        EXPECT_FALSE(r.timing.replayedTrace);
        EXPECT_EQ(r.attempts, 1u);
        EXPECT_EQ(renderPoint(points[i], r),
                  renderPoint(points[i], runPoint(points[i])));
    }
    // The custom point simulated the same config on its own.
    EXPECT_EQ(renderPoint(points[1], out.results[5]),
              renderPoint(points[1], out.results[1]));

    // Only representatives are planned, so every entry the batch
    // built was released after its last planned use: none stays
    // pinned in the budget waiting for a duplicate's acquire.
    const TraceCacheStats &stats = out.cache;
    EXPECT_GT(stats.misses, 0u);
    EXPECT_EQ(stats.released, stats.misses);

    // --time-out names the representative; --time marks the row.
    std::vector<ExperimentRun> runs = {
        {"all", "t", points, out.results}};
    SweepOptions opts;
    EXPECT_NE(renderTimingJson(opts, runs, stats, out.scheduler)
                  .find("\"reused_from\": \"first/WebSearch/"
                        "footprint/64MB/2048B\"}"),
              std::string::npos);
    EXPECT_NE(renderTimingReport(runs, stats, out.scheduler)
                  .find("  = first/WebSearch/baseline/64MB/2048B\n"),
              std::string::npos);
}

TEST(SweepRunner, RepeatsAreJobCountAndCacheBudgetIndependent)
{
    const std::vector<ExperimentPoint> points = batchWithRepeats();
    TraceCacheStats tiny_stats;
    const std::vector<PointResult> one = runPoints(
        SweepRunner(1, {.budgetBytes = 1}), points, &tiny_stats);
    const std::vector<PointResult> four =
        runPoints(SweepRunner(4), points);
    EXPECT_GT(tiny_stats.regenerations, 0u);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(renderPoint(points[i], one[i]),
                  renderPoint(points[i], four[i]))
            << points[i].key();
}

TEST(ExperimentConfig, EqualitySeesEveryNestedField)
{
    ExperimentPoint base;
    base.experiment = "base";
    base.label = "x";
    base.workload = WorkloadKind::WebSearch;
    base.scale = 0.01;
    base.cfg.capacityMb = 64;

    // Experiment, label and the runner-set fields do not count.
    ExperimentPoint same = base;
    same.experiment = "other";
    same.label = "y";
    same.pinSampling = true;
    EXPECT_TRUE(sameSimulation(base, same));

    // One changed field, in each nested struct and in each point
    // field that reaches the simulation, splits the group.
    using Tweak = std::function<void(ExperimentPoint &)>;
    const std::vector<std::pair<const char *, Tweak>> tweaks = {
        {"params", [](ExperimentPoint &p) {
             p.cfg.params.set("footprint.unused", "1");
         }},
        {"stackedLowLatency",
         [](ExperimentPoint &p) { p.cfg.stackedLowLatency = true; }},
        {"pod.coreIpc",
         [](ExperimentPoint &p) { p.cfg.pod.coreIpc = 3.0; }},
        {"hierarchy.l2.sizeBytes",
         [](ExperimentPoint &p) {
             p.cfg.pod.hierarchy.l2.sizeBytes *= 2;
         }},
        {"telemetry.histograms",
         [](ExperimentPoint &p) {
             p.cfg.pod.telemetry.histograms = true;
         }},
        {"sampling.enabled",
         [](ExperimentPoint &p) {
             p.cfg.pod.sampling.enabled = true;
         }},
        {"scale", [](ExperimentPoint &p) { p.scale = 0.011; }},
        {"baseSeed", [](ExperimentPoint &p) { p.baseSeed = 7; }},
        {"workload",
         [](ExperimentPoint &p) {
             p.workload = WorkloadKind::DataServing;
         }},
    };
    std::vector<ExperimentPoint> batch = {base, same};
    for (const auto &[name, tweak] : tweaks) {
        ExperimentPoint p = base;
        p.experiment = name;
        tweak(p);
        EXPECT_FALSE(sameSimulation(base, p)) << name;
        batch.push_back(p);
    }
    // A custom run function opts out even of an equal config.
    ExperimentPoint custom = base;
    custom.experiment = "custom";
    custom.custom = [](const ExperimentPoint &) {
        return PointResult{};
    };
    EXPECT_FALSE(sameSimulation(base, custom));
    batch.push_back(custom);

    // The runner agrees: only `same` copies a result.
    const SweepOutcome out =
        SweepRunner(2).runResilient(batch, ResilienceOptions{});
    EXPECT_EQ(out.failed, 0u);
    EXPECT_EQ(out.reused, 1u);
    EXPECT_EQ(out.results[1].timing.reusedFrom, base.key());
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

TEST(Registry, EveryExperimentHonorsThePointDeadline)
{
    // Bespoke run functions (fig12's access-counting pod, the
    // colocation mixes) build their own pods and must carry the
    // attempt's deadline into them: a deadline that has passed
    // before any simulation loop starts fails every point.
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    SweepOptions opts;
    opts.scale = 0.01;
    opts.workloadFilter = "WebSearch";
    std::vector<ExperimentPoint> batch;
    for (const ExperimentDef &def : reg.all())
        for (ExperimentPoint &p : def.build(opts))
            batch.push_back(std::move(p));
    SpanTracer tracer;
    ResilienceOptions res;
    res.pointDeadlineS = 1e-9;
    res.tracer = &tracer;
    const SweepOutcome out =
        SweepRunner(2).runResilient(batch, res);
    EXPECT_EQ(out.failed, batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_NE(out.results[i].error.find("deadline"),
                  std::string::npos)
            << batch[i].key();
    // Every cancelled attempt shows on the timeline.
    EXPECT_EQ(countOf(tracer.render(), "\"name\": \"deadline-cancel\""),
              batch.size());
}

/**
 * One line per built point holding everything that shapes its
 * run: identity, windows, trace needs, run-path flags and every
 * Experiment::Config field (doubles as exact hex floats).
 */
std::string
pointFingerprint(const ExperimentPoint &p)
{
    const Experiment::Config &c = p.cfg;
    const PodConfig &pod = c.pod;
    std::string s = p.key() + " " + p.traceKey() + " " +
                    workloadName(p.workload) + " " + c.design;
    appendFmt(s, " seed=%llx scale=%a base=%llu",
              static_cast<unsigned long long>(p.traceSeed()),
              p.scale,
              static_cast<unsigned long long>(p.baseSeed));
    appendFmt(s, " warm=%llu records=%llu",
              static_cast<unsigned long long>(p.warmupWindow()),
              static_cast<unsigned long long>(p.standardRecords()));
    for (const auto &[key, records] : p.extraTraceNeeds)
        s += " need=" + key + ":" + std::to_string(records);
    appendFmt(s, " custom=%d inband=%d pin=%d", p.custom != nullptr,
              p.inBandWarmup, p.pinSampling);
    appendFmt(s, " cap=%llu page=%u fht=%u single=%d idx=%d "
                 "train=%d fetch=%d",
              static_cast<unsigned long long>(c.capacityMb),
              c.pageBytes, c.fhtEntries, c.singletonOptimization,
              static_cast<int>(c.predictorIndex),
              static_cast<int>(c.fhtTrain),
              static_cast<int>(c.footprintFetch));
    for (const auto &[key, value] : c.params.entries())
        s += " param=" + key + "=" + value;
    appendFmt(s, " chans=%u lowlat=%d", c.stackedChannels,
              c.stackedLowLatency);
    // "wmode=1 alltimed=0" stands where two removed warmup-mode
    // fields were printed, so the golden digest stays put.
    appendFmt(s, " cores=%u ipc=%a l1=%llu l2=%llu mlp=%u wmode=1 "
                 "alltimed=0 tenants=%u cancel=%d",
              pod.numCores, pod.coreIpc,
              static_cast<unsigned long long>(pod.l1HitLatency),
              static_cast<unsigned long long>(pod.l2HitLatency),
              pod.mlpPerCore, pod.numTenants,
              pod.deadline != kNoDeadline);
    const TelemetryConfig &t = pod.telemetry;
    appendFmt(s, " tel=%llu,%d,%u,%d,%d,%llu",
              static_cast<unsigned long long>(t.intervalRecords),
              t.histograms, t.missAttributionStride, t.designProbes,
              t.heatmaps,
              static_cast<unsigned long long>(t.shadowCapacityBytes));
    const SamplingConfig &sm = pod.sampling;
    appendFmt(s, " smp=%d,%u,%llu,%llu,%a,%u", sm.enabled,
              sm.intervals,
              static_cast<unsigned long long>(sm.intervalRecords),
              static_cast<unsigned long long>(sm.rampRecords),
              sm.targetCi, sm.minIntervals);
    appendFmt(s, " hier=%u", pod.hierarchy.numCores);
    for (const SetAssocCache::Config *l :
         {&pod.hierarchy.l1, &pod.hierarchy.l2}) {
        appendFmt(s, ",%llu/%u/%u/%d/%llu",
                  static_cast<unsigned long long>(l->sizeBytes),
                  l->assoc, l->blockBytes,
                  static_cast<int>(l->repl),
                  static_cast<unsigned long long>(l->seed));
    }
    return s + "\n";
}

/** FNV-1a of every registered experiment's built points. */
std::uint64_t
registryFingerprint(const SweepOptions &opts)
{
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    std::string all;
    for (const ExperimentDef &def : reg.all()) {
        all += def.name + "\n";
        for (const ExperimentPoint &p : def.build(opts))
            all += pointFingerprint(p);
    }
    return fnv1a(all);
}

TEST(Registry, BuiltPointsMatchGoldenFingerprint)
{
    // Digests recorded from the build before ExperimentDef::build
    // filled in experiment, scale, seed and label, and re-recorded
    // when fig12 points became inBandWarmup and when colocation
    // points began planning their mix's warmup artifact (with
    // those needs left out, the old digests still held): a change
    // to what any builder emits, under either option set, shows
    // here.
    EXPECT_EQ(registryFingerprint(SweepOptions{}),
              0xd1df62bc22a660c9ULL);

    SweepOptions opts;
    opts.scale = 0.07;
    opts.seed = 7919;
    opts.workloadFilter = "WebSearch";
    EXPECT_EQ(registryFingerprint(opts), 0xebfe58a4bcfe23faULL);
}

TEST(Registry, BuildFillsEveryPoint)
{
    // Non-default options, so a point that kept ExperimentPoint's
    // own scale/seed defaults (0.4/42) cannot pass.
    SweepOptions opts;
    opts.scale = 0.07;
    opts.seed = 7919;

    // The builders whose points no standardLabel() describes.
    const std::set<std::string> irregular = {
        "fig12", "colocation", "sampling_validation"};
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    std::size_t checked = 0;
    for (const ExperimentDef &def : reg.all()) {
        for (const ExperimentPoint &p : def.build(opts)) {
            EXPECT_EQ(p.experiment, def.name) << p.label;
            EXPECT_EQ(p.scale, 0.07) << p.key();
            EXPECT_EQ(p.baseSeed, 7919u) << p.key();
            const std::string standard =
                standardLabel(p.workload, p.cfg);
            if (irregular.count(def.name))
                EXPECT_NE(p.label, standard) << p.key();
            else
                EXPECT_EQ(p.label, standard) << p.key();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);

    // A hand-written definition: what its expand function leaves
    // unset is filled in, a label it sets is kept, and an
    // experiment name it sets is replaced by the definition's.
    ExperimentDef def;
    def.name = "handmade";
    def.expand = [](const SweepOptions &) {
        std::vector<ExperimentPoint> points(2);
        points[0].workload = WorkloadKind::MapReduce;
        points[0].cfg.design = "block";
        points[0].cfg.capacityMb = 64;
        points[1].experiment = "elsewhere";
        points[1].label = "kept/label";
        return points;
    };
    const std::vector<ExperimentPoint> built = def.build(opts);
    ASSERT_EQ(built.size(), 2u);
    EXPECT_EQ(built[0].key(), "handmade/MapReduce/block/64MB/2048B");
    EXPECT_EQ(built[1].key(), "handmade/kept/label");
    for (const ExperimentPoint &p : built) {
        EXPECT_EQ(p.scale, 0.07);
        EXPECT_EQ(p.baseSeed, 7919u);
    }
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
