/**
 * @file
 * Sampled-execution tests: schedule arithmetic, Student-t CI math
 * on streams of known variance, exact-vs-sampled agreement within
 * the reported CI, bit-identical sampled metrics across shard
 * counts, journal round-trips of sampled results, report/timing
 * byte-schema stability when sampling is off, the seam where the
 * span artifact's pass continues the warm artifact's, and the
 * TraceCache multi-acquire plan contract the span artifact relies
 * on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/materialized_trace.hh"
#include "mem/trace_cache.hh"
#include "sim/journal.hh"
#include "sim/pod_system.hh"
#include "sim/sampling.hh"
#include "sim/sweep.hh"
#include "workload/generator.hh"

#include "run_points.hh"

namespace fpc {
namespace {

/** One WebSearch/footprint point at a test-sized scale. */
ExperimentPoint
basePoint(bool sampled)
{
    ExperimentPoint p;
    p.experiment = "unit";
    p.workload = WorkloadKind::WebSearch;
    p.cfg.design = "footprint";
    p.cfg.capacityMb = 64;
    p.scale = 0.05;
    p.label = standardLabel(p.workload, p.cfg) +
              (sampled ? "/sampled" : "/exact");
    p.pinSampling = true;
    p.cfg.pod.sampling.enabled = sampled;
    return p;
}

double
extraValue(const PointResult &r, const std::string &name)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return value;
    }
    ADD_FAILURE() << "missing extra " << name;
    return 0.0;
}

bool
hasExtra(const PointResult &r, const std::string &name)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return true;
    }
    return false;
}

TEST(SampleSchedule, FitsAndShrinksToTheSpan)
{
    SamplingConfig cfg;
    cfg.enabled = true;
    cfg.intervals = 10;
    cfg.intervalRecords = 4000;

    SampleSchedule s = computeSampleSchedule(cfg, 400000);
    EXPECT_EQ(s.intervals, 10u);
    EXPECT_EQ(s.period, 40000u);
    EXPECT_EQ(s.measure, 4000u);
    EXPECT_EQ(s.ramp, 2000u); // default: measure / 2
    EXPECT_EQ(s.gap, s.period - s.ramp - s.measure);
    EXPECT_EQ(s.spanRecords(), 400000u);
    // The epoch divides both timed portions, so one timed run per
    // period splits exactly at the ramp/measure boundary.
    EXPECT_GT(s.epoch, 0u);
    EXPECT_EQ(s.ramp % s.epoch, 0u);
    EXPECT_EQ(s.measure % s.epoch, 0u);
    EXPECT_EQ(s.rampEpochs, s.ramp / s.epoch);

    // A span too short for 10 periods shrinks the interval count
    // instead of failing; every period still holds ramp+measure.
    SampleSchedule tiny = computeSampleSchedule(cfg, 20000);
    EXPECT_GE(tiny.intervals, 1u);
    EXPECT_LT(tiny.intervals, 10u);
    EXPECT_GE(tiny.period, tiny.ramp + tiny.measure);
    EXPECT_LE(tiny.spanRecords(), 20000u);
}

TEST(SampleStats, KnownVarianceStream)
{
    // {1..5}: mean 3, sample variance 2.5. The 95% CI half-width
    // is t(4) * sqrt(2.5 / 5) = 2.776 * 0.7071.
    SampleStats s = computeSampleStats({1, 2, 3, 4, 5});
    EXPECT_EQ(s.n, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_NEAR(s.ci95, 2.776 * std::sqrt(2.5 / 5.0), 1e-3);
    EXPECT_NEAR(s.relativeCi(), s.ci95 / 3.0, 1e-12);

    // A constant stream has zero width, and fewer than two
    // samples carry no interval at all.
    SampleStats flat = computeSampleStats({7, 7, 7, 7});
    EXPECT_DOUBLE_EQ(flat.mean, 7.0);
    EXPECT_DOUBLE_EQ(flat.ci95, 0.0);
    EXPECT_DOUBLE_EQ(computeSampleStats({42}).ci95, 0.0);
}

TEST(SampleStats, StudentTTable)
{
    EXPECT_NEAR(studentT95(1), 12.706, 1e-3);
    EXPECT_NEAR(studentT95(4), 2.776, 1e-3);
    EXPECT_NEAR(studentT95(9), 2.262, 1e-3);
    EXPECT_NEAR(studentT95(30), 2.042, 1e-3);
    // Monotone decreasing toward the normal limit.
    EXPECT_GT(studentT95(5), studentT95(20));
    EXPECT_NEAR(studentT95(100000), 1.960, 1e-2);
}

TEST(Sampling, ExactWithinSampledCiAndFasterSchema)
{
    std::vector<ExperimentPoint> points = {basePoint(false),
                                           basePoint(true)};
    SweepRunner runner(1);
    std::vector<PointResult> results =
        runPoints(runner, points);
    const PointResult &exact = results[0];
    const PointResult &sampled = results[1];

    // Sampled extras contract: interval count plus mean/ci95 for
    // each derived metric.
    EXPECT_GE(extraValue(sampled, "sampled_intervals"), 2.0);
    for (const char *metric :
         {"ipc", "miss_ratio", "avg_latency", "offchip_gbps"}) {
        const std::string m = metric;
        EXPECT_TRUE(hasExtra(sampled, m + "_mean")) << m;
        EXPECT_GE(extraValue(sampled, m + "_ci95"), 0.0) << m;
    }
    EXPECT_FALSE(hasExtra(exact, "sampled_intervals"));

    // The exact run's values land inside the sampled 95% CI (the
    // run is deterministic, so this is a fixed property of the
    // seed, not a flaky statistical event).
    const double exact_ipc =
        static_cast<double>(exact.metrics.instructions) /
        exact.metrics.cycles;
    EXPECT_NEAR(extraValue(sampled, "ipc_mean"), exact_ipc,
                extraValue(sampled, "ipc_ci95"));
    const double exact_miss =
        static_cast<double>(exact.metrics.demandAccesses -
                            exact.metrics.demandHits) /
        exact.metrics.demandAccesses;
    EXPECT_NEAR(extraValue(sampled, "miss_ratio_mean"),
                exact_miss,
                extraValue(sampled, "miss_ratio_ci95"));

    // Timing schema: only the sampled point splits measure_s.
    EXPECT_FALSE(exact.timing.sampled);
    EXPECT_TRUE(sampled.timing.sampled);
    EXPECT_GT(sampled.timing.sampleFfSeconds, 0.0);
    EXPECT_GT(sampled.timing.sampleTimedSeconds, 0.0);
    EXPECT_LE(sampled.timing.sampleFfSeconds +
                  sampled.timing.sampleTimedSeconds,
              sampled.timing.measureSeconds + 1e-9);
}

TEST(Sampling, BitIdenticalAcrossShardCounts)
{
    std::vector<ExperimentPoint> points;
    for (const char *design : {"baseline", "footprint"}) {
        ExperimentPoint p = basePoint(true);
        p.cfg.design = design;
        p.label = standardLabel(p.workload, p.cfg) + "/sampled";
        points.push_back(p);
    }
    std::vector<PointResult> one =
        runPoints(SweepRunner(1), points);
    std::vector<PointResult> four =
        runPoints(SweepRunner(4), points);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].metrics.instructions,
                  four[i].metrics.instructions);
        EXPECT_EQ(one[i].metrics.cycles, four[i].metrics.cycles);
        EXPECT_EQ(one[i].metrics.memLatencyCycles,
                  four[i].metrics.memLatencyCycles);
        // Extras (means and CI widths) are doubles computed from
        // integer interval samples: bit-equal, not merely close.
        ASSERT_EQ(one[i].extra.size(), four[i].extra.size());
        for (std::size_t j = 0; j < one[i].extra.size(); ++j) {
            EXPECT_EQ(one[i].extra[j].first,
                      four[i].extra[j].first);
            EXPECT_EQ(one[i].extra[j].second,
                      four[i].extra[j].second);
        }
    }
}

TEST(Sampling, JournalRoundTripsSampledResults)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "fpc_sampling_journal_test")
            .string();
    std::filesystem::remove_all(dir);

    std::vector<ExperimentPoint> points = {basePoint(true)};
    ResilienceOptions res;
    res.journalDir = dir;
    SweepOutcome first = SweepRunner(1).runResilient(points, res);
    ASSERT_EQ(first.results.size(), 1u);
    ASSERT_FALSE(first.results[0].failed);
    EXPECT_EQ(first.executed, 1u);

    res.resume = true;
    SweepOutcome second =
        SweepRunner(1).runResilient(points, res);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.journaled, 1u);

    const PointResult &a = first.results[0];
    const PointResult &b = second.results[0];
    EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
    ASSERT_EQ(a.extra.size(), b.extra.size());
    for (std::size_t j = 0; j < a.extra.size(); ++j) {
        EXPECT_EQ(a.extra[j].first, b.extra[j].first);
        // Journal doubles round-trip through hex floats.
        EXPECT_EQ(a.extra[j].second, b.extra[j].second);
    }
    EXPECT_TRUE(b.timing.sampled);
    EXPECT_EQ(a.timing.sampleFfSeconds,
              b.timing.sampleFfSeconds);
    EXPECT_EQ(a.timing.sampleTimedSeconds,
              b.timing.sampleTimedSeconds);

    std::filesystem::remove_all(dir);
}

TEST(Sampling, ExactReportCarriesNoSamplingArtifacts)
{
    // With sampling off, neither the merged report nor the
    // timing JSON may contain a single sampling-related key: the
    // exact schema stays byte-compatible with pre-sampling
    // consumers.
    ExperimentRun run;
    run.name = "unit";
    run.title = "unit";
    run.points = {basePoint(false)};
    run.results = runPoints(SweepRunner(1), run.points);

    SweepOptions options;
    const std::string report =
        renderSweepJson(options, {run});
    EXPECT_EQ(report.find("sampled"), std::string::npos);
    EXPECT_EQ(report.find("ci95"), std::string::npos);
    const std::string timing =
        renderTimingJson(options, {run}, TraceCacheStats{},
                         SchedulerStats{});
    EXPECT_EQ(timing.find("sampled"), std::string::npos);
    EXPECT_EQ(timing.find("sample_ff_s"), std::string::npos);

    // And the sampled twin announces itself in both artifacts.
    ExperimentRun srun;
    srun.name = "unit";
    srun.title = "unit";
    srun.points = {basePoint(true)};
    srun.results = runPoints(SweepRunner(1), srun.points);
    EXPECT_NE(renderSweepJson(options, {srun})
                  .find("sampled_intervals"),
              std::string::npos);
    EXPECT_NE(renderTimingJson(options, {srun}, TraceCacheStats{},
                               SchedulerStats{})
                  .find("sample_ff_s"),
              std::string::npos);
}

TEST(SampleSpanArtifact, ContinuesTheWarmPassAcrossTheSeam)
{
    // The span pass continues the warm pass as if the two were
    // one: a single pass over warm + gap records must emit the
    // warm window's ops followed by the first gap's, and end on
    // the first timed-start hierarchy snapshot. The warm length
    // sits mid-burst and mid-chunk, so the carried burst rotation
    // and chunk cursor both matter.
    const std::uint64_t warm = 50'123;
    SamplingConfig sc;
    sc.enabled = true;
    sc.intervals = 3;
    sc.intervalRecords = 2000;
    const SampleSchedule sched = computeSampleSchedule(sc, 21'000);
    ASSERT_EQ(sched.intervals, 3u);
    ASSERT_GT(sched.gap, 0u);

    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(WorkloadKind::WebSearch, 2048, 11),
                     warm + sched.spanRecords(), *arena);
    const CacheHierarchy::Config hier = PodConfig{}.hierarchy;
    const auto warm_art =
        PodSystem::buildWarmupArtifact(*arena, hier, warm);
    const auto span = PodSystem::buildSampleSpanArtifact(
        *arena, hier, *warm_art, warm, sched);
    const auto whole = PodSystem::buildWarmupArtifact(
        *arena, hier, warm + sched.gap);

    const std::size_t gap_ops = span->opGapEnd[0];
    ASSERT_GT(gap_ops, 0u);
    const auto joined = [gap_ops](auto warm_col,
                                  const auto &span_col) {
        warm_col.insert(warm_col.end(), span_col.begin(),
                        span_col.begin() + gap_ops);
        return warm_col;
    };
    EXPECT_EQ(whole->paddr, joined(warm_art->paddr, span->paddr));
    EXPECT_EQ(whole->pc, joined(warm_art->pc, span->pc));
    EXPECT_EQ(whole->coreId, joined(warm_art->coreId, span->coreId));
    EXPECT_EQ(whole->kind, joined(warm_art->kind, span->kind));
    EXPECT_EQ(whole->instructions,
              warm_art->instructions + span->gapInstructions[0]);

    const CacheHierarchy::Snapshot &a = whole->hierarchy;
    const CacheHierarchy::Snapshot &b =
        span->hierarchyAtTimedStart[0];
    EXPECT_EQ(a.l2.keys, b.l2.keys);
    EXPECT_EQ(a.l2.hits, b.l2.hits);
    EXPECT_EQ(a.l2.misses, b.l2.misses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.llcWritebacks, b.llcWritebacks);
}

TEST(TraceCachePlan, MultiAcquirePlansKeepTheEntryResident)
{
    // A point that acquires the same key twice (warmup artifact
    // feeding the span-artifact build) must plan both acquires,
    // or the entry is released after the first and rebuilt. The
    // acquires parameter carries that count.
    TraceCache cache(std::uint64_t{1} << 30);
    cache.plan("k", 0, 2);
    int builds = 0;
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        ++builds;
        struct E : TraceCacheEntry
        {
            std::uint64_t cacheBytes() const override
            {
                return 64;
            }
        };
        return std::make_shared<E>();
    };
    auto a = cache.acquire("k", 0, build);
    // First of two planned uses served: still resident.
    EXPECT_EQ(cache.currentBytes(), 64u);
    EXPECT_EQ(cache.stats().released, 0u);
    auto b = cache.acquire("k", 0, build);
    // Second (last) use: eagerly released, never rebuilt.
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.stats().released, 1u);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.get(), b.get());
}

} // namespace
} // namespace fpc
