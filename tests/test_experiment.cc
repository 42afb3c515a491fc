/** @file Unit tests for the experiment builder (Tables 3/4). */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

TEST(ExperimentConfig, Table4TagLatencies)
{
    EXPECT_EQ(tagLatencyCycles("footprint", 64), 4u);
    EXPECT_EQ(tagLatencyCycles("footprint", 128), 6u);
    EXPECT_EQ(tagLatencyCycles("footprint", 256), 9u);
    EXPECT_EQ(tagLatencyCycles("footprint", 512), 11u);
    EXPECT_EQ(tagLatencyCycles("page", 64), 4u);
    EXPECT_EQ(tagLatencyCycles("page", 128), 5u);
    EXPECT_EQ(tagLatencyCycles("page", 256), 6u);
    EXPECT_EQ(tagLatencyCycles("page", 512), 9u);
}

TEST(ExperimentConfig, Table4MissMap)
{
    EXPECT_EQ(missMapConfig(256).entries, 192u * 1024);
    EXPECT_EQ(missMapConfig(256).assoc, 24u);
    // §5.2: 50% larger MissMap at 512MB.
    EXPECT_EQ(missMapConfig(512).entries, 288u * 1024);
    EXPECT_EQ(missMapConfig(512).assoc, 36u);
    EXPECT_EQ(missMapLatencyCycles(256), 9u);
    EXPECT_EQ(missMapLatencyCycles(512), 11u);
}

TEST(ExperimentConfig, PaperDesignsRegistered)
{
    const DesignRegistry &reg = DesignRegistry::instance();
    for (const char *name :
         {"baseline", "block", "page", "footprint", "ideal"})
        EXPECT_NE(reg.find(name), nullptr) << name;
}

TEST(Experiment, BuildsEveryDesign)
{
    for (const char *d :
         {"baseline", "block", "page",
          "footprint", "ideal"}) {
        WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
        SyntheticTraceSource trace(spec);
        Experiment::Config cfg;
        cfg.design = d;
        cfg.capacityMb = 64;
        Experiment exp(cfg, trace);
        RunMetrics m = exp.run(0, 20'000);
        EXPECT_EQ(m.traceRecords, 20'000u)
            << d;
        EXPECT_GT(m.ipc(), 0.0) << d;
    }
}

TEST(Experiment, BaselineHasNoStackedTraffic)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "baseline";
    Experiment exp(cfg, trace);
    RunMetrics m = exp.run(0, 20'000);
    EXPECT_EQ(m.stackedBytes, 0u);
    EXPECT_GT(m.offchipBytes, 0u);
}

TEST(Experiment, IdealHasNoOffchipTraffic)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "ideal";
    Experiment exp(cfg, trace);
    RunMetrics m = exp.run(0, 20'000);
    EXPECT_EQ(m.offchipBytes, 0u);
    EXPECT_GT(m.stackedBytes, 0u);
    EXPECT_DOUBLE_EQ(m.missRatio(), 0.0);
}

TEST(Experiment, PageDesignUsesFullPagePolicy)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "page";
    Experiment exp(cfg, trace);
    ASSERT_NE(exp.footprintCache(), nullptr);
    EXPECT_EQ(exp.footprintCache()->config().fetch,
              FetchPolicy::FullPage);
    EXPECT_FALSE(
        exp.footprintCache()->config().singletonOptimization);
}

TEST(Experiment, StackedChannelOverride)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "ideal";
    cfg.stackedChannels = 2;
    Experiment exp(cfg, trace);
    EXPECT_EQ(exp.stacked()->numChannels(), 2u);
}

TEST(Experiment, LowLatencyHalvesStackedTimings)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "ideal";
    cfg.stackedLowLatency = true;
    Experiment exp(cfg, trace);
    DramTimingParams normal = DramTimingParams::ddr3_3200_stacked();
    EXPECT_EQ(exp.stacked()->config().timing.tCAS,
              (normal.tCAS + 1) / 2);
}

TEST(Experiment, BlockDesignUsesClosedStacked)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "block";
    Experiment exp(cfg, trace);
    EXPECT_EQ(exp.stacked()->config().timing.policy,
              PagePolicy::Closed);
    EXPECT_EQ(exp.stacked()->config().interleaveBytes,
              kBlockBytes);
    EXPECT_EQ(exp.memory().designName(), "block");
}

} // namespace
} // namespace fpc
