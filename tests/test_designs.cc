/**
 * @file
 * Design-subsystem tests: registry semantics (duplicate-name
 * rejection, unknown-name error, factory round-trip), the
 * parameter bag, Alloy and Banshee behavior, and the frontier
 * experiment's same-trace pairing across designs.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "dramcache/banshee_cache.hh"
#include "dramcache/design_registry.hh"
#include "experiments/experiments.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

TEST(DesignRegistry, AllBuiltinDesignsRegistered)
{
    DesignRegistry reg;
    registerAllDesigns(reg);
    const std::vector<std::string> expected = {
        "baseline", "block", "page",   "footprint",
        "ideal",    "alloy", "banshee"};
    EXPECT_EQ(reg.names(), expected);
    // The process-wide instance comes pre-populated.
    EXPECT_EQ(DesignRegistry::instance().names(), expected);
}

TEST(DesignRegistry, RejectsDuplicateNames)
{
    DesignRegistry reg;
    registerAllDesigns(reg);
    EXPECT_THROW(registerAlloyDesign(reg), std::runtime_error);
    EXPECT_THROW(registerPaperDesigns(reg), std::runtime_error);
}

TEST(DesignRegistry, UnknownNameIsAnError)
{
    EXPECT_EQ(DesignRegistry::instance().find("chop"), nullptr);
    try {
        DesignRegistry::instance().at("chop");
        FAIL() << "expected a runtime_error";
    } catch (const std::runtime_error &e) {
        // The error names the unknown design and the known ones.
        EXPECT_NE(std::string(e.what()).find("chop"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("footprint"),
                  std::string::npos);
    }

    // An Experiment over an unknown design fails the same way.
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "chop";
    EXPECT_THROW(Experiment exp(cfg, trace), std::runtime_error);
}

TEST(DesignRegistry, FactoryRoundTrip)
{
    // Every registered design builds through its factory into a
    // memory system that reports the registry name back.
    for (const std::string &name :
         DesignRegistry::instance().names()) {
        WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
        SyntheticTraceSource trace(spec);
        Experiment::Config cfg;
        cfg.design = name;
        cfg.capacityMb = 64;
        Experiment exp(cfg, trace);
        EXPECT_EQ(exp.memory().designName(), name);
        RunMetrics m = exp.run(0, 20'000);
        EXPECT_EQ(m.traceRecords, 20'000u) << name;
        EXPECT_GT(m.ipc(), 0.0) << name;
    }
}

TEST(DesignParams, TypedGettersAndLabelSuffix)
{
    DesignParams p;
    EXPECT_TRUE(p.empty());
    p.set("footprint.unused", "8");
    p.set("footprint.name", "x");
    EXPECT_EQ(p.getU64("footprint.unused", 4), 8u);
    EXPECT_EQ(p.getU64("absent", 4), 4u);
    EXPECT_EQ(p.getString("footprint.name", ""), "x");
    EXPECT_EQ(p.getString("absent", "y"), "y");
    p.set("footprint.unused", "2"); // overwrite, no duplicate entry
    EXPECT_EQ(p.getU64("footprint.unused", 4), 2u);
    EXPECT_EQ(p.entries().size(), 2u);
    // Unparseable and partially-numeric values are errors, not
    // silent zeros/truncations.
    p.set("bad.int", "four");
    p.set("bad.suffix", "64K");
    EXPECT_THROW(p.getU64("bad.int", 1), std::runtime_error);
    EXPECT_THROW(p.getU64("bad.suffix", 1), std::runtime_error);

    // Params suffix the sweep label, keeping variants distinct.
    Experiment::Config cfg;
    cfg.design = "banshee";
    const std::string plain =
        standardLabel(WorkloadKind::WebSearch, cfg);
    cfg.params.set("footprint.unused", "8");
    const std::string tuned =
        standardLabel(WorkloadKind::WebSearch, cfg);
    EXPECT_NE(plain, tuned);
    EXPECT_NE(tuned.find("footprint.unused=8"), std::string::npos);
}

TEST(Designs, Table4LatenciesByName)
{
    EXPECT_EQ(tagLatencyCycles("footprint", 256), 9u);
    EXPECT_EQ(tagLatencyCycles("page", 256), 6u);
    // Designs without an SRAM page tag array have none.
    EXPECT_EQ(tagLatencyCycles("alloy", 256), 0u);
    EXPECT_EQ(tagLatencyCycles("baseline", 256), 0u);
}

TEST(Designs, BansheeFillsLessThanPageBased)
{
    // The design's reason to exist: far fewer blocks moved into
    // the cache than a fill-every-miss page organization.
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "banshee";
    cfg.capacityMb = 16;
    Experiment exp(cfg, trace);
    exp.run(100'000, 100'000);
    auto *banshee = dynamic_cast<BansheeCache *>(&exp.memory());
    ASSERT_NE(banshee, nullptr);
    // Fills happened for fewer pages than there were misses.
    const std::uint64_t misses =
        banshee->demandAccesses() - banshee->demandHits();
    EXPECT_LT(banshee->pageFills(), misses);
}

/* --------------------- frontier pairing ----------------------- */

TEST(Frontier, SameTracePairingAcrossDesigns)
{
    ExperimentRegistry reg;
    fpcbench::registerAllExperiments(reg);
    const ExperimentDef *def = reg.find("frontier");
    ASSERT_NE(def, nullptr);
    SweepOptions opts;
    const std::vector<ExperimentPoint> points = def->build(opts);
    ASSERT_FALSE(points.empty());

    // All seven designs appear, and within one workload every
    // design's point replays the same trace (identical seed).
    std::map<std::string, std::set<std::string>> designs_by_wl;
    std::map<std::string, std::set<std::uint64_t>> seeds_by_wl;
    for (const ExperimentPoint &p : points) {
        const std::string wl = workloadName(p.workload);
        designs_by_wl[wl].insert(p.cfg.design);
        seeds_by_wl[wl].insert(p.traceSeed());
    }
    for (const auto &[wl, designs] : designs_by_wl) {
        EXPECT_EQ(designs.size(), 7u) << wl;
        EXPECT_TRUE(designs.count("alloy")) << wl;
        EXPECT_TRUE(designs.count("banshee")) << wl;
        EXPECT_TRUE(designs.count("footprint")) << wl;
        EXPECT_EQ(seeds_by_wl[wl].size(), 1u)
            << wl << ": designs must pair on one trace";
    }
}

TEST(Frontier, PointsRunWithExtras)
{
    // One cheap frontier point end to end: the custom runner
    // must emit the three frontier axes as extras.
    ExperimentRegistry reg;
    fpcbench::registerAllExperiments(reg);
    const ExperimentDef *def = reg.find("frontier");
    ASSERT_NE(def, nullptr);
    SweepOptions opts;
    opts.scale = 0.005;
    opts.workloadFilter = "WebSearch";
    std::vector<ExperimentPoint> points = def->build(opts);
    ASSERT_FALSE(points.empty());
    // Smallest capacity to keep the unit test fast.
    for (ExperimentPoint &p : points)
        p.cfg.capacityMb = 64;
    const PointResult r = runPoint(points.front());
    std::set<std::string> names;
    for (const auto &[name, value] : r.extra)
        names.insert(name);
    EXPECT_TRUE(names.count("hit_ratio"));
    EXPECT_TRUE(names.count("avg_access_latency_cycles"));
    EXPECT_TRUE(names.count("offchip_gbps"));
}

} // namespace
} // namespace fpc
