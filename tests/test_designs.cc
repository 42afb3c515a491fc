/**
 * @file
 * Design-subsystem tests: registry semantics (duplicate-name
 * rejection, unknown-name error, factory round-trip), the
 * parameter bag, Alloy/Banshee functional-vs-timed state
 * bit-identity, and the frontier experiment's same-trace pairing
 * across designs.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "dramcache/alloy_cache.hh"
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
    p.set("banshee.assoc", "8");
    p.set("alloy.predictor", "false");
    p.set("x.ratio", "0.5");
    EXPECT_TRUE(p.has("banshee.assoc"));
    EXPECT_FALSE(p.has("banshee.sample_shift"));
    EXPECT_EQ(p.getU64("banshee.assoc", 4), 8u);
    EXPECT_EQ(p.getU64("absent", 4), 4u);
    EXPECT_FALSE(p.getBool("alloy.predictor", true));
    EXPECT_DOUBLE_EQ(p.getDouble("x.ratio", 0.0), 0.5);
    EXPECT_THROW(p.getBool("x.ratio", true), std::runtime_error);
    p.set("banshee.assoc", "2"); // overwrite, no duplicate entry
    EXPECT_EQ(p.getU64("banshee.assoc", 4), 2u);
    EXPECT_EQ(p.entries().size(), 3u);
    // Unparseable and partially-numeric values are errors, not
    // silent zeros/truncations.
    p.set("bad.int", "four");
    p.set("bad.suffix", "64K");
    EXPECT_THROW(p.getU64("bad.int", 1), std::runtime_error);
    EXPECT_THROW(p.getU64("bad.suffix", 1), std::runtime_error);
    EXPECT_THROW(p.getDouble("bad.int", 1.0),
                 std::runtime_error);

    // Params suffix the sweep label, keeping variants distinct.
    Experiment::Config cfg;
    cfg.design = "banshee";
    const std::string plain =
        standardLabel(WorkloadKind::WebSearch, cfg);
    cfg.params.set("banshee.assoc", "8");
    const std::string tuned =
        standardLabel(WorkloadKind::WebSearch, cfg);
    EXPECT_NE(plain, tuned);
    EXPECT_NE(tuned.find("banshee.assoc=8"), std::string::npos);
}

TEST(DesignParams, ReachTheFactories)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "banshee";
    cfg.capacityMb = 64;
    cfg.params.set("banshee.assoc", "8");
    cfg.params.set("banshee.sample_shift", "2");
    Experiment exp(cfg, trace);
    auto *banshee =
        dynamic_cast<BansheeCache *>(&exp.memory());
    ASSERT_NE(banshee, nullptr);
    EXPECT_EQ(banshee->config().assoc, 8u);
    EXPECT_EQ(banshee->config().sampleShift, 2u);
}

TEST(Designs, Table4LatenciesByName)
{
    EXPECT_EQ(tagLatencyCycles("footprint", 256), 9u);
    EXPECT_EQ(tagLatencyCycles("page", 256), 6u);
    // Designs without an SRAM page tag array have none.
    EXPECT_EQ(tagLatencyCycles("alloy", 256), 0u);
    EXPECT_EQ(tagLatencyCycles("baseline", 256), 0u);
}

/* ---------------- functional/timed bit-identity ---------------- */

struct DesignState
{
    RunMetrics metrics;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    /* Alloy detail. */
    std::uint64_t mapMispredicts = 0;
    std::uint64_t wastedOffchip = 0;
    std::uint64_t dirtyEvictions = 0;
    /* Banshee detail. */
    std::uint64_t fills = 0;
    std::uint64_t bypassed = 0;
    std::uint64_t fillBlocks = 0;
    std::uint64_t tbHits = 0;
    std::uint64_t tbFlushes = 0;
    std::uint64_t flushedMappings = 0;
};

DesignState
runDesign(const std::string &design, SimMode warmup_mode)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = design;
    cfg.capacityMb = 16;
    cfg.pod.warmupMode = warmup_mode;
    Experiment exp(cfg, trace);
    DesignState r;
    r.metrics = exp.run(150'000, 100'000);
    r.demandAccesses = exp.memory().demandAccesses();
    r.demandHits = exp.memory().demandHits();
    if (auto *alloy = dynamic_cast<AlloyCache *>(&exp.memory())) {
        r.mapMispredicts = alloy->mapMispredicts();
        r.wastedOffchip = alloy->wastedOffchipReads();
        r.dirtyEvictions = alloy->dirtyEvictions();
    }
    if (auto *banshee =
            dynamic_cast<BansheeCache *>(&exp.memory())) {
        r.fills = banshee->pageFills();
        r.bypassed = banshee->bypassedMisses();
        r.fillBlocks = banshee->fillBlocksWritten();
        r.tbHits = banshee->tagBufferHits();
        r.tbFlushes = banshee->tagFlushes();
        r.flushedMappings = banshee->flushedMappings();
    }
    return r;
}

void
expectIdentical(const DesignState &a, const DesignState &b)
{
    EXPECT_EQ(
        fieldDiff(PodCounters::kCounters, a.metrics, b.metrics), "");
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    EXPECT_EQ(a.demandHits, b.demandHits);
    EXPECT_EQ(a.mapMispredicts, b.mapMispredicts);
    EXPECT_EQ(a.wastedOffchip, b.wastedOffchip);
    EXPECT_EQ(a.dirtyEvictions, b.dirtyEvictions);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.bypassed, b.bypassed);
    EXPECT_EQ(a.fillBlocks, b.fillBlocks);
    EXPECT_EQ(a.tbHits, b.tbHits);
    EXPECT_EQ(a.tbFlushes, b.tbFlushes);
    EXPECT_EQ(a.flushedMappings, b.flushedMappings);
}

TEST(TwoPhaseDesigns, AlloyWarmupModesBitIdentical)
{
    DesignState func = runDesign("alloy", SimMode::Functional);
    DesignState timed = runDesign("alloy", SimMode::Timed);
    expectIdentical(func, timed);
    // Sanity: the design really hit and really mispredicted.
    EXPECT_GT(func.demandHits, 0u);
    EXPECT_LT(func.demandHits, func.demandAccesses);
    EXPECT_GT(func.mapMispredicts, 0u);
}

TEST(TwoPhaseDesigns, BansheeWarmupModesBitIdentical)
{
    DesignState func = runDesign("banshee", SimMode::Functional);
    DesignState timed = runDesign("banshee", SimMode::Timed);
    expectIdentical(func, timed);
    EXPECT_GT(func.demandHits, 0u);
    EXPECT_GT(func.fills, 0u);
    // Bandwidth-aware replacement: some misses fill nothing.
    EXPECT_GT(func.bypassed, 0u);
    EXPECT_GT(func.tbHits, 0u);
}

TEST(TwoPhaseDesigns, FunctionalWarmupSkipsDramModel)
{
    for (const char *design : {"alloy", "banshee"}) {
        WorkloadSpec spec =
            makeWorkload(WorkloadKind::WebSearch);
        SyntheticTraceSource trace(spec);
        Experiment::Config cfg;
        cfg.design = design;
        cfg.capacityMb = 16;
        cfg.pod.warmupMode = SimMode::Functional;
        Experiment exp(cfg, trace);
        exp.run(150'000, 0); // warmup only
        EXPECT_EQ(exp.stacked()->totalBytes(), 0u) << design;
        EXPECT_EQ(exp.offchip().totalBytes(), 0u) << design;
        EXPECT_GT(exp.memory().demandAccesses(), 0u) << design;
    }
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
