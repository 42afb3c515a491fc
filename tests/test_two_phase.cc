/**
 * @file
 * Tests for the two-phase simulation engine: functional warmup
 * must leave exactly the same architectural state as timed warmup,
 * so every measured-phase metric and every state-derived counter
 * is bit-identical across the two warmup modes, for every
 * registered design; and functional warmup must never touch the
 * DRAM timing/energy model, whose Functional mode is the one place
 * that skips work.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dram/system.hh"
#include "dramcache/design_registry.hh"
#include "sim/experiment.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

struct PhaseResult
{
    RunMetrics metrics;
    /* Cumulative state-derived counters after the run. */
    std::uint64_t fhtHits = 0;
    std::uint64_t fhtMisses = 0;
    std::uint64_t fhtEvictions = 0;
    std::uint64_t trigMisses = 0;
    std::uint64_t underpredMisses = 0;
    std::uint64_t singletonBypasses = 0;
    std::uint64_t pageEvictions = 0;
    std::uint64_t blocksFetched = 0;
    std::uint64_t covered = 0;
    std::uint64_t underpred = 0;
    std::uint64_t overpred = 0;
    std::uint64_t densityPages = 0;
};

PhaseResult
runWith(const std::string &design, SimMode warmup_mode,
        std::uint64_t capacity_mb, std::uint64_t warm,
        std::uint64_t meas,
        WorkloadKind wk = WorkloadKind::WebSearch)
{
    WorkloadSpec spec = makeWorkload(wk);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = design;
    cfg.capacityMb = capacity_mb;
    cfg.pod.warmupMode = warmup_mode;
    Experiment exp(cfg, trace);
    PhaseResult r;
    r.metrics = exp.run(warm, meas);
    if (FootprintCache *fc = exp.footprintCache()) {
        fc->finalizeResidency();
        r.fhtHits = fc->fht().hits();
        r.fhtMisses = fc->fht().misses();
        r.fhtEvictions = fc->fht().evictions();
        r.trigMisses = fc->triggeringMisses();
        r.underpredMisses = fc->underpredictionMisses();
        r.singletonBypasses = fc->singletonBypasses();
        r.pageEvictions = fc->pageEvictions();
        r.blocksFetched = fc->blocksFetched();
        r.covered = fc->coveredBlocks();
        r.underpred = fc->underpredictedBlocks();
        r.overpred = fc->overpredictedBlocks();
        r.densityPages = fc->densityHistogram().totalSamples();
    }
    return r;
}

void
expectIdentical(const PhaseResult &a, const PhaseResult &b)
{
    // Measured-phase metrics: hit ratio, MPKI inputs, traffic and
    // timing must all match bit for bit.
    EXPECT_EQ(
        fieldDiff(PodCounters::kCounters, a.metrics, b.metrics), "");
    EXPECT_DOUBLE_EQ(a.metrics.missRatio(), b.metrics.missRatio());
    EXPECT_DOUBLE_EQ(a.metrics.ipc(), b.metrics.ipc());

    // FHT- and residency-derived counters (predictor training and
    // footprint coverage must have evolved identically).
    EXPECT_EQ(a.fhtHits, b.fhtHits);
    EXPECT_EQ(a.fhtMisses, b.fhtMisses);
    EXPECT_EQ(a.fhtEvictions, b.fhtEvictions);
    EXPECT_EQ(a.trigMisses, b.trigMisses);
    EXPECT_EQ(a.underpredMisses, b.underpredMisses);
    EXPECT_EQ(a.singletonBypasses, b.singletonBypasses);
    EXPECT_EQ(a.pageEvictions, b.pageEvictions);
    EXPECT_EQ(a.blocksFetched, b.blocksFetched);
    EXPECT_EQ(a.covered, b.covered);
    EXPECT_EQ(a.underpred, b.underpred);
    EXPECT_EQ(a.overpred, b.overpred);
    EXPECT_EQ(a.densityPages, b.densityPages);
}

TEST(TwoPhase, FootprintWarmupModesBitIdentical)
{
    PhaseResult func = runWith("footprint",
                               SimMode::Functional, 16, 400'000,
                               200'000);
    PhaseResult timed = runWith("footprint",
                                SimMode::Timed, 16, 400'000,
                                200'000);
    expectIdentical(func, timed);
    // Sanity: the measured window did real work.
    EXPECT_EQ(func.metrics.traceRecords, 200'000u);
    EXPECT_GT(func.metrics.demandAccesses, 0u);
    EXPECT_GT(func.covered, 0u);
}

TEST(TwoPhase, EveryDesignWarmupModesBitIdentical)
{
    for (const std::string &d : DesignRegistry::instance().names()) {
        SCOPED_TRACE(d);
        PhaseResult func = runWith(d, SimMode::Functional, 16,
                                   150'000, 100'000);
        PhaseResult timed = runWith(d, SimMode::Timed, 16,
                                    150'000, 100'000);
        expectIdentical(func, timed);
        EXPECT_EQ(func.metrics.traceRecords, 100'000u);
    }
}

TEST(TwoPhase, FunctionalWarmupSkipsDramModel)
{
    for (const std::string &d : DesignRegistry::instance().names()) {
        SCOPED_TRACE(d);
        WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
        SyntheticTraceSource trace(spec);
        Experiment::Config cfg;
        cfg.design = d;
        cfg.capacityMb = 16;
        cfg.pod.warmupMode = SimMode::Functional;
        Experiment exp(cfg, trace);
        exp.run(150'000, 0); // warmup only
        if (DramSystem *stacked = exp.stacked()) {
            EXPECT_EQ(stacked->totalBytes(), 0u);
            EXPECT_EQ(stacked->totalActivates(), 0u);
        }
        EXPECT_EQ(exp.offchip().totalBytes(), 0u);
        EXPECT_EQ(exp.offchip().totalActivates(), 0u);
        // ... while the design's state is genuinely warm.
        EXPECT_GT(exp.memory().demandAccesses(), 0u);
        if (FootprintCache *fc = exp.footprintCache()) {
            EXPECT_GT(fc->blocksFetched(), 0u);
        }
    }
}

TEST(TwoPhase, TimedWarmupDoesTouchDramModel)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 16;
    cfg.pod.warmupMode = SimMode::Timed;
    Experiment exp(cfg, trace);
    exp.run(200'000, 0);
    EXPECT_GT(exp.stacked()->totalBytes(), 0u);
    EXPECT_GT(exp.offchip().totalBytes(), 0u);
}

TEST(TwoPhase, WarmupStateCarriesIntoMeasurement)
{
    // A warmed cache must measure a lower miss ratio than a cold
    // one over the same window.
    PhaseResult cold = runWith("footprint",
                               SimMode::Functional, 16, 0,
                               200'000);
    PhaseResult warm = runWith("footprint",
                               SimMode::Functional, 16, 1'000'000,
                               200'000);
    EXPECT_LT(warm.metrics.missRatio(), cold.metrics.missRatio());
}

TEST(TwoPhase, LegacyAllTimedWarmupStillWorks)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebSearch);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 16;
    cfg.pod.allTimedWarmup = true;
    Experiment exp(cfg, trace);
    RunMetrics m = exp.run(150'000, 100'000);
    EXPECT_EQ(m.traceRecords, 100'000u);
    EXPECT_GT(m.ipc(), 0.0);
    EXPECT_GT(m.demandAccesses, 0u);
}

void
expectSameResult(const DramAccessResult &a,
                 const DramAccessResult &b)
{
    EXPECT_EQ(a.firstBlockReady, b.firstBlockReady);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.rowHit, b.rowHit);
}

TEST(TwoPhase, DramFunctionalModeTouchesNoState)
{
    DramSystem off(DramSystem::Config::offchipPod());
    DramSystem stk(DramSystem::Config::stackedPod());
    off.enableTenantAccounting(2);
    off.enableBankCounters();
    stk.enableBankCounters();
    off.setMode(SimMode::Functional);
    stk.setMode(SimMode::Functional);

    // Every access returns at its issue cycle...
    expectSameResult(off.access(7, 0x1000, false, 4),
                     {7, 7, false});
    expectSameResult(off.access(9, 0x1000, true), {9, 9, false});
    expectSameResult(stk.access(11, 0x2000, false, 32),
                     {11, 11, false});
    expectSameResult(stk.compoundAccess(13, 0x4000, true),
                     {13, 13, false});

    // ... and leaves no trace in the model.
    for (const DramSystem *sys : {&off, &stk}) {
        EXPECT_EQ(sys->totalBytes(), 0u);
        EXPECT_EQ(sys->totalActivates(), 0u);
        EXPECT_EQ(sys->totalRowHits(), 0u);
        EXPECT_EQ(sys->totalBlocksRead(), 0u);
        EXPECT_EQ(sys->totalBlocksWritten(), 0u);
        EXPECT_EQ(sys->totalActPreEnergyNj(), 0.0);
        EXPECT_EQ(sys->totalBurstEnergyNj(), 0.0);
        EXPECT_EQ(sys->busyBanks(0), 0u);
        for (unsigned c = 0; c < sys->numChannels(); ++c) {
            for (unsigned b = 0; b < sys->numBanks(); ++b) {
                EXPECT_EQ(sys->channel(c).bankActivates(b), 0u);
                EXPECT_EQ(sys->channel(c).bankBlocksRead(b), 0u);
                EXPECT_EQ(sys->channel(c).bankBlocksWritten(b),
                          0u);
            }
        }
    }
    EXPECT_EQ(off.tenantBytes(0), 0u);
    EXPECT_EQ(off.tenantBytes(1), 0u);

    // A following timed access sees a fresh system: no row was
    // opened and no bank or bus was reserved.
    off.setMode(SimMode::Timed);
    stk.setMode(SimMode::Timed);
    DramSystem fresh_off(DramSystem::Config::offchipPod());
    DramSystem fresh_stk(DramSystem::Config::stackedPod());
    expectSameResult(off.access(7, 0x1000, false, 4),
                     fresh_off.access(7, 0x1000, false, 4));
    expectSameResult(stk.compoundAccess(13, 0x4000, false),
                     fresh_stk.compoundAccess(13, 0x4000, false));
    EXPECT_EQ(off.totalBytes(), fresh_off.totalBytes());
    EXPECT_EQ(off.tenantBytes(0), 4 * kBlockBytes);
}

TEST(TwoPhase, DramResetTimingKeepsStatistics)
{
    DramSystem sys(DramSystem::Config::offchipPod());
    sys.access(0, 0x0, false, 4);
    const std::uint64_t bytes = sys.totalBytes();
    const std::uint64_t acts = sys.totalActivates();
    EXPECT_GT(bytes, 0u);
    sys.resetTiming();
    EXPECT_EQ(sys.totalBytes(), bytes);
    EXPECT_EQ(sys.totalActivates(), acts);
    // After the reset, time may restart from zero without the
    // earlier reservations delaying the access.
    DramAccessResult r = sys.access(0, 0x10000, false, 1);
    EXPECT_LT(r.firstBlockReady, 200u);
}

} // namespace
} // namespace fpc
