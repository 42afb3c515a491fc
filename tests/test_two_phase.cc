/**
 * @file
 * Tests for the two-phase simulation engine. The warmup replays
 * its post-L2 ops with the DRAM in SimMode::Functional, every op
 * at cycle 0. That is sound only because no structure's state
 * update reads the cycle argument; the oracle here holds every
 * design, and a two-tenant quota mix, to a timed reference replay
 * of the same ops (full DRAM model, per-core issue clocks): every
 * measured metric and every state-derived counter must come out
 * bit-identical. Functional warmup must also never touch the DRAM
 * timing/energy model, whose Functional mode is the one place
 * that skips work.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dram/system.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/banshee_cache.hh"
#include "dramcache/design_registry.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "tenant/colocation.hh"
#include "tenant/mix_source.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

struct PhaseResult
{
    RunMetrics metrics;
    /* Cumulative state-derived counters after the run. */
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    /* Footprint detail. */
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
    std::uint64_t quotaBypasses = 0;
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

/**
 * The timed reference warmup: replay @p art's ops into the memory
 * system with both DRAMs left in SimMode::Timed. Each demand issues
 * at its core's clock plus the L1+L2 latency, a read holds its core
 * until the block returns, and a writeback issues at its core's
 * clock. Then applyWarmup a copy of the artifact without its ops,
 * so only the hierarchy snapshot and the record counters apply.
 */
void
timedReferenceWarmup(Experiment &exp, const WarmupArtifact &art)
{
    const PodConfig &pod = exp.config().pod;
    const Cycle l1l2 = PodConfig::kL1HitLatency + PodConfig::kL2HitLatency;
    std::vector<Cycle> clock(pod.numCores, 0);
    MemorySystem &mem = exp.memory();
    for (std::size_t i = 0; i < art.paddr.size(); ++i) {
        const unsigned core = art.coreId[i];
        if (art.kind[i] == PostL2Ops::kWriteback) {
            mem.writeback(clock[core], art.paddr[i]);
            continue;
        }
        MemRequest req;
        req.paddr = art.paddr[i];
        req.pc = art.pc[i];
        req.op = art.kind[i] == PostL2Ops::kWrite ? MemOp::Write
                                                  : MemOp::Read;
        req.coreId = art.coreId[i];
        req.tenantId =
            static_cast<std::uint16_t>(tenantOfAddr(req.paddr));
        const Cycle issue = clock[core] + l1l2;
        const MemSystemResult res = mem.access(issue, req);
        clock[core] = req.op == MemOp::Read ? res.doneAt : issue;
    }
    // The reference really paid the DRAM model.
    const DramSystem *stacked = exp.stacked();
    EXPECT_GT(exp.offchip().totalBytes() +
                  (stacked ? stacked->totalBytes() : 0),
              0u);

    WarmupArtifact state;
    state.hierarchy = art.hierarchy;
    state.records = art.records;
    state.instructions = art.instructions;
    exp.pod().applyWarmup(state);
}

/**
 * Warm a fresh @p cfg pod from @p art (plain applyWarmup, or the
 * timed reference), then measure @p meas records of @p trace,
 * which the caller has positioned after the warm window.
 */
PhaseResult
measureAfter(const Experiment::Config &cfg, TraceSource &trace,
             const WarmupArtifact &art, bool timed_reference,
             std::uint64_t meas)
{
    Experiment exp(cfg, trace);
    if (timed_reference)
        timedReferenceWarmup(exp, art);
    else
        exp.pod().applyWarmup(art);
    PhaseResult r;
    r.metrics = exp.run(0, meas);
    r.demandAccesses = exp.memory().demandAccesses();
    r.demandHits = exp.memory().demandHits();
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
        r.quotaBypasses = fc->quotaBypasses();
    }
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
expectIdentical(const PhaseResult &a, const PhaseResult &b)
{
    // Measured-phase metrics: hit ratio, MPKI inputs, traffic and
    // timing must all match bit for bit, per tenant included.
    EXPECT_EQ(
        fieldDiff(PodCounters::kCounters, a.metrics, b.metrics), "");
    EXPECT_DOUBLE_EQ(a.metrics.missRatio(), b.metrics.missRatio());
    EXPECT_DOUBLE_EQ(a.metrics.ipc(), b.metrics.ipc());
    ASSERT_EQ(a.metrics.tenants.size(), b.metrics.tenants.size());
    for (std::size_t t = 0; t < a.metrics.tenants.size(); ++t) {
        EXPECT_EQ(fieldDiff(TenantMetrics::kCounters,
                            a.metrics.tenants[t],
                            b.metrics.tenants[t]),
                  "")
            << "tenant " << t;
    }

    // State-derived counters: predictor training, footprint
    // coverage and each design's own bookkeeping must have
    // evolved identically.
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    EXPECT_EQ(a.demandHits, b.demandHits);
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
    EXPECT_EQ(a.quotaBypasses, b.quotaBypasses);
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

std::shared_ptr<const MaterializedTrace>
webSearchArena(std::uint64_t records)
{
    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(WorkloadKind::WebSearch), records,
                     *arena);
    return arena;
}

/**
 * Measure @p design at @p capacity_mb after a plain applyWarmup and
 * after the timed reference warmup, both warmed from one artifact
 * over @p arena's first @p warm records, and require identical
 * results; returns the plain pod's.
 */
PhaseResult
expectMatchesTimedReference(
    const std::shared_ptr<const MaterializedTrace> &arena,
    const std::string &design, std::uint64_t capacity_mb,
    std::uint64_t warm, std::uint64_t meas)
{
    Experiment::Config cfg;
    cfg.design = design;
    cfg.capacityMb = capacity_mb;
    const auto art =
        PodSystem::buildWarmupArtifact(*arena, cfg.pod.hierarchy, warm);
    const auto run = [&](bool timed_reference) {
        ReplayTraceSource trace(arena);
        trace.seekTo(warm);
        return measureAfter(cfg, trace, *art, timed_reference, meas);
    };
    const PhaseResult plain = run(false);
    expectIdentical(plain, run(true));
    // Sanity: the measured window did real work.
    EXPECT_EQ(plain.metrics.traceRecords, meas);
    EXPECT_GT(plain.metrics.demandAccesses, 0u);
    return plain;
}

TEST(TwoPhase, FootprintMatchesTimedReferenceWarmup)
{
    const PhaseResult r = expectMatchesTimedReference(
        webSearchArena(600'000), "footprint", 16, 400'000, 200'000);
    EXPECT_GT(r.covered, 0u);
}

TEST(TwoPhase, EveryDesignMatchesTimedReferenceWarmup)
{
    const auto arena = webSearchArena(250'000);
    for (const std::string &d : DesignRegistry::instance().names()) {
        SCOPED_TRACE(d);
        const PhaseResult r = expectMatchesTimedReference(
            arena, d, 16, 150'000, 100'000);
        if (d == "alloy") {
            // The design really hit and really mispredicted.
            EXPECT_GT(r.demandHits, 0u);
            EXPECT_LT(r.demandHits, r.demandAccesses);
            EXPECT_GT(r.mapMispredicts, 0u);
        } else if (d == "banshee") {
            EXPECT_GT(r.demandHits, 0u);
            EXPECT_GT(r.fills, 0u);
            // Bandwidth-aware replacement: some misses fill
            // nothing.
            EXPECT_GT(r.bypassed, 0u);
            EXPECT_GT(r.tbHits, 0u);
        }
    }
}

/** Two tenants, WebSearch and DataServing, on 8 cores each. */
std::unique_ptr<TenantMixSource>
pairMix()
{
    std::vector<std::unique_ptr<TraceSource>> inner;
    for (WorkloadKind wk :
         {WorkloadKind::WebSearch, WorkloadKind::DataServing}) {
        inner.push_back(std::make_unique<SyntheticTraceSource>(
            makeWorkload(wk, 2048, traceIdentitySeed(wk, 2048, 42))));
    }
    return std::make_unique<TenantMixSource>(
        std::move(inner), std::vector<unsigned>{8, 8});
}

TEST(TwoPhase, TenantQuotaMixMatchesTimedReferenceWarmup)
{
    // Partition quotas see the tenant of every replayed demand;
    // the timed reference must leave the same per-tenant state.
    // A small cache makes the half-capacity quotas bind, so
    // bypasses engage in warmup.
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 2;
    encodeTenantMix(cfg,
                    {{WorkloadKind::WebSearch, 8},
                     {WorkloadKind::DataServing, 8}},
                    "quota");
    cfg.pod.numTenants = 2;
    const auto run = [&](bool timed_reference) {
        auto mix = pairMix();
        const auto art = PodSystem::buildWarmupArtifact(
            *mix, cfg.pod.hierarchy, 40'000);
        EXPECT_EQ(art->records, 40'000u);
        return measureAfter(cfg, *mix, *art, timed_reference,
                            40'000);
    };
    const PhaseResult plain = run(false);
    expectIdentical(plain, run(true));
    EXPECT_GT(plain.quotaBypasses, 0u);
    ASSERT_EQ(plain.metrics.tenants.size(), 2u);
    EXPECT_GT(plain.metrics.tenants[0].demandAccesses, 0u);
    EXPECT_GT(plain.metrics.tenants[1].demandAccesses, 0u);
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

TEST(TwoPhase, WarmupStateCarriesIntoMeasurement)
{
    // A warmed cache must measure a lower miss ratio than a cold
    // one over the same window.
    const auto miss_ratio = [](std::uint64_t warm) {
        SyntheticTraceSource trace(
            makeWorkload(WorkloadKind::WebSearch));
        Experiment::Config cfg;
        cfg.design = "footprint";
        cfg.capacityMb = 16;
        Experiment exp(cfg, trace);
        return exp.run(warm, 200'000).missRatio();
    };
    EXPECT_LT(miss_ratio(1'000'000), miss_ratio(0));
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
