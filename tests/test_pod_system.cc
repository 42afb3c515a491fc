/** @file Unit tests for the pod timing simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dramcache/simple_memories.hh"
#include "mem/materialized_trace.hh"
#include "sim/pod_system.hh"
#include "tenant/mix_source.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

std::vector<TraceRecord>
streamingTrace(unsigned n, unsigned gap = 4)
{
    std::vector<TraceRecord> v;
    for (unsigned i = 0; i < n; ++i) {
        TraceRecord r;
        r.computeGap = gap;
        r.req.paddr = static_cast<Addr>(i) * 64 * 37;
        r.req.pc = 0x400000;
        r.req.op = MemOp::Read;
        v.push_back(r);
    }
    return v;
}

PodConfig
tinyPod(unsigned cores)
{
    PodConfig cfg;
    cfg.numCores = cores;
    cfg.hierarchy = CacheHierarchy::Config::scaleOutPod(cores);
    return cfg;
}

TEST(PodSystem, CountsInstructionsAndRecords)
{
    VectorTraceSource trace(streamingTrace(100, 4), 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(0, 100);
    EXPECT_EQ(m.traceRecords, 100u);
    EXPECT_EQ(m.instructions, 100u * 5); // gap 4 + 1 memory op
    EXPECT_GT(m.cycles, 0u);
}

TEST(PodSystem, StopsAtTraceEnd)
{
    VectorTraceSource trace(streamingTrace(10), 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(0, 1000000);
    EXPECT_EQ(m.traceRecords, 10u);
}

TEST(PodSystem, WarmupExcludedFromMetrics)
{
    VectorTraceSource trace(streamingTrace(200), 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(100, 100);
    EXPECT_EQ(m.traceRecords, 100u);
    EXPECT_EQ(m.instructions, 100u * 5);
}

TEST(PodSystem, L1HitsAreFast)
{
    // All accesses to one block: after the first, everything hits
    // in L1 and cycles stay near compute time.
    std::vector<TraceRecord> recs;
    for (unsigned i = 0; i < 1000; ++i) {
        TraceRecord r;
        r.computeGap = 2;
        r.req.paddr = 0x1000;
        r.req.op = MemOp::Read;
        recs.push_back(r);
    }
    VectorTraceSource trace(recs, 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(0, 1000);
    EXPECT_EQ(m.llcMisses, 1u);
    // ~3 cycles/record upper bound plus the one miss.
    EXPECT_LT(m.cycles, 1000u * 6 + 500);
}

TEST(PodSystem, MoreCoresMoreThroughput)
{
    auto run_with = [](unsigned cores) {
        VectorTraceSource trace(streamingTrace(4000, 8), cores);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodSystem pod(tinyPod(cores), trace, mem, nullptr, off);
        return pod.run(0, 4000).ipc();
    };
    EXPECT_GT(run_with(4), 1.5 * run_with(1));
}

TEST(PodSystem, StoresDoNotBlock)
{
    auto run_ops = [](MemOp op) {
        std::vector<TraceRecord> recs = streamingTrace(2000, 2);
        for (auto &r : recs)
            r.req.op = op;
        VectorTraceSource trace(recs, 1);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
        return pod.run(0, 2000).cycles;
    };
    EXPECT_LT(run_ops(MemOp::Write), run_ops(MemOp::Read));
}

TEST(PodSystem, DeterministicAcrossRuns)
{
    auto run_once = []() {
        VectorTraceSource trace(streamingTrace(3000), 4);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodSystem pod(tinyPod(4), trace, mem, nullptr, off);
        return pod.run(500, 2000);
    };
    RunMetrics a = run_once();
    RunMetrics b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
}

TEST(PodSystem, ChecksItsOwnDeadline)
{
    // run()'s warmup, the warmup-artifact replay and the measured
    // window each compare the clock against the pod's deadline,
    // so a point past it unwinds without outside help.
    constexpr std::uint64_t kRecords = 20000;
    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(WorkloadKind::WebSearch, 2048, 11),
                     kRecords, *arena);
    const auto artifact = PodSystem::buildWarmupArtifact(
        *arena, PodConfig{}.hierarchy, kRecords);
    ASSERT_GT(artifact->paddr.size(), 0u);

    const auto onFreshPod =
        [&](const PodConfig &cfg,
            const std::function<void(PodSystem &)> &phase) {
            ReplayTraceSource trace(arena);
            DramSystem off(DramSystem::Config::offchipPod());
            NoCacheMemory mem(off);
            PodSystem pod(cfg, trace, mem, nullptr, off);
            phase(pod);
        };
    const std::vector<
        std::pair<const char *, std::function<void(PodSystem &)>>>
        phases = {
            {"run(warm)", [](PodSystem &pod) { pod.run(kRecords, 0); }},
            {"applyWarmup",
             [&](PodSystem &pod) { pod.applyWarmup(*artifact); }},
            {"runMeasure", [](PodSystem &pod) { pod.run(0, kRecords); }},
        };
    PodConfig expired;
    expired.deadline = std::chrono::steady_clock::now();
    for (const auto &[name, phase] : phases) {
        SCOPED_TRACE(name);
        EXPECT_THROW(onFreshPod(expired, phase), PointCancelledError);
        EXPECT_NO_THROW(onFreshPod(PodConfig{}, phase));
    }
}

TEST(PodSystem, BuildsCheckTheDeadline)
{
    // The trace arena and both artifact builds are part of a
    // point's attempt: a passed deadline stops each of them.
    constexpr std::uint64_t kRecords = 20000;
    const Deadline past = std::chrono::steady_clock::now();
    const WorkloadSpec spec =
        makeWorkload(WorkloadKind::WebSearch, 2048, 11);
    MaterializedTrace cancelled;
    EXPECT_THROW(materializeTrace(spec, kRecords, cancelled, past),
                 PointCancelledError);

    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(spec, kRecords, *arena);
    const CacheHierarchy::Config hier = PodConfig{}.hierarchy;
    EXPECT_THROW(PodSystem::buildWarmupArtifact(*arena, hier,
                                                kRecords / 2, past),
                 PointCancelledError);
    const auto warm =
        PodSystem::buildWarmupArtifact(*arena, hier, kRecords / 2);
    SampleSchedule sched;
    sched.intervals = 2;
    sched.period = kRecords / 4;
    sched.ramp = 1000;
    sched.measure = 1000;
    sched.gap = sched.period - sched.ramp - sched.measure;
    EXPECT_THROW(PodSystem::buildSampleSpanArtifact(
                     *arena, hier, *warm, kRecords / 2, sched, past),
                 PointCancelledError);
    EXPECT_NO_THROW(PodSystem::buildSampleSpanArtifact(
        *arena, hier, *warm, kRecords / 2, sched));
}

/**
 * Memory system that only logs the ops a pod hands it, in
 * arrival order. Writebacks carry no core or tenant through the
 * MemorySystem interface, so they log those as 0.
 */
class RecordingMemory final : public MemorySystem
{
  public:
    struct Op
    {
        Addr paddr = 0;
        Pc pc = 0;
        std::uint16_t coreId = 0;
        std::uint16_t tenantId = 0;
        std::uint8_t kind = PostL2Ops::kRead;

        bool operator==(const Op &) const = default;
    };

    MemSystemResult
    access(Cycle now, const MemRequest &req) override
    {
        log.push_back({req.paddr, req.pc, req.coreId, req.tenantId,
                       req.op == MemOp::Write ? PostL2Ops::kWrite
                                              : PostL2Ops::kRead});
        ++demands_;
        return {now + 100, false};
    }

    void
    writeback(Cycle, Addr block_addr) override
    {
        log.push_back({block_addr, 0, 0, 0, PostL2Ops::kWriteback});
    }

    std::string designName() const override { return "recording"; }
    std::uint64_t demandAccesses() const override { return demands_; }
    std::uint64_t demandHits() const override { return 0; }

    std::vector<Op> log;

  private:
    std::uint64_t demands_ = 0;
};

/** A 4-core pod with caches small enough that short traces
 * force dirty writebacks out of the L2. */
PodConfig
smallCachePod()
{
    PodConfig cfg = tinyPod(4);
    cfg.hierarchy.l1.sizeBytes = 8 * 1024;
    cfg.hierarchy.l2.sizeBytes = 64 * 1024;
    return cfg;
}

/** The op log of run()'s warmup over @p warm records. */
std::vector<RecordingMemory::Op>
warmupLog(const PodConfig &cfg, TraceSource &trace,
          std::uint64_t warm)
{
    RecordingMemory mem;
    DramSystem off(DramSystem::Config::offchipPod());
    PodSystem pod(cfg, trace, mem, nullptr, off);
    pod.run(warm, 0);
    return std::move(mem.log);
}

/** FNV-1a over every logged field, in log order. */
std::uint64_t
digestOf(const std::vector<RecordingMemory::Op> &log)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const RecordingMemory::Op &op : log) {
        mix(op.paddr);
        mix(op.pc);
        mix(op.coreId);
        mix(op.tenantId);
        mix(op.kind);
    }
    return h;
}

std::shared_ptr<const MaterializedTrace>
arenaOf(WorkloadKind wk, std::uint64_t records, std::uint64_t seed)
{
    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(wk, 2048, seed), records, *arena);
    return arena;
}

TEST(PodWarmupOps, InBandStreamEqualsArtifactColumns)
{
    // run()'s warmup hands the memory system exactly the op
    // stream a warmup artifact records for the same records.
    constexpr std::uint64_t kWarm = 30000;
    const auto arena = arenaOf(WorkloadKind::WebSearch, kWarm, 11);
    const PodConfig cfg = smallCachePod();
    const auto art =
        PodSystem::buildWarmupArtifact(*arena, cfg.hierarchy, kWarm);

    std::vector<RecordingMemory::Op> expected;
    for (std::size_t i = 0; i < art->paddr.size(); ++i) {
        const bool wb = art->kind[i] == PostL2Ops::kWriteback;
        expected.push_back({art->paddr[i], art->pc[i],
                            wb ? std::uint16_t{0} : art->coreId[i],
                            0, art->kind[i]});
    }
    ASSERT_GT(std::count_if(expected.begin(), expected.end(),
                            [](const RecordingMemory::Op &op) {
                                return op.kind ==
                                       PostL2Ops::kWriteback;
                            }),
              0);

    ReplayTraceSource trace(arena);
    EXPECT_TRUE(warmupLog(cfg, trace, kWarm) == expected);
}

TEST(PodWarmupOps, TenantMixStreamIsPinned)
{
    // Two tenants on cores {0, 1} and {2}; core 3 is idle and
    // tenant 1's stream runs dry mid-warmup. The digest pins the
    // tenant ids, the address stamping and the dead-core rotation.
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<ReplayTraceSource>(
        arenaOf(WorkloadKind::WebSearch, 24000, 11)));
    sources.push_back(std::make_unique<ReplayTraceSource>(
        arenaOf(WorkloadKind::DataServing, 5000, 13)));
    TenantMixSource mix(std::move(sources), {2, 1});
    PodConfig cfg = smallCachePod();
    cfg.numTenants = 2;
    const auto log = warmupLog(cfg, mix, 20000);
    EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                            [](const RecordingMemory::Op &op) {
                                return op.tenantId == 1;
                            }));
    EXPECT_EQ(mix.consumedRecords(1), 5000u);
    EXPECT_EQ(digestOf(log), 0x69f0fd6aec0277d9ull);
}

/** FNV-1a over every pod and tenant counter of @p m. */
std::uint64_t
metricsDigest(const RunMetrics &m)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &f : PodCounters::kCounters)
        mix(m.*f.member);
    for (const TenantMetrics &t : m.tenants)
        for (const auto &f : TenantMetrics::kCounters)
            mix(t.*f.member);
    return h;
}

TEST(PodWarmupOps, TenantMixMeasureIsPinned)
{
    // TenantMixStreamIsPinned's mix, warmed the way a colocation
    // point that hits a shared artifact warms: the artifact was
    // built over another mix, and this one resumes each tenant's
    // stream at that mix's cursor. The digest was recorded from
    // the in-band warmup the artifact replaced (one mix warmed
    // and measured in place), so it pins the cursor restore.
    const auto web = arenaOf(WorkloadKind::WebSearch, 24000, 11);
    const auto data = arenaOf(WorkloadKind::DataServing, 5000, 13);
    const auto mixOf = [&] {
        std::vector<std::unique_ptr<TraceSource>> sources;
        sources.push_back(std::make_unique<ReplayTraceSource>(web));
        sources.push_back(std::make_unique<ReplayTraceSource>(data));
        return TenantMixSource(std::move(sources), {2, 1});
    };
    PodConfig cfg = smallCachePod();
    cfg.numTenants = 2;
    TenantMixSource warmed = mixOf();
    const auto art =
        PodSystem::buildWarmupArtifact(warmed, cfg.hierarchy, 20000);
    ASSERT_EQ(warmed.consumedRecords(1), 5000u);

    TenantMixSource mix = mixOf();
    mix.resumeAt({warmed.consumedRecords(0), warmed.consumedRecords(1)});
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(cfg, mix, mem, nullptr, off);
    pod.applyWarmup(*art);
    const RunMetrics m = pod.run(0, 6000);
    EXPECT_EQ(m.traceRecords, 6000u);
    EXPECT_EQ(metricsDigest(m), 0xd34201e5529d0698ull);
}

TEST(PodWarmupOps, DryVectorStreamIsPinned)
{
    // A per-core vector source (no batch access) whose cores run
    // dry one after another before the warm window ends.
    std::vector<TraceRecord> records(3000);
    SyntheticTraceSource gen(
        makeWorkload(WorkloadKind::MapReduce, 2048, 5));
    for (TraceRecord &r : records)
        ASSERT_TRUE(gen.next(0, r));
    VectorTraceSource trace(records, 4);
    const auto log = warmupLog(smallCachePod(), trace, 20000);
    EXPECT_GT(log.size(), 0u);
    EXPECT_EQ(digestOf(log), 0x4cbe9b86417ce963ull);
}

TEST(PodSystem, MetricsDerivations)
{
    RunMetrics m;
    m.instructions = 1000;
    m.cycles = 500;
    m.demandAccesses = 100;
    m.demandHits = 80;
    m.offchipBytes = 64000;
    m.offchipActPreNj = 10.0;
    m.offchipBurstNj = 20.0;
    EXPECT_DOUBLE_EQ(m.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(m.missRatio(), 0.2);
    EXPECT_DOUBLE_EQ(m.offchipEnergyPerInstr(), 0.03);
    EXPECT_GT(m.offchipBandwidthGBps(), 0.0);
}

} // namespace
} // namespace fpc
