/** @file Unit tests for the pod timing simulator. */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dramcache/simple_memories.hh"
#include "mem/materialized_trace.hh"
#include "sim/pod_system.hh"
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

TEST(PodSystem, MlpHidesLatency)
{
    auto run_with = [](unsigned mlp) {
        VectorTraceSource trace(streamingTrace(4000, 8), 1);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodConfig cfg = tinyPod(1);
        cfg.mlpPerCore = mlp;
        PodSystem pod(cfg, trace, mem, nullptr, off);
        return pod.run(0, 4000).ipc();
    };
    EXPECT_GT(run_with(4), 1.3 * run_with(1));
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
        PodConfig cfg = tinyPod(1);
        cfg.mlpPerCore = 1; // blocking loads
        PodSystem pod(cfg, trace, mem, nullptr, off);
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
    // The in-band warmup, the warmup-artifact replay and the
    // measured window each compare the clock against the pod's
    // deadline, so a point past it unwinds without outside help.
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
            {"runWarmup", [](PodSystem &pod) { pod.run(kRecords, 0); }},
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
