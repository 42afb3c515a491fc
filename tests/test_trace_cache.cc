/**
 * @file
 * Materialized-trace subsystem tests: arena round trips, replay
 * vs fresh-generation bit-identity over full streams (batch and
 * single-record APIs, all cores), the skip contract, TraceCache
 * build-once/plan/evict/release semantics, and warmup-artifact
 * equivalence with PodSystem::run()'s warmup.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "mem/materialized_trace.hh"
#include "mem/trace_cache.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

bool
recordsEqual(const TraceRecord &a, const TraceRecord &b)
{
    return a.req.paddr == b.req.paddr && a.req.pc == b.req.pc &&
           a.req.op == b.req.op &&
           a.computeGap == b.computeGap;
}

std::vector<TraceRecord>
syntheticRecords(std::uint64_t n, std::uint64_t seed = 7)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, seed));
    std::vector<TraceRecord> out(n);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(src.next(0, out[i]));
    return out;
}

std::shared_ptr<const MaterializedTrace>
materialize(std::uint64_t n, std::uint64_t seed = 7)
{
    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(WorkloadKind::WebSearch, 2048,
                                  seed),
                     n, *arena);
    return arena;
}

/** Small cache entry with a controllable size. */
struct FakeEntry : TraceCacheEntry
{
    explicit FakeEntry(std::uint64_t bytes, int tag = 0)
        : bytes_(bytes), tag_(tag)
    {
    }
    std::uint64_t cacheBytes() const override { return bytes_; }
    std::uint64_t bytes_;
    int tag_;
};

TEST(MaterializedTrace, AppendFillRoundTrip)
{
    // Odd-sized appends and reads crossing two chunk boundaries,
    // ending inside a third chunk whose tail is never written.
    constexpr std::size_t kChunk = MaterializedTrace::kChunkRecords;
    const std::size_t n = 2 * kChunk + 3 * 4096 + 117;
    const std::vector<TraceRecord> ref = syntheticRecords(n);
    MaterializedTrace arena;
    std::size_t pos = 0;
    const std::size_t spans[] = {1, 1000, 37, 4096, 555};
    std::size_t si = 0;
    while (pos < n) {
        const std::size_t take =
            std::min(spans[si++ % 5], n - pos);
        arena.append(ref.data() + pos, take);
        pos += take;
    }
    ASSERT_EQ(arena.size(), n);
    EXPECT_EQ(arena.cacheBytes(),
              n * MaterializedTrace::kBytesPerRecord);

    std::vector<TraceRecord> got(n);
    pos = 0;
    const std::size_t reads[] = {977, 1, 4096, 33, 2048};
    si = 0;
    while (pos < n) {
        const std::size_t take =
            std::min(reads[si++ % 5], n - pos);
        arena.fill(pos, got.data() + pos, take);
        pos += take;
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(recordsEqual(ref[i], got[i])) << i;
    ASSERT_EQ(arena.numChunks(), 3u);

    // One read straddling each boundary.
    for (std::size_t boundary : {kChunk, 2 * kChunk}) {
        std::vector<TraceRecord> span(40);
        arena.fill(boundary - 20, span.data(), span.size());
        for (std::size_t i = 0; i < span.size(); ++i) {
            ASSERT_TRUE(recordsEqual(ref[boundary - 20 + i], span[i]))
                << boundary - 20 + i;
        }
    }
}

TEST(ReplayTraceSource, NextMatchesFreshSource)
{
    const std::uint64_t n = 50'000;
    auto arena = materialize(n);
    ReplayTraceSource replay(arena);
    SyntheticTraceSource fresh(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));

    TraceRecord a, b;
    for (std::uint64_t i = 0; i < n; ++i) {
        // The stream is core-agnostic: records go to whichever
        // core asks, exactly like the generator.
        const unsigned core = static_cast<unsigned>(i % 16);
        ASSERT_TRUE(replay.next(core, a));
        ASSERT_TRUE(fresh.next(core, b));
        ASSERT_TRUE(recordsEqual(a, b)) << i;
    }
    EXPECT_FALSE(replay.next(0, a)); // arena is finite
    EXPECT_EQ(replay.consumed(), n);
}

TEST(ReplayTraceSource, BatchMatchesFreshSource)
{
    const std::uint64_t n = 50'000;
    auto arena = materialize(n);
    ReplayTraceSource replay(arena);
    SyntheticTraceSource fresh(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));

    // Consume the replay in odd-sized partial skips and compare
    // against the fresh stream record by record.
    std::uint64_t seen = 0;
    const std::size_t takes[] = {1, 700, 13, 4096, 2047};
    std::size_t ti = 0;
    while (seen < n) {
        TraceRecord *span = nullptr;
        const std::size_t avail = replay.acquire(3, span);
        ASSERT_GT(avail, 0u);
        const std::size_t take = std::min(
            {takes[ti++ % 5], avail,
             static_cast<std::size_t>(n - seen)});
        for (std::size_t i = 0; i < take; ++i) {
            TraceRecord want;
            ASSERT_TRUE(fresh.next(0, want));
            ASSERT_TRUE(recordsEqual(span[i], want))
                << seen + i;
        }
        replay.skip(take);
        seen += take;
    }
    TraceRecord rec;
    EXPECT_FALSE(replay.next(0, rec));
}

TEST(ReplayTraceSource, MixedNextAndBatchStaysInSync)
{
    const std::uint64_t n = 20'000;
    auto arena = materialize(n);
    ReplayTraceSource replay(arena);
    SyntheticTraceSource fresh(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));

    std::uint64_t seen = 0;
    bool use_batch = false;
    while (seen < n) {
        if (use_batch) {
            TraceRecord *span = nullptr;
            const std::size_t avail = replay.acquire(0, span);
            ASSERT_GT(avail, 0u);
            const std::size_t take = std::min<std::size_t>(
                {avail, 321,
                 static_cast<std::size_t>(n - seen)});
            for (std::size_t i = 0; i < take; ++i) {
                TraceRecord want;
                ASSERT_TRUE(fresh.next(0, want));
                ASSERT_TRUE(recordsEqual(span[i], want));
            }
            replay.skip(take);
            seen += take;
        } else {
            TraceRecord a, want;
            ASSERT_TRUE(replay.next(0, a));
            ASSERT_TRUE(fresh.next(0, want));
            ASSERT_TRUE(recordsEqual(a, want));
            ++seen;
        }
        use_batch = !use_batch;
    }
}

TEST(ReplayTraceSource, SeekMatchesConsumption)
{
    const std::uint64_t n = 10'000;
    const std::uint64_t cut = 6'321;
    auto arena = materialize(n);

    ReplayTraceSource consumed(arena);
    TraceRecord rec;
    for (std::uint64_t i = 0; i < cut; ++i)
        ASSERT_TRUE(consumed.next(0, rec));

    ReplayTraceSource seeked(arena);
    seeked.seekTo(cut);
    EXPECT_EQ(seeked.consumed(), cut);
    for (std::uint64_t i = cut; i < n; ++i) {
        TraceRecord a, b;
        ASSERT_TRUE(consumed.next(0, a));
        ASSERT_TRUE(seeked.next(0, b));
        ASSERT_TRUE(recordsEqual(a, b)) << i;
    }
}

TEST(ReplayTraceSource, ResetRestartsTheStream)
{
    auto arena = materialize(5'000);
    ReplayTraceSource replay(arena);
    TraceRecord first, rec;
    ASSERT_TRUE(replay.next(0, first));
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(replay.next(0, rec));
    replay.reset();
    ASSERT_TRUE(replay.next(0, rec));
    EXPECT_TRUE(recordsEqual(first, rec));
}

TEST(TraceSkipContract, ReplayOverSkipDies)
{
    auto arena = materialize(5'000);
    ReplayTraceSource replay(arena);
    TraceRecord *span = nullptr;
    const std::size_t avail = replay.acquire(0, span);
    ASSERT_GT(avail, 0u);
    EXPECT_DEATH({ replay.skip(avail + 1); }, "assertion");
}

TEST(TraceSkipContract, ReplaySkipAfterNextDies)
{
    // next() invalidates the acquired span; a stale skip would
    // silently desync every core reading the stream.
    auto arena = materialize(5'000);
    ReplayTraceSource replay(arena);
    TraceRecord *span = nullptr;
    TraceRecord rec;
    ASSERT_GT(replay.acquire(0, span), 0u);
    ASSERT_TRUE(replay.next(0, rec));
    EXPECT_DEATH({ replay.skip(1); }, "assertion");
}

TEST(TraceSkipContract, SyntheticOverSkipDies)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    TraceRecord *span = nullptr;
    const std::size_t avail = src.acquire(0, span);
    ASSERT_GT(avail, 0u);
    EXPECT_DEATH({ src.skip(avail + 1); }, "assertion");
}

TEST(TraceSkipContract, SyntheticConsumedCountsNextAndSkip)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    EXPECT_EQ(src.consumed(), 0u);
    TraceRecord rec;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(src.next(0, rec));
    EXPECT_EQ(src.consumed(), 3u);
    TraceRecord *span = nullptr;
    ASSERT_GE(src.acquire(0, span), 5u);
    src.skip(5);
    EXPECT_EQ(src.consumed(), 8u);
    src.reset();
    EXPECT_EQ(src.consumed(), 0u);
}

TEST(TraceSkipContract, SyntheticSkipAfterNextDies)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    TraceRecord *span = nullptr;
    TraceRecord rec;
    ASSERT_GT(src.acquire(0, span), 0u);
    ASSERT_TRUE(src.next(0, rec));
    EXPECT_DEATH({ src.skip(1); }, "assertion");
}

TEST(TraceCache, BuildsOnceAndShares)
{
    TraceCache cache(std::uint64_t{1} << 30);
    int builds = 0;
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        ++builds;
        return std::make_shared<FakeEntry>(100);
    };
    auto a = cache.acquire("k", 0, build);
    auto b = cache.acquire("k", 0, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCache, PlanGrowsTheBuild)
{
    TraceCache cache(std::uint64_t{1} << 30);
    cache.plan("k", 500);
    cache.plan("k", 1200);
    std::uint64_t built_units = 0;
    cache.acquire("k", 10,
                  [&](std::uint64_t units) -> TraceCache::EntryPtr {
                      built_units = units;
                      return std::make_shared<FakeEntry>(1);
                  });
    // One build covers the largest planned demand, so every
    // point sharing the identity replays the same entry.
    EXPECT_EQ(built_units, 1200u);
}

TEST(TraceCache, TooSmallEntryIsRebuilt)
{
    TraceCache cache(std::uint64_t{1} << 30);
    int builds = 0;
    auto build = [&](std::uint64_t units) -> TraceCache::EntryPtr {
        ++builds;
        auto e = std::make_shared<FakeEntry>(1);
        e->bytes_ = units; // remember the size we were asked for
        return e;
    };
    cache.acquire("k", 100, build);
    auto big = cache.acquire("k", 200, build);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(
        std::static_pointer_cast<const FakeEntry>(big)->bytes_,
        200u);
}

TEST(TraceCache, EvictsLruWithinBudgetAndRegenerates)
{
    // Budget fits one 100-byte entry; unplanned keys are only
    // dropped by the budget sweep, oldest first.
    TraceCache cache(150);
    auto build100 = [](std::uint64_t) -> TraceCache::EntryPtr {
        return std::make_shared<FakeEntry>(100);
    };
    { auto a = cache.acquire("a", 0, build100); }
    EXPECT_EQ(cache.currentBytes(), 100u);
    { auto b = cache.acquire("b", 0, build100); }
    // Inserting b exceeded the budget: a (LRU, unpinned) left.
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.currentBytes(), 100u);
    { auto a = cache.acquire("a", 0, build100); }
    EXPECT_EQ(cache.stats().regenerations, 1u);
}

TEST(TraceCache, ZeroBudgetKeepsNothingPastItsLastHolder)
{
    // At budget 0 an entry lives only while someone holds it: a
    // second holder shares it, and the next acquire after the
    // last holder let go rebuilds it, even with no other build in
    // between.
    TraceCache cache(0);
    int builds = 0;
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        ++builds;
        return std::make_shared<FakeEntry>(100);
    };
    {
        auto a = cache.acquire("k", 0, build);
        auto b = cache.acquire("k", 0, build);
        EXPECT_EQ(a.get(), b.get());
    }
    EXPECT_EQ(builds, 1);
    auto c = cache.acquire("k", 0, build);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.stats().regenerations, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(TraceCache, PinnedEntriesAreNeverEvicted)
{
    TraceCache cache(150);
    auto build100 = [](std::uint64_t) -> TraceCache::EntryPtr {
        return std::make_shared<FakeEntry>(100);
    };
    auto a = cache.acquire("a", 0, build100); // held: pinned
    auto b = cache.acquire("b", 0, build100);
    // Over budget but everything is pinned: correctness first.
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.currentBytes(), 200u);
}

TEST(TraceCache, EagerReleaseAfterLastPlannedUse)
{
    TraceCache cache(std::uint64_t{1} << 30);
    cache.plan("k", 0);
    cache.plan("k", 0);
    auto build = [](std::uint64_t) -> TraceCache::EntryPtr {
        return std::make_shared<FakeEntry>(100);
    };
    auto a = cache.acquire("k", 0, build);
    EXPECT_EQ(cache.currentBytes(), 100u);
    auto b = cache.acquire("k", 0, build);
    // Second (last planned) use: the slot is dropped so resident
    // bytes track in-flight identities; consumers keep the entry
    // alive through their own references.
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.stats().released, 1u);
    EXPECT_EQ(a.get(), b.get());
}

TEST(TraceCache, ConcurrentAcquiresBuildExactlyOnce)
{
    TraceCache cache(std::uint64_t{1} << 30);
    std::atomic<int> builds{0};
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        builds.fetch_add(1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        return std::make_shared<FakeEntry>(100);
    };
    std::vector<TraceCache::EntryPtr> got(8);
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&, t] {
            got[t] = cache.acquire("k", 0, build);
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
}

TEST(TraceCache, BuilderFailurePropagatesAndRetries)
{
    TraceCache cache(std::uint64_t{1} << 30);
    EXPECT_THROW(cache.acquire("k", 0,
                               [](std::uint64_t)
                                   -> TraceCache::EntryPtr {
                                   throw std::runtime_error(
                                       "boom");
                               }),
                 std::runtime_error);
    // The failed slot must not wedge the key.
    auto ok = cache.acquire(
        "k", 0, [](std::uint64_t) -> TraceCache::EntryPtr {
            return std::make_shared<FakeEntry>(1);
        });
    EXPECT_NE(ok, nullptr);
}

TEST(TraceCache, WaitEndsAtTheWaitersDeadline)
{
    TraceCache cache(std::uint64_t{1} << 30);
    std::atomic<bool> started{false}, release{false};
    std::atomic<int> builds{0};
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        builds.fetch_add(1);
        started = true;
        while (!release)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::make_shared<FakeEntry>(100);
    };
    std::thread builder([&] { cache.acquire("k", 0, build); });
    while (!started)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // The waiter gives up at its deadline; the build goes on.
    EXPECT_THROW(cache.acquire("k", 0, build,
                               std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(20)),
                 PointCancelledError);
    release = true;
    builder.join();
    EXPECT_NE(cache.acquire("k", 0, build), nullptr);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.stats().waits, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TraceCache, CancelledBuildIsRebuiltByTheNextWaiter)
{
    // A build cancelled by its own point's deadline fails like
    // any builder: the slot goes, and a waiter with time left
    // builds the key itself.
    TraceCache cache(std::uint64_t{1} << 30);
    std::atomic<int> builds{0};
    std::thread first([&] {
        EXPECT_THROW(
            cache.acquire("k", 0,
                          [&](std::uint64_t) -> TraceCache::EntryPtr {
                              builds.fetch_add(1);
                              while (cache.stats().waits == 0)
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(1));
                              throwIfCancelled(
                                  std::chrono::steady_clock::now());
                              return nullptr;
                          }),
            PointCancelledError);
    });
    while (builds.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const TraceCache::EntryPtr got = cache.acquire(
        "k", 0, [&](std::uint64_t) -> TraceCache::EntryPtr {
            builds.fetch_add(1);
            return std::make_shared<FakeEntry>(100);
        });
    first.join();
    EXPECT_NE(got, nullptr);
    EXPECT_EQ(builds.load(), 2);
    EXPECT_EQ(cache.stats().buildFailures, 1u);
}

TEST(WarmupArtifact, ApplyMatchesInBandWarmup)
{
    // An arena's artifact replayed with the trace seekTo()'d past
    // the window must leave a pod bit-identical to run()'s warmup,
    // whose pass reads the live trace source and leaves it
    // positioned — measured metrics included.
    const std::uint64_t warm = 120'000;
    const std::uint64_t measure = 40'000;
    auto arena = materialize(warm + measure, 99);

    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 64;

    ReplayTraceSource inband_trace(arena);
    Experiment inband(cfg, inband_trace);
    inband.run(warm, 0);
    RunMetrics m1 = inband.run(0, measure);

    auto artifact = PodSystem::buildWarmupArtifact(
        *arena, cfg.pod.hierarchy, warm);
    EXPECT_EQ(artifact->records, warm);
    EXPECT_GT(artifact->paddr.size(), 0u);
    EXPECT_GT(artifact->cacheBytes(), 0u);

    ReplayTraceSource replay_trace(arena);
    Experiment replayed(cfg, replay_trace);
    replayed.pod().applyWarmup(*artifact);
    replay_trace.seekTo(warm);
    RunMetrics m2 = replayed.run(0, measure);

    EXPECT_EQ(fieldDiff(PodCounters::kCounters, m1, m2), "");
}

TEST(WarmupArtifact, SharedAcrossDesignsViaRunPoint)
{
    // Two designs sharing a trace and a warm window must produce
    // identical results whether the second replays the first's
    // arena and warmup artifact (one shared cache) or each point
    // regenerates both (a runner at a one-byte budget).
    std::vector<ExperimentPoint> points;
    for (const char *design : {"footprint", "page"}) {
        ExperimentPoint p;
        p.experiment = "unit";
        p.workload = WorkloadKind::WebSearch;
        p.cfg.design = design;
        p.cfg.capacityMb = 64;
        p.scale = 0.02;
        p.label = standardLabel(p.workload, p.cfg);
        points.push_back(p);
    }
    const SweepOutcome regenerated =
        SweepRunner(1, {.budgetBytes = 1})
            .runResilient(points, ResilienceOptions{});
    EXPECT_EQ(regenerated.cache.hits, 0u);
    EXPECT_EQ(regenerated.cache.regenerations, 2u);

    TraceCache cache(std::uint64_t{4} << 30);
    for (std::size_t i = 0; i < points.size(); ++i) {
        ExperimentPoint p = points[i];
        const char *design = p.cfg.design.c_str();
        const PointResult &plain = regenerated.results[i];
        p.traceCache = &cache;
        PointResult cached = runPoint(p);

        ASSERT_FALSE(plain.failed) << plain.error;
        EXPECT_EQ(plain.metrics.cycles, cached.metrics.cycles)
            << design;
        EXPECT_EQ(plain.metrics.instructions,
                  cached.metrics.instructions)
            << design;
        EXPECT_EQ(plain.metrics.demandHits,
                  cached.metrics.demandHits)
            << design;
        EXPECT_EQ(plain.covered, cached.covered) << design;
        EXPECT_TRUE(cached.timing.replayedTrace) << design;
        EXPECT_TRUE(cached.timing.replayedWarmup) << design;
        EXPECT_TRUE(plain.timing.generatedTrace) << design;
        EXPECT_TRUE(plain.timing.builtWarmup) << design;
    }
    // One arena, one artifact: the second design hit both.
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
}

} // namespace
} // namespace fpc
