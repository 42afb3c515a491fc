/** @file Unit tests for the synthetic workload engine. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/analysis.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

WorkloadSpec
tinySpec()
{
    WorkloadSpec w;
    w.name = "tiny";
    w.datasetPages = 1000;
    w.zipfS = 0.5;
    w.writeFraction = 0.3;
    w.repeatsMin = 1;
    w.repeatsMax = 2;
    w.gapMin = 1;
    w.gapMax = 4;
    w.seed = 7;
    PageClassSpec c;
    c.name = "c";
    c.weight = 1.0;
    c.minDensity = 4;
    c.maxDensity = 8;
    c.numPatterns = 4;
    c.burstBlocks = 2;
    c.spreadRecords = 50;
    w.classes = {c};
    return w;
}

TEST(Workload, AllPresetsConstruct)
{
    for (WorkloadKind kind : kAllWorkloads) {
        WorkloadSpec spec = makeWorkload(kind);
        EXPECT_FALSE(spec.classes.empty());
        EXPECT_STREQ(spec.name.c_str(), workloadName(kind));
        double total = 0;
        for (const auto &c : spec.classes)
            total += c.weight;
        EXPECT_NEAR(total, 1.0, 1e-9);
        SyntheticTraceSource src(spec);
        TraceRecord r;
        for (int i = 0; i < 1000; ++i)
            ASSERT_TRUE(src.next(0, r));
    }
}

TEST(Workload, DeterministicForSameSeed)
{
    SyntheticTraceSource a(tinySpec());
    SyntheticTraceSource b(tinySpec());
    TraceRecord ra, rb;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(0, ra));
        ASSERT_TRUE(b.next(0, rb));
        EXPECT_EQ(ra.req.paddr, rb.req.paddr);
        EXPECT_EQ(ra.req.pc, rb.req.pc);
        EXPECT_EQ(ra.computeGap, rb.computeGap);
    }
}

TEST(Workload, DifferentSeedsDiffer)
{
    WorkloadSpec s1 = tinySpec(), s2 = tinySpec();
    s2.seed = 8;
    SyntheticTraceSource a(s1), b(s2);
    TraceRecord ra, rb;
    bool differ = false;
    for (int i = 0; i < 100; ++i) {
        a.next(0, ra);
        b.next(0, rb);
        differ |= (ra.req.paddr != rb.req.paddr);
    }
    EXPECT_TRUE(differ);
}

TEST(Workload, GapsAndOpsWithinSpec)
{
    WorkloadSpec spec = tinySpec();
    SyntheticTraceSource src(spec);
    TraceRecord r;
    unsigned writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(src.next(0, r));
        EXPECT_GE(r.computeGap, spec.gapMin);
        EXPECT_LE(r.computeGap, spec.gapMax);
        writes += (r.req.op == MemOp::Write) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n,
                spec.writeFraction, 0.05);
}

TEST(Workload, PageDensityWithinClassBounds)
{
    // Collect demanded blocks per page over a long stream; the
    // per-page footprint must stay within [min, max+noise].
    WorkloadSpec spec = tinySpec();
    spec.classes[0].noiseProb = 0.0;
    SyntheticTraceSource src(spec);
    std::map<Addr, std::set<unsigned>> touched;
    TraceRecord r;
    for (int i = 0; i < 100000; ++i) {
        src.next(0, r);
        touched[r.req.paddr / 2048].insert(
            static_cast<unsigned>((r.req.paddr % 2048) / 64));
    }
    for (const auto &kv : touched) {
        EXPECT_GE(kv.second.size(), 1u);
        // Header re-touches add no new blocks; footprint bounded
        // by maxDensity.
        EXPECT_LE(kv.second.size(),
                  spec.classes[0].maxDensity);
    }
}

TEST(Workload, SameFirstAccessKeyImpliesSameFootprint)
{
    // Pages of one pattern must replay identical (shifted)
    // footprints: group pages by (trigger PC, trigger offset) and
    // check the footprints match — this is the property the FHT
    // learns (§3.1).
    WorkloadSpec spec = tinySpec();
    spec.classes[0].noiseProb = 0.0;
    spec.classes[0].spreadRecords = 5; // visits finish quickly
    SyntheticTraceSource src(spec);
    struct PageInfo
    {
        Pc firstPc = 0;
        unsigned firstOff = 0;
        std::set<unsigned> blocks;
        bool started = false;
    };
    std::map<Addr, PageInfo> pages;
    TraceRecord r;
    for (int i = 0; i < 200000; ++i) {
        src.next(0, r);
        Addr page = r.req.paddr / 2048;
        unsigned off =
            static_cast<unsigned>((r.req.paddr % 2048) / 64);
        PageInfo &info = pages[page];
        if (!info.started) {
            info.started = true;
            info.firstPc = r.req.pc;
            info.firstOff = off;
        }
        info.blocks.insert(off);
    }
    // Group by key; footprints within a group must be identical.
    std::map<std::pair<Pc, unsigned>, std::set<unsigned>> by_key;
    unsigned checked = 0;
    for (const auto &kv : pages) {
        auto key = std::make_pair(kv.second.firstPc,
                                  kv.second.firstOff);
        auto it = by_key.find(key);
        if (it == by_key.end()) {
            by_key[key] = kv.second.blocks;
        } else if (kv.second.blocks.size() ==
                   it->second.size()) {
            // Completed visits of the same key: same footprint.
            EXPECT_EQ(kv.second.blocks, it->second);
            ++checked;
        }
    }
    EXPECT_GT(checked, 10u);
}

TEST(Workload, ScanClassesNeverRevisitPages)
{
    WorkloadSpec w = tinySpec();
    w.classes[0].scan = true;
    w.classes[0].spreadRecords = 3;
    SyntheticTraceSource src(w);
    // Scan pages live beyond datasetPages and are fresh; once a
    // visit's page number stops appearing it never returns.
    TraceRecord r;
    std::map<Addr, int> last_seen;
    for (int i = 0; i < 50000; ++i) {
        src.next(0, r);
        last_seen[r.req.paddr / 2048] = i;
    }
    // All pages are beyond the dataset (scan region).
    for (const auto &kv : last_seen)
        EXPECT_GE(kv.first, w.datasetPages);
}

TEST(Workload, HotSetConcentratesAccesses)
{
    WorkloadSpec w = tinySpec();
    w.hotPages = 50;
    w.hotFraction = 0.8;
    SyntheticTraceSource src(w);
    TraceRecord r;
    unsigned hot = 0, total = 0;
    for (int i = 0; i < 50000; ++i) {
        src.next(0, r);
        Addr page = r.req.paddr / 2048;
        if (page < 50)
            ++hot;
        ++total;
    }
    EXPECT_GT(static_cast<double>(hot) / total, 0.5);
}

TEST(Workload, PageSizeScalesFootprints)
{
    WorkloadSpec w1 = makeWorkload(WorkloadKind::WebSearch, 1024);
    WorkloadSpec w4 = makeWorkload(WorkloadKind::WebSearch, 4096);
    for (const auto &c : w1.classes)
        EXPECT_LE(c.maxDensity, 16u);
    bool any_large = false;
    for (const auto &c : w4.classes)
        any_large |= c.maxDensity > 32;
    EXPECT_TRUE(any_large);
}

TEST(AccessCounting, HotPageCoverage)
{
    AccessCountingMemory mem(4096);
    MemRequest r;
    r.op = MemOp::Read;
    // Page 0: 80 accesses; pages 1..20: 1 access each.
    for (int i = 0; i < 80; ++i) {
        r.paddr = 0x100;
        mem.access(0, r);
    }
    for (int i = 1; i <= 20; ++i) {
        r.paddr = static_cast<Addr>(i) * 4096;
        mem.access(0, r);
    }
    EXPECT_EQ(mem.distinctPages(), 21u);
    // 80% of 100 accesses = 80: one page suffices.
    EXPECT_NEAR(mem.idealCacheSizeMb(0.8), 4096.0 / (1 << 20),
                1e-9);
    // 90% needs 1 + 10 pages.
    EXPECT_NEAR(mem.idealCacheSizeMb(0.9),
                11.0 * 4096 / (1 << 20), 1e-9);
}

} // namespace
} // namespace fpc
