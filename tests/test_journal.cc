/**
 * @file
 * Hostile input for the sweep journal parser: forged element
 * counts must be rejected without count-sized allocations, and a
 * seeded byte-mutation run over a full entry must never crash —
 * every mutant is either rejected or parses to an entry that
 * re-serializes and re-parses to itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/journal.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPC_TEST_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define FPC_TEST_ASAN 1
#endif

namespace {

/** Allocation accounting while `tracking` is up (one thread). */
struct AllocStats
{
    std::atomic<bool> tracking{false};
    std::atomic<std::size_t> largest{0};
    std::atomic<std::size_t> total{0};
};
AllocStats g_alloc;

/** Any single request above this while tracking is a failure:
 * refusing it keeps a regressed parser from paging in gigabytes
 * before the test can report. */
constexpr std::size_t kRefuseBytes = std::size_t{64} << 20;

} // namespace

#ifdef FPC_TEST_ASAN
// The sanitizer owns operator new; cap single allocations through
// its options instead (an oversized request aborts the test).
extern "C" const char *
__asan_default_options()
{
    return "max_allocation_size_mb=64";
}
#else
// GCC flags free() on operator new's result once the replacement
// pair inlines; both sides use malloc/free, so the pair matches.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    if (g_alloc.tracking.load(std::memory_order_relaxed)) {
        g_alloc.total += n;
        std::size_t prev = g_alloc.largest.load();
        while (n > prev &&
               !g_alloc.largest.compare_exchange_weak(prev, n)) {
        }
        if (n > kRefuseBytes)
            throw std::bad_alloc();
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

namespace fpc {
namespace {

/** A small entry with every section present but empty. */
std::string
minimalEntry()
{
    JournalEntry e;
    e.scale = 0.1;
    e.baseSeed = 42;
    e.result.metrics.instructions = 1000;
    e.result.metrics.cycles = 500;
    return SweepJournal::serialize("unit/a", e);
}

TEST(JournalParse, ForgedCountsRejectedWithoutLargeAllocation)
{
    const std::string good = minimalEntry();
    std::string key;
    JournalEntry e;
    ASSERT_TRUE(SweepJournal::parse(good, key, e));

    // Each forged element count is within the parser's
    // per-section limit, so only the missing elements can reject
    // it.
    const std::pair<const char *, const char *> forgeries[] = {
        {"\nintervals 0", "\nintervals 16777215"},
        {"\ntenants 0", "\ntenants 4096"},
        {"\ndensity 0", "\ndensity 1048576"},
        {"\nextras 0", "\nextras 1048576"},
        {"\nprobenames 0", "\nprobenames 65536"},
        {"\nprobevals 0", "\nprobevals 65536"},
        {"\nheatmap 0 0 0 0", "\nheatmap 0 0 0 65536"},
        {"\nhdrams 0", "\nhdrams 64\nhdram 4096 4096 1 x"},
        // A string length that would wrap the cursor, and an
        // attempt count that would truncate to a valid one.
        {"\nerror 0 ", "\nerror 18446744073709551615 "},
        {"\nstatus 0 1 ", "\nstatus 0 4294967297 "},
    };
    for (const auto &[from, to] : forgeries) {
        std::string forged = good;
        const std::size_t at = forged.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        forged.replace(at, std::string(from).size(), to);

        g_alloc.largest = 0;
        g_alloc.total = 0;
        g_alloc.tracking = true;
        const bool parsed = SweepJournal::parse(forged, key, e);
        g_alloc.tracking = false;
        EXPECT_FALSE(parsed) << to;
#ifndef FPC_TEST_ASAN
        // A handful of small vectors and strings, nowhere near
        // the count times the element size.
        EXPECT_LT(g_alloc.largest.load(), std::size_t{1} << 16)
            << to;
        EXPECT_LT(g_alloc.total.load(), std::size_t{1} << 20)
            << to;
#endif
    }
}

/** A full entry: tenants, intervals, probes, heatmap, extras. */
JournalEntry
fullEntry()
{
    std::uint64_t next = 7;
    const auto fill = [&next](const auto &fields, auto &block) {
        for (const auto &f : fields)
            block.*f.member = next++ * 977;
    };
    JournalEntry e;
    e.scale = 0.1;
    e.baseSeed = 42;
    PointResult &r = e.result;
    fill(PodCounters::kCounters, r.metrics);
    fill(RunMetrics::kEnergy, r.metrics);
    r.metrics.offchipBurstNj = 1.0 / 3.0;
    r.metrics.tenants.resize(2);
    for (TenantMetrics &t : r.metrics.tenants)
        fill(TenantMetrics::kCounters, t);
    r.probeNames = {"intro.demand", "fht.hits", "map q"};
    r.metrics.probeValues = {11, 22, 33};
    for (int i = 0; i < 3; ++i) {
        IntervalSample iv;
        fill(PodCounters::kCounters, iv);
        iv.tenants.resize(2);
        for (TenantMetrics &t : iv.tenants)
            fill(TenantMetrics::kCounters, t);
        iv.probeValues = {next++, next++, next++};
        r.intervals.push_back(std::move(iv));
    }
    r.hasFootprint = true;
    r.covered = 5;
    r.overpred = 6;
    r.densityBuckets = {1, 2, 3, 4};
    r.extra = {{"lat_p50", 12.5}, {"odd name\n", -0.0}};
    r.timing.traceSeconds = 0.25;
    r.timing.sampled = true;
    r.attempts = 2;
    r.failed = true;
    r.error = "boom: \"quoted\"\nsecond line";
    HeatmapData &hm = r.heatmap;
    hm.valid = true;
    hm.numSets = 4096;
    hm.setsPerBin = 1024;
    hm.setAccess = {1, 2, 3, 4};
    hm.setConflict = {0, 1, 0, 1};
    hm.setOccupancy = {9, 9, 9, 9};
    for (const char *name : {"stacked", "offchip"}) {
        HeatmapData::DramGrid g;
        g.name = name;
        g.channels = 2;
        g.banks = 2;
        g.activates = {1, 2, 3, 4};
        g.reads = {5, 6, 7, 8};
        g.writes = {9, 10, 11, 12};
        hm.drams.push_back(std::move(g));
    }
    return e;
}

TEST(JournalParse, FullEntryReserializesIdentically)
{
    const std::string text =
        SweepJournal::serialize("fig06/x/footprint", fullEntry());
    std::string key;
    JournalEntry e;
    ASSERT_TRUE(SweepJournal::parse(text, key, e));
    EXPECT_EQ(key, "fig06/x/footprint");
    EXPECT_EQ(SweepJournal::serialize(key, e), text);
}

TEST(JournalParse, SeededMutantsRejectedOrStable)
{
    const std::string base =
        SweepJournal::serialize("fig06/x/footprint", fullEntry());
    // Inserted bytes favor the journal's own alphabet so that
    // many mutants stay parseable and exercise the accept path.
    const std::string alphabet = "0123456789 \nx.-+pa";
    std::mt19937_64 rng(0x6a6f75726e616cULL);
    const auto below = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };

    int accepted = 0;
    const int kMutants = 20000;
    for (int m = 0; m < kMutants; ++m) {
        std::string t = base;
        const std::size_t edits = 1 + below(4);
        for (std::size_t i = 0; i < edits && !t.empty(); ++i) {
            const std::size_t pos = below(t.size());
            switch (below(8)) {
            case 0:
            case 1:
            case 2: // bit flip
                t[pos] = static_cast<char>(
                    t[pos] ^ (1u << below(8)));
                break;
            case 3:
            case 4: // insert
                t.insert(pos, 1,
                         below(2) ? alphabet[below(alphabet.size())]
                                  : static_cast<char>(below(256)));
                break;
            case 5:
            case 6: // delete a short run
                t.erase(pos, 1 + below(8));
                break;
            default: // truncate
                t.resize(pos);
                break;
            }
        }

        std::string key;
        JournalEntry e;
        if (!SweepJournal::parse(t, key, e))
            continue;
        ++accepted;
        const std::string once = SweepJournal::serialize(key, e);
        std::string key2;
        JournalEntry e2;
        ASSERT_TRUE(SweepJournal::parse(once, key2, e2))
            << "mutant " << m << " re-serialized unparseably";
        EXPECT_EQ(key2, key) << "mutant " << m;
        EXPECT_EQ(SweepJournal::serialize(key2, e2), once)
            << "mutant " << m;
    }
    // Both paths ran: most mutants are corruption, some are data.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutants);
}

} // namespace
} // namespace fpc
