/**
 * @file
 * Hostile input for the sweep journal parser: forged element
 * counts must be rejected without count-sized allocations, and a
 * seeded byte-mutation run over a full entry must never crash —
 * every mutant is either rejected or parses to an entry that
 * re-serializes and re-parses to itself. Doubles the writer
 * never emits (non-finite or out of range) are rejected, and a
 * golden v6 entry pins the on-disk bytes across builds.
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
        // A counter past 2^64 - 1 that strtoull would saturate.
        {"\nmetrics 1000 ", "\nmetrics 99999999999999999999999 "},
        // Doubles the writer never emits (non-finite or out of
        // range): a resumed report would render them as invalid
        // JSON.
        {"\nextras 0", "\nextras 1\nextra inf 1 x"},
        {"\nextras 0", "\nextras 1\nextra -inf 1 x"},
        {"\nextras 0", "\nextras 1\nextra nan 1 x"},
        {"\nextras 0", "\nextras 1\nextra 1e999 1 x"},
        {"\nstatus 0 1 0x0p+0", "\nstatus 0 1 inf"},
        {"\nstatus 0 1 0x0p+0", "\nstatus 0 1 0x1p+1024"},
        {"\nopts 0x1.999999999999ap-4", "\nopts nan"},
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
    // The smallest subnormal and the largest-magnitude finite
    // double: extremes the writer emits and the reader accepts.
    r.extra = {{"lat_p50", 12.5},
               {"odd name\n", -0.0},
               {"tiny", 0x1p-1074},
               {"huge", -0x1.fffffffffffffp+1023}};
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

/**
 * One v6 entry exactly as an earlier build wrote it, with every
 * section non-empty: two tenants, extras, an error string with a
 * newline, intervals with tenant slices and probe values, probe
 * names and a heatmap with one DRAM grid. The round-trip tests
 * compare a build only with itself; this text pins the on-disk
 * bytes across builds. A change that breaks it is a format
 * change: bump the journal magic and write a new golden entry.
 */
const char *const kGoldenV6 =
    "fpcjournal 6\n"
    "key golden/WebSearch/footprint\n"
    "opts 0x1.999999999999ap-4 42\n"
    "telemetry 20000 1 64 1 1 1048576\n"
    "sampling 1 10 4000 1000 0x1.999999999999ap-5 4\n"
    "status 1 2 0x1.8p+0\n"
    "error 26 boom: \"quoted\"\n"
    "second line\n"
    "metrics 1 2 3 4 5 6 7 8 9 10 11\n"
    "energy 0x1p-2 0x1.5555555555555p-2 0x1.4p+0 0x1.cp+0\n"
    "tenants 2\n"
    "tenant 12 13 14 15 16 17 18\n"
    "tenant 19 20 21 22 23 24 25\n"
    "footprint 1 5 6 7 8 9 10\n"
    "density 3 1 2 3\n"
    "extras 2\n"
    "extra 0x1.9p+3 7 lat_p50\n"
    "extra -0x0p+0 8 odd name\n"
    "timing 0x1p-2 0x1p-1 0x1.8p-1 1 0 0 1 1 0x1p-3 0x1.4p-1\n"
    "intervals 2\n"
    "interval 26 27 28 29 30 31 32 33 34 35 36 2\n"
    "itenant 37 38 39 40 41 42 43\n"
    "itenant 44 45 46 47 48 49 50\n"
    "iprobe 2 51 52\n"
    "interval 53 54 55 56 57 58 59 60 61 62 63 2\n"
    "itenant 64 65 66 67 68 69 70\n"
    "itenant 71 72 73 74 75 76 77\n"
    "iprobe 2 78 79\n"
    "probenames 2\n"
    "pname 12 intro.demand\n"
    "pname 8 fht.hits\n"
    "probevals 2 11 22\n"
    "heatmap 1 4096 2048 2\n"
    "haccess 1 2\n"
    "hconflict 3 4\n"
    "hoccupancy 5 6\n"
    "hdrams 1\n"
    "hdram 1 2 7 stacked\n"
    "hacts 7 8\n"
    "hreads 9 10\n"
    "hwrites 11 12\n"
    "end\n";

TEST(JournalParse, GoldenV6EntryReserializesByteForByte)
{
    std::string key;
    JournalEntry e;
    ASSERT_TRUE(SweepJournal::parse(kGoldenV6, key, e));
    EXPECT_EQ(key, "golden/WebSearch/footprint");
    const PointResult &r = e.result;
    EXPECT_EQ(e.sampling.targetCi, 0.05);
    EXPECT_EQ(r.error, "boom: \"quoted\"\nsecond line");
    EXPECT_EQ(r.metrics.offchipBurstNj, 1.0 / 3.0);
    ASSERT_EQ(r.metrics.tenants.size(), 2u);
    ASSERT_EQ(r.intervals.size(), 2u);
    ASSERT_EQ(r.intervals[1].tenants.size(), 2u);
    EXPECT_EQ(r.intervals[1].probeValues,
              (std::vector<std::uint64_t>{78, 79}));
    ASSERT_EQ(r.extra.size(), 2u);
    EXPECT_EQ(r.extra[1].first, "odd name");
    EXPECT_EQ(r.probeNames,
              (std::vector<std::string>{"intro.demand",
                                        "fht.hits"}));
    ASSERT_EQ(r.heatmap.drams.size(), 1u);
    EXPECT_EQ(r.heatmap.drams[0].writes,
              (std::vector<std::uint64_t>{11, 12}));
    EXPECT_EQ(SweepJournal::serialize(key, e), kGoldenV6);
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
