/** @file Unit tests for the deterministic RNG and the alias-method
 * Zipf sampler. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "workload/spec.hh"

namespace fpc {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ |= (a.next() != b.next());
    EXPECT_TRUE(differ);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(19);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Zipf, SingleElement)
{
    Rng r(1);
    AliasZipfSampler z(1, 1.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z(r), 0u);
}

TEST(Zipf, UniformWhenExponentZero)
{
    Rng r(23);
    AliasZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
}

TEST(Zipf, InRange)
{
    Rng r(29);
    AliasZipfSampler z(1000, 0.8);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z(r), 1000u);
}

/** Head items must be sampled more often than tail items. */
class ZipfSkew : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkew, HeadBeatsTail)
{
    Rng r(31);
    const std::uint64_t n = 10000;
    AliasZipfSampler z(n, GetParam());
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 200000; ++i) {
        std::uint64_t v = z(r);
        if (v < n / 10)
            ++head;
        if (v >= 9 * n / 10)
            ++tail;
    }
    EXPECT_GT(head, tail);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSkew,
                         ::testing::Values(0.3, 0.6, 0.9, 1.0,
                                           1.2));

using Tables = AliasZipfSampler::Tables;

/** Reference copy of the two-stack Vose construction that
 * AliasZipfSampler::buildTables must reproduce bit for bit. */
struct StackVose
{
    std::vector<std::uint64_t> thresh;
    std::vector<std::uint32_t> alias;
    /** Indices left on each stack when the pairing stopped. */
    std::size_t leftSmall = 0, leftLarge = 0;
};

std::uint64_t
stackThreshold(double p)
{
    if (p >= 1.0)
        return ~std::uint64_t{0};
    if (p <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(p * 0x1p64);
}

StackVose
stackVose(std::uint64_t n, double s)
{
    StackVose out;
    std::vector<double> scaled(n);
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        scaled[i] = std::pow(static_cast<double>(i + 1), -s);
        total += scaled[i];
    }
    const double scale = static_cast<double>(n) / total;
    for (double &p : scaled)
        p *= scale;

    out.thresh.resize(n);
    out.alias.resize(n);
    std::vector<std::uint32_t> small, large;
    for (std::uint64_t i = 0; i < n; ++i) {
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s_idx = small.back();
        small.pop_back();
        const std::uint32_t l_idx = large.back();
        large.pop_back();
        out.thresh[s_idx] = stackThreshold(scaled[s_idx]);
        out.alias[s_idx] = l_idx;
        scaled[l_idx] = (scaled[l_idx] + scaled[s_idx]) - 1.0;
        (scaled[l_idx] < 1.0 ? small : large).push_back(l_idx);
    }
    out.leftSmall = small.size();
    out.leftLarge = large.size();
    for (std::uint32_t i : large) {
        out.thresh[i] = ~std::uint64_t{0};
        out.alias[i] = i;
    }
    for (std::uint32_t i : small) {
        out.thresh[i] = ~std::uint64_t{0};
        out.alias[i] = i;
    }
    return out;
}

/** buildTables(n, s) equals the stack build element for element. */
void
expectStackTables(std::uint64_t n, double s)
{
    SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
    const StackVose want = stackVose(n, s);
    const auto got = AliasZipfSampler::buildTables(n, s);
    ASSERT_EQ(got->thresh.size(), n);
    ASSERT_EQ(got->alias.size(), n);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (got->thresh[i] != want.thresh[i] ||
            got->alias[i] != want.alias[i]) {
            if (++mismatches <= 5) {
                ADD_FAILURE() << "index " << i << ": thresh "
                              << got->thresh[i] << " vs "
                              << want.thresh[i] << ", alias "
                              << got->alias[i] << " vs "
                              << want.alias[i];
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

/** Every (n, s) the workload presets build: each dataset's page
 * sampler and Multiprogrammed's hot-set sampler, whose exponent
 * is the generator's fixed 0.8. */
TEST(AliasZipfTables, MatchStackBuildOnPresetPairs)
{
    std::set<std::pair<std::uint64_t, double>> pairs;
    for (WorkloadKind kind : kAllWorkloads) {
        const WorkloadSpec spec = makeWorkload(kind);
        pairs.emplace(spec.datasetPages, spec.zipfS);
        if (spec.hotPages > 0)
            pairs.emplace(spec.hotPages, 0.8);
    }
    EXPECT_TRUE(pairs.count({220'000, 0.8}));
    for (const auto &[n, s] : pairs)
        expectStackTables(n, s);
}

TEST(AliasZipfTables, MatchStackBuildOnDegenerateInputs)
{
    expectStackTables(1, 0.5);
    expectStackTables(2, 0.5);
    expectStackTables(2, 3.0);
    expectStackTables(1000, 0.0);
    expectStackTables(65, 0.9);
}

/** At n=3, s=0.3 the pairing stops with an index on the small stack
 * whose weight is a rounding residue below one: it keeps
 * probability one. */
TEST(AliasZipfTables, LeftoversGetProbabilityOne)
{
    const StackVose want = stackVose(3, 0.3);
    ASSERT_EQ(want.leftSmall, 1u);
    expectStackTables(3, 0.3);
    const auto got = AliasZipfSampler::buildTables(3, 0.3);
    unsigned kept = 0;
    for (std::uint32_t i = 0; i < 3; ++i) {
        if (got->thresh[i] == ~std::uint64_t{0}) {
            EXPECT_EQ(got->alias[i], i);
            ++kept;
        }
    }
    EXPECT_GE(kept, 1u);
}

/** Threads asking for one (n, s) wait on a single build and share
 * its tables. */
TEST(AliasZipfShared, SameKeyBuildsOnce)
{
    constexpr int kThreads = 6;
    std::atomic<int> builds{0};
    std::vector<std::shared_ptr<const Tables>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = AliasZipfSampler::sharedTables(
                4099, 0.55, [&](std::uint64_t n, double s) {
                    ++builds;
                    // Hold the build open so the other threads
                    // find it in flight.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return AliasZipfSampler::buildTables(n, s);
                });
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    ASSERT_NE(got[0], nullptr);
    for (const auto &g : got)
        EXPECT_EQ(g.get(), got[0].get());
    EXPECT_EQ(got[0]->thresh.size(), 4099u);
}

/** Builds of distinct (n, s) pairs overlap: each builder waits for
 * the other to start, which a build run under the cache's lock
 * would never let happen. */
TEST(AliasZipfShared, DistinctKeysBuildConcurrently)
{
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    bool overlapped[2] = {false, false};
    const auto builder = [&](int me) {
        return [&, me](std::uint64_t n, double s) {
            {
                std::unique_lock<std::mutex> lock(mu);
                ++started;
                cv.notify_all();
                overlapped[me] =
                    cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return started == 2; });
            }
            return AliasZipfSampler::buildTables(n, s);
        };
    };
    std::shared_ptr<const Tables> a, b;
    std::thread ta([&] {
        a = AliasZipfSampler::sharedTables(3001, 0.45, builder(0));
    });
    std::thread tb([&] {
        b = AliasZipfSampler::sharedTables(3002, 0.45, builder(1));
    });
    ta.join();
    tb.join();
    EXPECT_TRUE(overlapped[0]);
    EXPECT_TRUE(overlapped[1]);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->thresh.size(), 3001u);
    EXPECT_EQ(b->thresh.size(), 3002u);
}

TEST(Mix64, DifferentInputsScatter)
{
    // A weak avalanche check: neighbours must not collide.
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_NE(mix64(i), mix64(i + 1));
}

} // namespace
} // namespace fpc
