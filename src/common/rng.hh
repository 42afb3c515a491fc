/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All simulations must be reproducible bit-for-bit across runs, so we
 * avoid std::mt19937's unspecified distribution implementations and
 * provide our own xoshiro256** generator plus the distributions the
 * workload models need (uniform, bernoulli, Zipf).
 */

#ifndef FPC_COMMON_RNG_HH
#define FPC_COMMON_RNG_HH

#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <vector>

#include "common/huge_pages.hh"
#include "common/logging.hh"

namespace fpc {

/** splitmix64 step, used for seeding and hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix, handy as a hash for table indexing. */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over a byte string: the stable hash of point keys,
 * trace identities and fault-plan gates. */
constexpr std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * xoshiro256** — fast, high-quality 64-bit PRNG (Blackman/Vigna).
 * Deterministically seeded from a single 64-bit value.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Raw 64 random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        FPC_ASSERT(bound > 0);
        // Lemire's multiply-shift rejection-free-enough variant.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        FPC_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Alias-method Zipf sampler (Walker/Vose) over {0, .., n-1} with
 * exponent s. Table construction is O(n) with one pow() per item;
 * every draw afterwards is O(1) from a single 64-bit random value,
 * with no transcendental math and no rejection loop. The tables
 * keep 12 bytes per item (an 8-byte threshold and a 4-byte alias);
 * building them takes an n-bit class mask on top, so 12.125 bytes
 * per item at peak. Tables are shared process-wide per (n, s).
 */
class AliasZipfSampler
{
  public:
    /** Immutable alias tables for one (n, s) distribution. */
    struct Tables
    {
        std::vector<std::uint64_t> thresh;
        std::vector<std::uint32_t> alias;
    };

    AliasZipfSampler(std::uint64_t n, double s) : n_(n), s_(s)
    {
        FPC_ASSERT(n >= 1);
        FPC_ASSERT(n < (1ULL << 32));
        FPC_ASSERT(s >= 0.0);
        if (s_ > 0.0 && n_ > 1)
            tables_ = sharedTables(n_, s_, buildTables);
    }

    /** Draw one rank in [0, n). Rank 0 is the most popular item. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        // Split one 64-bit draw into a bucket index (high part of
        // the 128-bit product, Lemire reduction) and the alias
        // coin (low part, uniform over [0, 2^64) at granularity n:
        // an error of at most n/2^64 per threshold comparison).
        const __uint128_t m =
            static_cast<__uint128_t>(rng.next()) * n_;
        const std::uint64_t idx = static_cast<std::uint64_t>(m >> 64);
        if (s_ == 0.0)
            return idx;
        const std::uint64_t coin = static_cast<std::uint64_t>(m);
        return coin < tables_->thresh[idx] ? idx
                                           : tables_->alias[idx];
    }

    std::uint64_t n() const { return n_; }
    double exponent() const { return s_; }

    /**
     * The tables of (@p n, @p s), built by @p build(n, s) unless a
     * live copy exists. Table construction is O(n) with a pow()
     * per item — ~10^8 ns-scale operations for the multi-million-
     * page datasets — and the same (n, s) pair recurs across every
     * design × mode run of a sweep, so built tables are shared
     * process-wide. Samplers pass buildTables; tests pass a
     * builder that observes the calls.
     */
    template <class Build>
    static std::shared_ptr<const Tables>
    sharedTables(std::uint64_t n, double s, Build &&build)
    {
        // The mutex only guards the cache bookkeeping; the O(n)
        // build runs outside it so sweep workers touching
        // *distinct* (n, s) pairs construct concurrently, while
        // same-key callers wait on the one in-flight build
        // instead of duplicating it. weak_ptr keeps the tables
        // reclaimable once no sampler holds them.
        using Key = std::pair<std::uint64_t, double>;
        static std::mutex mu;
        static std::condition_variable cv;
        static std::map<Key, std::weak_ptr<const Tables>> cache;
        static std::set<Key> building;

        const Key key{n, s};
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            if (auto existing = cache[key].lock())
                return existing;
            if (!building.count(key))
                break;
            cv.wait(lock);
        }
        building.insert(key);
        lock.unlock();

        std::shared_ptr<const Tables> built = build(n, s);

        lock.lock();
        cache[key] = built;
        building.erase(key);
        cv.notify_all();
        return built;
    }

    /**
     * Vose's alias construction, in place. It yields exactly the
     * tables of the textbook two-stack form: weights scaled to mean
     * 1; indices pushed in ascending order onto a `small` (< 1) or
     * `large` stack; each round pops one of each, gives the small
     * bucket the large one as its alias, and pushes the large one
     * back by its reduced weight; whatever remains gets probability
     * one. The large index is the only one ever pushed back, so
     * each stack is its initial contents, read top down by a
     * descending cursor over a class bitmask, plus at most the one
     * index the last round carried. Weights are parked as doubles
     * in `thresh` until a bucket's threshold replaces its weight.
     */
    static std::shared_ptr<const Tables>
    buildTables(std::uint64_t n, double s)
    {
        auto tables = std::make_shared<Tables>();
        std::vector<std::uint64_t> &thresh = tables->thresh;
        std::vector<std::uint32_t> &alias = tables->alias;
        reserveHugePages(thresh, n);
        reserveHugePages(alias, n);
        alias.resize(n);
        const auto weight = [&](std::uint64_t i) {
            return std::bit_cast<double>(thresh[i]);
        };

        // Unnormalized Zipf weights, rescaled so the mean is 1.
        double total = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const double w = std::pow(static_cast<double>(i + 1), -s);
            thresh.push_back(std::bit_cast<std::uint64_t>(w));
            total += w;
        }
        const double scale = static_cast<double>(n) / total;
        // Bit i: index i starts on the small stack.
        std::vector<std::uint64_t> small_mask((n + 63) / 64);
        for (std::uint64_t i = 0; i < n; ++i) {
            const double w = weight(i) * scale;
            thresh[i] = std::bit_cast<std::uint64_t>(w);
            if (w < 1.0)
                small_mask[i / 64] |= std::uint64_t{1} << (i % 64);
        }

        // Highest index below @p pos whose initial class is
        // @p small, or n when there is none.
        const auto below = [&](std::uint64_t pos, bool small) {
            while (pos > 0) {
                const std::uint64_t word = (pos - 1) / 64;
                const unsigned top = (pos - 1) % 64;
                std::uint64_t bits =
                    small ? small_mask[word] : ~small_mask[word];
                if (top < 63)
                    bits &= (std::uint64_t{2} << top) - 1;
                if (bits)
                    return word * 64 + 63 - std::countl_zero(bits);
                pos = word * 64;
            }
            return n;
        };

        std::uint64_t small_next = below(n, true);
        std::uint64_t large_next = below(n, false);
        std::uint64_t carried = n;
        bool carried_small = false;
        for (;;) {
            const bool small_carried = carried != n && carried_small;
            const bool large_carried = carried != n && !carried_small;
            const std::uint64_t s_idx =
                small_carried ? carried : small_next;
            const std::uint64_t l_idx =
                large_carried ? carried : large_next;
            if (s_idx == n || l_idx == n)
                break;
            if (!small_carried)
                small_next = below(small_next, true);
            if (!large_carried)
                large_next = below(large_next, false);
            const double s_w = weight(s_idx);
            const double l_w = (weight(l_idx) + s_w) - 1.0;
            thresh[s_idx] = toThreshold(s_w);
            alias[s_idx] = static_cast<std::uint32_t>(l_idx);
            thresh[l_idx] = std::bit_cast<std::uint64_t>(l_w);
            carried = l_idx;
            carried_small = l_w < 1.0;
        }

        // Leftovers (numerical residue): probability one.
        const auto keep = [&](std::uint64_t i) {
            thresh[i] = ~std::uint64_t{0};
            alias[i] = static_cast<std::uint32_t>(i);
        };
        if (carried != n)
            keep(carried);
        for (; small_next != n; small_next = below(small_next, true))
            keep(small_next);
        for (; large_next != n; large_next = below(large_next, false))
            keep(large_next);
        return tables;
    }

  private:
    /** Map a bucket probability in [0, 1] to a u64 coin bound. */
    static std::uint64_t
    toThreshold(double p)
    {
        if (p >= 1.0)
            return ~std::uint64_t{0};
        if (p <= 0.0)
            return 0;
        return static_cast<std::uint64_t>(p * 0x1p64);
    }

    std::uint64_t n_;
    double s_;
    std::shared_ptr<const Tables> tables_;
};

} // namespace fpc

#endif // FPC_COMMON_RNG_HH
