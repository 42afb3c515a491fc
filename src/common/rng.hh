/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All simulations must be reproducible bit-for-bit across runs, so we
 * avoid std::mt19937's unspecified distribution implementations and
 * provide our own xoshiro256** generator plus the distributions the
 * workload models need (uniform, bernoulli, geometric, Zipf).
 */

#ifndef FPC_COMMON_RNG_HH
#define FPC_COMMON_RNG_HH

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <vector>

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

    /** Geometric number of failures before success, P(success)=p. */
    std::uint64_t
    geometric(double p)
    {
        FPC_ASSERT(p > 0.0 && p <= 1.0);
        if (p >= 1.0)
            return 0;
        double u = uniform();
        return static_cast<std::uint64_t>(
            std::floor(std::log1p(-u) / std::log1p(-p)));
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
 * Zipf-distributed sampler over {0, .., n-1} with exponent s, using
 * Hörmann's rejection-inversion method: O(1) per sample, no tables,
 * so it scales to the multi-million-page datasets our workloads use.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s)
        : n_(n), s_(s)
    {
        FPC_ASSERT(n >= 1);
        FPC_ASSERT(s >= 0.0);
        hIntegralX1_ = hIntegral(1.5) - 1.0;
        hIntegralN_ = hIntegral(static_cast<double>(n_) + 0.5);
        t_ = 2.0 - hIntegralInv(hIntegral(2.5) - hFn(2.0));
    }

    /** Draw one rank in [0, n). Rank 0 is the most popular item. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        if (s_ == 0.0)
            return rng.below(n_);
        while (true) {
            double u = hIntegralN_ +
                rng.uniform() * (hIntegralX1_ - hIntegralN_);
            double x = hIntegralInv(u);
            double kd = std::floor(x + 0.5);
            if (kd < 1.0)
                kd = 1.0;
            if (kd > static_cast<double>(n_))
                kd = static_cast<double>(n_);
            if (kd - x <= t_ ||
                u >= hIntegral(kd + 0.5) - hFn(kd)) {
                return static_cast<std::uint64_t>(kd) - 1;
            }
        }
    }

    std::uint64_t n() const { return n_; }
    double exponent() const { return s_; }

  private:
    /** Integral of the unnormalized density x^-s. */
    double
    hIntegral(double x) const
    {
        if (s_ == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
    }

    /** Inverse of hIntegral. */
    double
    hIntegralInv(double x) const
    {
        if (s_ == 1.0)
            return std::exp(x);
        return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
    }

    /** Unnormalized density x^-s. */
    double
    hFn(double x) const
    {
        return std::exp(-s_ * std::log(x));
    }

    std::uint64_t n_;
    double s_;
    double hIntegralX1_;
    double hIntegralN_;
    double t_;
};

/**
 * Alias-method Zipf sampler (Walker/Vose) over {0, .., n-1} with
 * exponent s. Table construction is O(n) with one pow() per item;
 * every draw afterwards is O(1) from a single 64-bit random value,
 * with no transcendental math and no rejection loop — unlike
 * ZipfSampler's rejection inversion, whose pow/log calls dominate
 * the trace-generation hot path. Costs 12 bytes per item, which is
 * acceptable for the multi-million-page workload datasets and paid
 * once per trace source.
 */
class AliasZipfSampler
{
  public:
    AliasZipfSampler(std::uint64_t n, double s) : n_(n), s_(s)
    {
        FPC_ASSERT(n >= 1);
        FPC_ASSERT(n < (1ULL << 32));
        FPC_ASSERT(s >= 0.0);
        if (s_ > 0.0 && n_ > 1)
            tables_ = sharedTables(n_, s_);
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

  private:
    /** Immutable alias tables for one (n, s) distribution. */
    struct Tables
    {
        std::vector<std::uint64_t> thresh;
        std::vector<std::uint32_t> alias;
    };

    /**
     * Table construction is O(n) with a pow() per item — ~10^8
     * ns-scale operations for the multi-million-page datasets —
     * and the same (n, s) pair recurs across every design × mode
     * run of a sweep, so built tables are shared process-wide.
     */
    static std::shared_ptr<const Tables>
    sharedTables(std::uint64_t n, double s)
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

        auto built = buildTables(n, s);

        lock.lock();
        cache[key] = built;
        building.erase(key);
        cv.notify_all();
        return built;
    }

    static std::shared_ptr<const Tables>
    buildTables(std::uint64_t n, double s)
    {
        auto tables = std::make_shared<Tables>();
        // Unnormalized Zipf weights, rescaled so the mean is 1.
        std::vector<double> scaled(n);
        double total = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            scaled[i] = std::pow(static_cast<double>(i + 1), -s);
            total += scaled[i];
        }
        const double scale = static_cast<double>(n) / total;
        for (double &p : scaled)
            p *= scale;

        tables->thresh.resize(n);
        tables->alias.resize(n);
        std::vector<std::uint32_t> small, large;
        small.reserve(n);
        large.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            (scaled[i] < 1.0 ? small : large)
                .push_back(static_cast<std::uint32_t>(i));
        }

        // Vose pairing: each under-full bucket borrows the excess
        // of one over-full bucket.
        while (!small.empty() && !large.empty()) {
            const std::uint32_t s_idx = small.back();
            small.pop_back();
            const std::uint32_t l_idx = large.back();
            large.pop_back();
            tables->thresh[s_idx] = toThreshold(scaled[s_idx]);
            tables->alias[s_idx] = l_idx;
            scaled[l_idx] =
                (scaled[l_idx] + scaled[s_idx]) - 1.0;
            (scaled[l_idx] < 1.0 ? small : large)
                .push_back(l_idx);
        }
        // Leftovers (numerical residue): probability one.
        for (std::uint32_t i : large) {
            tables->thresh[i] = ~std::uint64_t{0};
            tables->alias[i] = i;
        }
        for (std::uint32_t i : small) {
            tables->thresh[i] = ~std::uint64_t{0};
            tables->alias[i] = i;
        }
        return tables;
    }

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
