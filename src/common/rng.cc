/**
 * @file
 * Zipf alias tables: the weight kernel and Vose's construction.
 *
 * The weights w_i = std::pow(double(i + 1), -s) of a multi-million-
 * page dataset dominate a table build, so above x = i + 1 = 2^14 a
 * vector kernel computes them instead on CPUs with AVX2 and FMA. It
 * evaluates x^-s in double-double and keeps its rounded result only
 * where the certificate below shows that result equals what glibc's
 * pow returns; every other weight comes from std::pow itself. The
 * tables are therefore bit-identical to a plain std::pow loop
 * (tests/test_rng.cc checks them).
 *
 * Certification. glibc (>= 2.28, sysdeps/ieee754/dbl-64/e_pow.c, its
 * FMA build included) states a worst-case pow error of 0.54 ULP. Let
 * y = x^-s exactly, R the kernel's double-double with
 * |R - y| <= E·ulp, r = fl(R) and d = R - r, exact by Fast2Sum. If r
 * is normal with a non-zero mantissa, y lies in r's binade and
 * |y - r| <= |d| + E. Whenever |d| + E < 1 - 0.54 = 0.46 ULP, every
 * double other than r is more than 0.54 ULP from y, so pow(x, -s)
 * must return r. The kernel accepts r when |d| <= 29/64 ULP, i.e.
 * when R is at least 3/64 ULP from the rounding midpoint, so the
 * certificate holds wherever E <= 0.46 - 29/64 = 0.006875 ULP.
 * About 9% of the weights fall in the rejected band and call pow.
 *
 * Kernel error E (u = 2^-53; |t| <= tau = 2^-9; relative error
 * bounds below are turned into ULPs by the factor 2^53):
 *  - seed: glibc's x86-64 powl (sysdeps/x86_64/fpu/e_powl.S, x87
 *    code) states no error bound. Measured, not stated: against
 *    80-digit references it was off by at most 0.85 ULP of long
 *    double (2^-63 relative) on 6000 samples (15 exponents in
 *    [1e-6, 10], x in [2^14, 2^32)) with glibc 2.36 on one x86-64
 *    Xeon host. The budget is 4 of those ULPs, 2^-61 (0.0039 ULP),
 *    so the certificate holds on CPUs and glibc builds whose powl
 *    stays within it;
 *  - series tail sum_{k=2..8} a_k t^k in plain double: the
 *    coefficients carry <= 3k roundings from their recurrence, Horner
 *    adds two per degree plus t^2 and the last product, and dropping
 *    t_lo costs <= 8u relative: <= 7·8·u·S2, with
 *    S2 = |a_2| tau^2 / (1 - q) >= sum_{k>=2} |a_k| tau^k and
 *    q = tau·max(1, (s+2)/3) >= |a_{k+1}/a_k| tau for k >= 2;
 *  - truncation after degree 8: <= |a_9| tau^9 / (1 - q);
 *  - double-double t, s·t, 1 + s·t + T and the product by the seed:
 *    a few u^2, budgeted as 2^-100.
 * The series errors are absolute on (1+t)^-s >= 1 - s·tau - S2.
 * For the workload exponents (0.3-0.8) E is 0.0040 ULP, almost all
 * of it the seed; E passes 0.006875 between s = 4.5 and s = 5, and
 * from there on every weight comes from std::pow.
 *
 * The kernel assumes IEEE double arithmetic that rounds where the
 * source says: its exact products are explicit fmas, and its
 * Fast2Sum residuals break if the compiler fuses a product into the
 * following add, so this file is built with -ffp-contract=off.
 * Off x86-64 glibc, and on CPUs without AVX2 and FMA, every weight
 * comes from std::pow.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/rng.hh"

#include "common/huge_pages.hh"

#if defined(__x86_64__) && defined(__GLIBC__) &&                     \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
#define FPC_ZIPF_KERNEL 1
#else
#define FPC_ZIPF_KERNEL 0
#endif

namespace fpc {

namespace {

/** Map a bucket probability in [0, 1] to a u64 coin bound. */
std::uint64_t
toThreshold(double p)
{
    if (p >= 1.0)
        return ~std::uint64_t{0};
    if (p <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(p * 0x1p64);
}

/** One weight exactly as the tables define it. */
double
powWeight(std::uint64_t x, double s)
{
    return std::pow(static_cast<double>(x), -s);
}

#if FPC_ZIPF_KERNEL

/** Smallest x the kernel computes; below it std::pow runs. */
constexpr std::uint64_t kFirstX = std::uint64_t{1} << 14;
/** Largest block; a block in [2^e, 2^(e+1)) holds min(2^(e-8), this)
 * consecutive x, so |t| = |x - c| / c <= 2^-9 about its centre c. */
constexpr int kMaxBlock = 4096;
constexpr double kTau = 0x1p-9;
/** Degree of the binomial series of (1 + t)^-s. */
constexpr int kDegree = 8;
/** pow's stated worst case, and the accepted |d| per ULP of r. */
constexpr double kPowUlps = 0.54;
constexpr double kAcceptUlps = 29.0 / 64;
/** Budget for the seed's relative error (see the file comment). */
constexpr double kSeedError = 0x1p-61;

/** The series of (1 + t)^-s: a[k] is the coefficient of t^k. */
struct Series
{
    double s;
    double a[kDegree + 2];
};

Series
makeSeries(double s)
{
    Series ser{s, {}};
    ser.a[0] = 1.0;
    for (int k = 0; k <= kDegree; ++k)
        ser.a[k + 1] = ser.a[k] * (-(s + k) / (k + 1));
    return ser;
}

/** The bound E of the file comment, in ULPs of the result. */
double
kernelErrorUlps(const Series &ser)
{
    const double u = 0x1p-53;
    const double q = kTau * std::max(1.0, (ser.s + 2) / 3);
    const double s2 = std::fabs(ser.a[2]) * kTau * kTau / (1 - q);
    const double rounding = 7 * kDegree * u * s2;
    const double truncation =
        std::fabs(ser.a[kDegree + 1]) * std::pow(kTau, kDegree + 1) /
        (1 - q);
    const double lowest = 1 - ser.s * kTau - s2;
    if (!(q < 0.5 && lowest > 0.5))
        return INFINITY;
    const double rel =
        kSeedError + (rounding + truncation + 0x1p-100) / lowest;
    // The bound's own arithmetic rounds: pad it.
    return rel * 0x1p53 * (1 + 0x1p-20);
}

/** Exact sum: a + b = sum + err, given |a| >= |b|. */
[[gnu::always_inline]] inline void
fastTwoSum(double a, double b, double &sum, double &err)
{
    sum = a + b;
    err = (a - sum) + b;
}

/** Exact product: a·b = prod + err. */
[[gnu::always_inline]] inline void
twoProduct(double a, double b, double &prod, double &err)
{
    prod = a * b;
    err = __builtin_fma(a, b, -prod);
}

/**
 * w[j] = (c + j - half)^-s for j < count where certified, else -1.
 * The seed c^-s is sh + sl; t = (x - c) / c is formed as
 * (x - c)·(1/c) in double-double, (1 + t)^-s as 1 - s·t in
 * double-double plus the tail in double, then multiplied by the
 * seed and rounded with its exact residual.
 */
[[gnu::target("avx2,fma")]] void
weightBlock(double *__restrict w, int count, int half, double c,
            double sh, double sl, const Series &ser)
{
    double a[kDegree + 1];
    std::copy(ser.a, ser.a + kDegree + 1, a);
    const double ic = 1.0 / c;
    double p, e;
    twoProduct(c, ic, p, e);
    // 1 - c·ic is exact (a division remainder); icl is 1/c - ic.
    const double icl = ((1.0 - p) - e) / c;
    const double ms = -ser.s;
    for (int j = 0; j < count; ++j) {
        const double dx = static_cast<double>(j - half);
        double th, tl;
        twoProduct(dx, ic, th, tl);
        tl = __builtin_fma(dx, icl, tl);
        double lh, ll;
        twoProduct(ms, th, lh, ll);
        ll = __builtin_fma(ms, tl, ll);
        double tail = a[kDegree];
        // Fully unrolled: left rolled, GCC 12 does not vectorize
        // the outer loop.
#pragma GCC unroll 8
        for (int k = kDegree - 1; k >= 2; --k)
            tail = __builtin_fma(th, tail, a[k]);
        tail *= th * th;
        double h, e1, h2, e2;
        fastTwoSum(1.0, lh, h, e1);
        fastTwoSum(h, tail, h2, e2);
        const double lo = (e1 + e2) + ll;
        double ph, pe;
        twoProduct(sh, h2, ph, pe);
        const double pl =
            __builtin_fma(sh, lo, __builtin_fma(sl, h2, pe));
        double r, d;
        fastTwoSum(ph, pl, r, d);

        // ulp(r) from r's exponent field; meaningful for the r the
        // first test admits. A zero mantissa means r == 2^52·ulp.
        // Double compares and bitwise &: the loop vectorizes
        // without integer compares.
        const double ulp = std::bit_cast<double>(
            (std::bit_cast<std::uint64_t>(r) & 0x7ff0000000000000ULL) -
            (std::uint64_t{52} << 52));
        const bool ok = (r >= 0x1p-969) & (r != 0x1p52 * ulp) &
                        (std::fabs(d) <= kAcceptUlps * ulp);
        w[j] = ok ? r : -1.0;
    }
}

#endif // FPC_ZIPF_KERNEL

} // namespace

double
AliasZipfSampler::appendWeights(std::vector<std::uint64_t> &bits,
                                std::uint64_t n, double s)
{
    double total = 0.0;
    std::uint64_t x = 1;
    const auto emit = [&](double w) {
        bits.push_back(std::bit_cast<std::uint64_t>(w));
        total += w;
    };
#if FPC_ZIPF_KERNEL
    static const bool has_fma =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    const Series ser = makeSeries(s);
    for (; x < kFirstX && x <= n; ++x)
        emit(powWeight(x, s));
    alignas(64) double w[kMaxBlock];
    int redo[kMaxBlock];
    // Where the kernel cannot run or its certificate cannot hold,
    // std::pow computes them all.
    const bool covered = has_fma && s > 0 &&
                         kernelErrorUlps(ser) <= 1 - kPowUlps - kAcceptUlps;
    while (covered && x <= n) {
        const int size = static_cast<int>(std::min<std::uint64_t>(
            kMaxBlock, std::bit_floor(x) >> 8));
        const int count =
            static_cast<int>(std::min<std::uint64_t>(size, n - x + 1));
        const double c = static_cast<double>(x + size / 2);
        const long double seed = std::pow(static_cast<long double>(c),
                                          -static_cast<long double>(s));
        const double sh = static_cast<double>(seed);
        const double sl = static_cast<double>(seed - sh);
        weightBlock(w, count, size / 2, c, sh, sl, ser);
        // Fill the rejected weights first, so that neither the
        // copy nor the sum below branches on them.
        int rejected = 0;
        for (int j = 0; j < count; ++j) {
            redo[rejected] = j;
            rejected += !(w[j] > 0);
        }
        for (int k = 0; k < rejected; ++k)
            w[redo[k]] = powWeight(x + redo[k], s);
        const std::size_t at = bits.size();
        bits.resize(at + count);
        std::memcpy(bits.data() + at, w, count * sizeof(double));
        for (int j = 0; j < count; ++j)
            total += w[j];
        x += count;
    }
#endif
    for (; x <= n; ++x)
        emit(powWeight(x, s));
    return total;
}

std::shared_ptr<const AliasZipfSampler::Tables>
AliasZipfSampler::buildTables(std::uint64_t n, double s)
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
    const double total = appendWeights(thresh, n, s);
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
        const std::uint64_t s_idx = small_carried ? carried : small_next;
        const std::uint64_t l_idx = large_carried ? carried : large_next;
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

} // namespace fpc
