// fpc_calib — a fixed host-speed probe for the benchmark.
//
// Runs a constant amount of cache-model-like work (a 16-way LRU tag
// array of 384 KB, small enough to stay in the host's L2, probed by a
// skewed xorshift address stream) and prints its wall seconds and hit
// count. Of the footprints tried (24 KB to 48 MB), none tracked the
// sweeps' host time clearly better than this one. It uses none of the
// simulator's code, so its time moves only with the host: run.py times
// it between sweep repetitions and scales each repetition's host times
// by reference seconds / measured seconds.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

int main() {
    constexpr std::uint64_t kSets = 1u << 11;
    constexpr std::uint64_t kWays = 16;
    constexpr std::uint64_t kProbes = 6'000'000;
    std::vector<std::uint64_t> tag(kSets * kWays, ~0ull);
    std::vector<std::uint32_t> stamp(kSets * kWays, 0);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t hits = 0;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kProbes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // One probe in three is drawn from a 16x wider line range.
        const std::uint64_t line = (x >> 20) % (x % 3 == 0 ? 1u << 24 : 1u << 20);
        const std::uint64_t set = (line * 0x9E3779B97F4A7C15ull >> 53) & (kSets - 1);
        std::uint64_t* t = &tag[set * kWays];
        std::uint32_t* s = &stamp[set * kWays];
        std::uint64_t victim = 0;
        bool hit = false;
        for (std::uint64_t w = 0; w < kWays; ++w) {
            if (t[w] == line) {
                hit = true;
                victim = w;
                break;
            }
            if (s[w] < s[victim]) victim = w;
        }
        hits += hit;
        t[victim] = line;
        s[victim] = static_cast<std::uint32_t>(i);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(hits));
    return 0;
}
