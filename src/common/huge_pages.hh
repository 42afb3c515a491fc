/**
 * @file
 * Transparent-huge-page advice for the simulator's large tables.
 *
 * Design tag arrays and Zipf alias tables run to tens of MB each and
 * every sweep point builds its own. On 4 KB pages each table costs
 * one page fault per 4 KB at its first touch; a 2 MB huge page takes
 * one fault for 512 of them. Hosts whose THP mode is `madvise` (a
 * common default) give huge pages only to ranges that ask for them.
 */

#ifndef FPC_COMMON_HUGE_PAGES_HH
#define FPC_COMMON_HUGE_PAGES_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fpc {

/**
 * Reserve @p v's storage for @p n elements and advise the kernel to
 * back the 2 MB-aligned interior of that storage with huge pages.
 * Call it on an empty vector, before anything writes the storage:
 * the advice only shapes pages not yet faulted in. The advice is
 * best effort and changes no value: with THP `never`, on a kernel
 * without THP, or where MADV_HUGEPAGE is not defined, it does
 * nothing.
 */
template <class T>
void
reserveHugePages(std::vector<T> &v, std::size_t n)
{
    v.reserve(n);
#ifdef MADV_HUGEPAGE
    constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
    const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
    const std::uintptr_t lo = (begin + kHuge - 1) & ~(kHuge - 1);
    const std::uintptr_t hi = (begin + n * sizeof(T)) & ~(kHuge - 1);
    if (lo < hi) {
        // Advisory: a refusal leaves ordinary pages.
        (void)madvise(reinterpret_cast<void *>(lo), hi - lo,
                      MADV_HUGEPAGE);
    }
#endif
}

} // namespace fpc

#endif // FPC_COMMON_HUGE_PAGES_HH
