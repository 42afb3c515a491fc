/**
 * @file
 * The two trivial memory-system organizations of the evaluation:
 *
 *  - NoCacheMemory: the 2D baseline; every LLC miss pays full
 *    off-chip latency, every writeback goes off chip.
 *  - IdealCache: "a cache that never misses and has no tag
 *    overheads (die-stacked main memory)" (§6.3) — also used for
 *    the Figure 1 opportunity study.
 */

#ifndef FPC_DRAMCACHE_SIMPLE_MEMORIES_HH
#define FPC_DRAMCACHE_SIMPLE_MEMORIES_HH

#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "dram/system.hh"
#include "dramcache/interface.hh"

namespace fpc {

/** Baseline: off-chip DRAM only. */
class NoCacheMemory : public MemorySystem
{
  public:
    explicit NoCacheMemory(DramSystem &offchip)
        : offchip_(offchip)
    {
    }

    MemSystemResult
    access(Cycle now, const MemRequest &req) override
    {
        accesses_.inc();
        DramAccessResult r =
            offchip_.access(now, blockAlign(req.paddr), false, 1);
        return {r.firstBlockReady, false};
    }

    void
    writeback(Cycle now, Addr block_addr) override
    {
        offchip_.access(now, blockAlign(block_addr), true, 1);
    }

    std::string designName() const override { return "baseline"; }

    std::uint64_t
    demandAccesses() const override
    {
        return accesses_.value();
    }

    std::uint64_t demandHits() const override { return 0; }

  private:
    DramSystem &offchip_;
    Counter accesses_;
};

/** Ideal die-stacked memory: every access hits, no tag latency. */
class IdealCache : public MemorySystem
{
  public:
    /**
     * @param capacity_bytes stacked capacity used only to fold
     *        addresses into the stacked address space (power of 2).
     */
    IdealCache(DramSystem &stacked, std::uint64_t capacity_bytes)
        : stacked_(stacked), mask_(capacity_bytes - 1)
    {
        FPC_ASSERT(isPowerOf2(capacity_bytes));
    }

    MemSystemResult
    access(Cycle now, const MemRequest &req) override
    {
        accesses_.inc();
        DramAccessResult r = stacked_.access(
            now, blockAlign(req.paddr) & mask_, false, 1);
        return {r.firstBlockReady, true};
    }

    void
    writeback(Cycle now, Addr block_addr) override
    {
        stacked_.access(now, blockAlign(block_addr) & mask_, true,
                        1);
    }

    std::string designName() const override { return "ideal"; }

    std::uint64_t
    demandAccesses() const override
    {
        return accesses_.value();
    }

    std::uint64_t
    demandHits() const override
    {
        return accesses_.value();
    }

  private:
    DramSystem &stacked_;
    Addr mask_;
    Counter accesses_;
};

} // namespace fpc

#endif // FPC_DRAMCACHE_SIMPLE_MEMORIES_HH
