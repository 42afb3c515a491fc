/**
 * @file
 * Alloy-style direct-mapped DRAM cache (after Qureshi & Loh,
 * MICRO 2012): the latency-optimized corner of the hit-ratio /
 * latency / bandwidth frontier.
 *
 * Tags are alloyed with data into TAD (tag-and-data) units — one
 * 64B block plus its tag in adjacent DRAM bits — so a hit streams
 * the TAD in a single stacked access with no SRAM tag array and
 * no separate tag CAS. (The 8B tag rides the same burst; the DRAM
 * model is 64B-granular, so the tag transfer is folded into the
 * block burst.) A memory-access predictor (MAP-I: per-PC
 * saturating counters) guesses hit/miss before the probe: on a
 * predicted miss, the off-chip fetch launches in parallel with
 * the TAD probe, hiding the probe latency; the price of a wrong
 * miss prediction is a wasted off-chip fetch, tracked as
 * bandwidth overhead.
 *
 * Being direct-mapped and block-granular, the design trades hit
 * ratio (conflict misses, no footprint prefetching) for the
 * lowest hit latency of the evaluated organizations.
 *
 * Each TAD's tag state is one 8B word: block id, dirty bit and
 * valid bit.
 */

#ifndef FPC_DRAMCACHE_ALLOY_CACHE_HH
#define FPC_DRAMCACHE_ALLOY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "dram/system.hh"
#include "dramcache/interface.hh"
#include "tenant/partition.hh"

namespace fpc {

/** Direct-mapped tags-with-data block cache. */
class AlloyCache : public MemorySystem
{
  public:
    struct Config
    {
        /** Nominal capacity (TADs × tadBytes, tags included). */
        std::uint64_t capacityBytes = 256ULL << 20;

        /** One TAD: a 64B block plus its alloyed tag. */
        unsigned tadBytes = 72;

        /** MAP-I predictor entries (power of two). */
        std::uint32_t mapEntries = 256;

        /** Saturating-counter ceiling (3-bit counters). */
        std::uint8_t mapCounterMax = 7;

        /** Counter >= threshold predicts a hit. */
        std::uint8_t mapThreshold = 4;

        /** MAP lookup latency (SRAM, off the DRAM path). */
        Cycle mapLatencyCycles = 1;

        /** Disable the predictor: always probe serially. */
        bool usePredictor = true;

        /** Allocate blocks on LLC writebacks. */
        bool allocateOnWriteback = true;

        /** Multi-tenant partitioning (tenant.* design params);
         * units are TADs, the hash unit is the block number. */
        TenantPartitionParams tenants;

        std::string name = "alloy";
    };

    AlloyCache(const Config &config, DramSystem &stacked,
               DramSystem &offchip);

    MemSystemResult access(Cycle now, const MemRequest &req) override;
    void writeback(Cycle now, Addr block_addr) override;

    void attachIntrospection(CacheIntrospection *intro) override;
    void finalizeIntrospection() override;
    void visitStatGroups(
        const std::function<void(const StatGroup &)> &fn)
        const override;

    void
    prefetchFor(Addr paddr) const override
    {
        __builtin_prefetch(&tads_[setOf(blockAlign(paddr))]);
    }

    std::string designName() const override { return config_.name; }

    std::uint64_t
    demandAccesses() const override
    {
        return demand_accesses_.value();
    }

    std::uint64_t demandHits() const override
    {
        return hits_.value();
    }

    /** Correct MAP hit/miss predictions. */
    std::uint64_t mapCorrect() const { return map_correct_.value(); }

    /** Wrong MAP predictions (either direction). */
    std::uint64_t mapMispredicts() const
    {
        return map_mispredicts_.value();
    }

    /** Off-chip fetches issued in parallel but discarded (hit
     *  despite a miss prediction): pure bandwidth waste. */
    std::uint64_t wastedOffchipReads() const
    {
        return wasted_offchip_.value();
    }

    std::uint64_t dirtyEvictions() const
    {
        return dirty_evictions_.value();
    }
    /** Fills bypassed by the tenant quota policy. */
    std::uint64_t quotaBypasses() const
    {
        return quota_bypass_.value();
    }

    std::uint64_t numSets() const { return num_sets_; }
    const Config &config() const { return config_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * One TAD's tag state, `blockId << 2 | dirty << 1 | valid`.
     * Block ids are addresses over 64B, so below 2^58 and the
     * shift is lossless (tenant-shifted addresses included).
     */
    using Tad = std::uint64_t;
    static constexpr Tad kValid = 1;
    static constexpr Tad kDirty = 2;

    static Addr blockOf(Tad tad) { return tad >> 2; }

    /** Does @p tad hold @p block_addr (valid, any dirty bit)? */
    static bool
    holds(Tad tad, Addr block_addr)
    {
        return (tad | kDirty) ==
               (blockNumber(block_addr) << 2 | kDirty | kValid);
    }

    std::uint64_t
    setOf(Addr block_addr) const
    {
        // Direct-mapped; the TAD count is not a power of two
        // (capacity / 72B), so index by modulo.
        if (partition_.enabled)
            return partition_.setOf(blockNumber(block_addr));
        return blockNumber(block_addr) % num_sets_;
    }

    /** Stacked-DRAM address of set @p set's TAD. */
    Addr
    tadAddr(std::uint64_t set) const
    {
        return set * config_.tadBytes;
    }

    std::uint8_t &
    mapCounter(Pc pc)
    {
        return map_[(pc >> 2) & map_mask_];
    }

    /**
     * Install @p block_addr, evicting the resident TAD.
     * @return false when the tenant quota bypassed the fill.
     */
    bool fill(Cycle when, Addr block_addr, bool dirty);

    Config config_;
    DramSystem &stacked_;
    DramSystem &offchip_;
    std::uint64_t num_sets_;
    std::uint32_t map_mask_;
    std::vector<Tad> tads_;
    std::vector<std::uint8_t> map_;
    /** Per-tenant set ranges (disabled outside setpart). */
    SetPartitionSpec partition_;
    /** Per-tenant TAD quota (tenant.policy=quota). */
    TenantQuota quota_;
    /** Introspection sink (null = off; see introspection.hh). */
    CacheIntrospection *intro_ = nullptr;

    StatGroup stats_;
    Counter demand_accesses_;
    Counter hits_;
    Counter misses_;
    Counter dirty_evictions_;
    Counter quota_bypass_;
    Counter map_correct_;
    Counter map_mispredicts_;
    Counter wasted_offchip_;
    Counter wb_hits_;
    Counter wb_misses_;
};

} // namespace fpc

#endif // FPC_DRAMCACHE_ALLOY_CACHE_HH
