/**
 * @file
 * Block-based DRAM cache (§5.2), modeled after Loh & Hill's
 * compound-access-scheduling design with MissMap [24], with the
 * paper's optimizations: 30 data blocks + 2 tag blocks per 2KB
 * row (30-way sets, tags co-located with data in the same DRAM
 * row), and a MissMap that filters misses before any DRAM access.
 *
 * A hit costs one row activation plus a tag-read CAS, a one-cycle
 * tag check and a data CAS (the tag-update CAS is taken off the
 * critical path). Both DRAMs run close-page policy with 64B
 * channel interleaving (§5.2).
 *
 * Tag state is what the in-row tags hold: per way a block id, a
 * valid and a dirty bit, and its exact LRU rank — one 256B record
 * per 30-way set (SetState).
 */

#ifndef FPC_DRAMCACHE_BLOCK_CACHE_HH
#define FPC_DRAMCACHE_BLOCK_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "dram/system.hh"
#include "dramcache/interface.hh"
#include "dramcache/missmap.hh"
#include "tenant/partition.hh"

namespace fpc {

/** Loh-Hill style block-based DRAM cache. */
class BlockCache : public MemorySystem
{
  public:
    /** DRAM row size; one set occupies one row (§5.2). */
    static constexpr unsigned kRowBytes = 2048;

    /** Data blocks per row (paper: 30 of 32; the other two
     * hold the set's tags). */
    static constexpr unsigned kDataBlocksPerRow = 30;

    struct Config
    {
        /** Nominal capacity (rows × 2KB, tags included). */
        std::uint64_t capacityBytes = 256ULL << 20;

        MissMap::Config missMap;

        /** MissMap lookup latency in cycles (Table 4). */
        Cycle missMapLatencyCycles = 9;

        /** Multi-tenant partitioning (tenant.* design params);
         * units are blocks, the hash unit is the block number. */
        TenantPartitionParams tenants;
    };

    BlockCache(const Config &config, DramSystem &stacked,
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
        missmap_.prefetchSet(blockAlign(paddr));
        __builtin_prefetch(&sets_[setOf(paddr)]);
    }

    std::string designName() const override { return "block"; }

    std::uint64_t
    demandAccesses() const override
    {
        return demand_accesses_.value();
    }

    std::uint64_t
    demandHits() const override
    {
        return hits_.value();
    }

    std::uint64_t missMapEvictions() const
    {
        return mm_evictions_.value();
    }
    std::uint64_t missMapFlushedBlocks() const
    {
        return mm_flushed_.value();
    }
    std::uint64_t dirtyBlockEvictions() const
    {
        return dirty_evictions_.value();
    }
    /** Fills bypassed by the tenant quota policy. */
    std::uint64_t quotaBypasses() const
    {
        return quota_bypass_.value();
    }

    /** Data capacity excluding in-row tags. */
    std::uint64_t
    dataCapacityBytes() const
    {
        return num_sets_ * kDataBlocksPerRow * kBlockBytes;
    }

    /** Way holding @p block_addr, or -1 when it is not cached
     * (no recency update). */
    int
    wayOf(Addr block_addr) const
    {
        return findWay(setOf(blockAlign(block_addr)),
                       blockNumber(block_addr));
    }

    MissMap &missMap() { return missmap_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /** Ways a set may have: a 2KB row keeps at least one block
     * for its tags. */
    static constexpr unsigned kMaxWays = 31;
    static_assert(kDataBlocksPerRow <= kMaxWays);
    static_assert(kDataBlocksPerRow <= kRowBytes / kBlockBytes);

    /**
     * Tag state of one set: a 256B record on cache-line
     * boundaries, so a sparse set's masks and its first ways'
     * tags share one line. Each way's word holds its block id
     * (an address over 64B, so below 2^58) and, in the spare top
     * bits, its recency rank: ranks 0..k-1 order the k valid
     * ways, 0 the most recently filled or touched. The victim is
     * the first invalid way by index, else the way ranked last —
     * the rule per-way timestamps gave, since only their relative
     * order ever mattered.
     */
    struct alignas(64) SetState
    {
        /** Bit w set: way w holds a block. */
        std::uint32_t valid = 0;
        /** Bit w set: way w's block is dirty. */
        std::uint32_t dirty = 0;
        /** Way w's block id | its rank << kRankShift. */
        std::uint64_t ways[kMaxWays] = {};
    };
    static_assert(sizeof(SetState) == 256);

    /** Valid mask of a full set. */
    static constexpr std::uint32_t kFullMask =
        (std::uint32_t{1} << kDataBlocksPerRow) - 1;

    static constexpr unsigned kRankShift = 58;
    static constexpr std::uint64_t kRankOne = std::uint64_t{1}
                                              << kRankShift;
    static constexpr std::uint64_t kIdMask = kRankOne - 1;

    static unsigned
    rankOf(std::uint64_t way_word)
    {
        return static_cast<unsigned>(way_word >> kRankShift);
    }

    std::uint64_t
    setOf(Addr block_addr) const
    {
        if (partition_.enabled)
            return partition_.setOf(blockNumber(block_addr));
        return blockNumber(block_addr) & set_mask_;
    }

    /** Stacked-DRAM address of set @p set's row. */
    Addr
    rowAddr(std::uint64_t set) const
    {
        return set * kRowBytes;
    }

    /** Way of @p set holding @p block_id, or -1 if absent. */
    int findWay(std::uint64_t set, Addr block_id) const;

    /**
     * Rank way @p way of @p s first (a valid way being hit, or an
     * invalid one being filled); the valid ways it passes move
     * down one rank.
     */
    static void touch(SetState &s, unsigned way);

    /**
     * Install @p block_addr into its set; evicts LRU if needed.
     * @return false when the tenant quota bypassed the fill.
     */
    bool fillBlock(Cycle when, Addr block_addr, bool dirty);

    /** Drop a valid way: quota release, dirty victim written off
     * chip, valid and dirty bits cleared, the ways ranked below
     * it moved up one rank. */
    void dropWay(Cycle when, std::uint64_t set, unsigned way);

    /** Evict one way (victim handling + MissMap bit clear). */
    void evictWay(Cycle when, std::uint64_t set, unsigned way);

    /** Flush every cached block of a displaced MissMap segment. */
    void flushSegment(Cycle when, const MissMap::Victim &victim);

    Config config_;
    DramSystem &stacked_;
    DramSystem &offchip_;
    MissMap missmap_;
    std::uint64_t num_sets_;
    /** num_sets_ - 1; sets are a power of two. */
    std::uint64_t set_mask_;
    std::vector<SetState> sets_;
    /** Per-tenant set ranges (disabled outside setpart). */
    SetPartitionSpec partition_;
    /** Per-tenant block quota (tenant.policy=quota). */
    TenantQuota quota_;
    /** Introspection sink (null = off; see introspection.hh). */
    CacheIntrospection *intro_ = nullptr;

    StatGroup stats_;
    Counter demand_accesses_;
    Counter hits_;
    Counter misses_;
    Counter dirty_evictions_;
    Counter quota_bypass_;
    Counter mm_evictions_;
    Counter mm_flushed_;
    Counter wb_hits_;
    Counter wb_misses_;
};

} // namespace fpc

#endif // FPC_DRAMCACHE_BLOCK_CACHE_HH
