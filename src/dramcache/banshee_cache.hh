/**
 * @file
 * Banshee-style page-based DRAM cache (after Yu et al., MICRO
 * 2017): the bandwidth-efficiency corner of the hit-ratio /
 * latency / bandwidth frontier.
 *
 * Tags and replacement metadata live in the stacked DRAM; an SRAM
 * *tag buffer* caches recently-used page mappings so most lookups
 * skip the in-DRAM tag read, and mapping changes are buffered and
 * *lazily* written back in batches when the buffer's dirty share
 * crosses a threshold (one stacked write per flushed mapping).
 *
 * Replacement is frequency-based and bandwidth-aware: a miss does
 * NOT fill the cache. The demanded block is served straight from
 * off-chip memory while a per-set candidate counter tracks the
 * missing page's reuse; only when the candidate's frequency beats
 * the coldest resident page's does the page get installed (whole-
 * page fill: off-chip reads + in-cache writes, both tracked as
 * fill bandwidth). This caps cache-fill traffic at the cost of
 * hit ratio for marginal pages and of hit latency whenever the
 * tag buffer misses.
 */

#ifndef FPC_DRAMCACHE_BANSHEE_CACHE_HH
#define FPC_DRAMCACHE_BANSHEE_CACHE_HH

#include <string>
#include <vector>

#include "common/bitvec.hh"
#include "common/stats.hh"
#include "dram/system.hh"
#include "dramcache/interface.hh"
#include "tenant/partition.hh"

namespace fpc {

/** Page-based cache with tag buffer + frequency replacement. */
class BansheeCache : public MemorySystem
{
  public:
    /** Page-table associativity (Banshee: 4-way). */
    static constexpr unsigned kAssoc = 4;

    /** SRAM tag-buffer entries (power of two). */
    static constexpr std::uint32_t kTagBufferEntries = 4096;

    /** Tag-buffer associativity. */
    static constexpr unsigned kTagBufferAssoc = 8;
    static_assert(isPowerOf2(kTagBufferEntries) &&
                  isPowerOf2(kTagBufferAssoc) &&
                  kTagBufferAssoc <= kTagBufferEntries);

    /** Dirty mappings that trigger a lazy batch flush of the
     * in-DRAM tags. */
    static constexpr std::uint32_t kTagBufferFlushThreshold = 3072;

    /** Tag-buffer hit latency (SRAM). */
    static constexpr Cycle kTagBufferLatencyCycles = 2;

    /** Frequency-counter saturation ceiling; hitting it halves
     * the set. */
    static constexpr std::uint32_t kFreqMax = 15;

    struct Config
    {
        std::uint64_t capacityBytes = 256ULL << 20;

        /** Page (allocation unit) size in bytes. */
        unsigned pageBytes = 2048;

        /** Multi-tenant partitioning (tenant.* design params);
         * units are page frames, the hash unit is the page id.
         * The SRAM tag buffer stays shared under every policy. */
        TenantPartitionParams tenants;
    };

    BansheeCache(const Config &config, DramSystem &stacked,
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
        const Addr page_id = paddr >> page_shift_;
        __builtin_prefetch(&ways_[setOf(page_id) * kAssoc]);
        __builtin_prefetch(
            &tagbuf_[tbSetOf(page_id) * kTagBufferAssoc]);
    }

    std::string designName() const override { return "banshee"; }

    std::uint64_t
    demandAccesses() const override
    {
        return demand_accesses_.value();
    }

    std::uint64_t demandHits() const override
    {
        return hits_.value();
    }

    /* Bandwidth-awareness detail. */
    std::uint64_t pageFills() const { return fills_.value(); }
    std::uint64_t
    bypassedMisses() const //!< misses served without any fill
    {
        return bypassed_misses_.value();
    }
    std::uint64_t
    fillBlocksWritten() const //!< in-cache fill bandwidth
    {
        return fill_blocks_written_.value();
    }
    std::uint64_t
    offchipFillBlocks() const //!< off-chip fill bandwidth
    {
        return offchip_fill_blocks_.value();
    }
    std::uint64_t dirtyBlocksEvicted() const
    {
        return dirty_blocks_evicted_.value();
    }
    std::uint64_t replacements() const
    {
        return replacements_.value();
    }
    /** Page installs bypassed by the tenant quota policy. */
    std::uint64_t quotaBypasses() const
    {
        return quota_bypass_.value();
    }

    /* Tag-buffer / lazy-update detail. */
    std::uint64_t tagBufferHits() const { return tb_hits_.value(); }
    std::uint64_t tagBufferMisses() const
    {
        return tb_misses_.value();
    }
    std::uint64_t tagFlushes() const { return tb_flushes_.value(); }
    std::uint64_t flushedMappings() const
    {
        return tb_flushed_.value();
    }

    std::uint64_t numFrames() const { return frames_; }
    unsigned blocksPerPage() const { return blocks_per_page_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Way
    {
        Addr pageId = 0;
        std::uint32_t freq = 0;
        bool valid = false;
        /** Dirty blocks of the resident page. */
        BlockBitmap dirty;
        /**
         * Demanded blocks of the resident page. Maintained only
         * while introspection is attached (fill-accuracy tallies
         * against the whole-page fills).
         */
        BlockBitmap touched;
    };

    /** Per-set challenger for frequency-based replacement. */
    struct Candidate
    {
        Addr pageId = 0;
        std::uint32_t freq = 0;
        bool valid = false;
    };

    struct TagBufEntry
    {
        Addr pageId = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        /** Mapping changed; in-DRAM tags are stale. */
        bool dirty = false;
    };

    std::uint64_t
    setOf(Addr page_id) const
    {
        if (partition_.enabled)
            return partition_.setOf(page_id);
        return page_id & (sets_ - 1);
    }

    /** Owning tenant of a page id (tenant bits ride up high). */
    std::uint32_t
    pageTenant(Addr page_id) const
    {
        return tenantOfPageId(page_id, page_shift_);
    }

    std::uint64_t
    tbSetOf(Addr page_id) const
    {
        return page_id & (kTagBufferEntries / kTagBufferAssoc - 1);
    }

    unsigned
    offsetOf(Addr paddr) const
    {
        return static_cast<unsigned>(paddr >> kBlockShift) &
               offset_mask_;
    }

    /** Stacked-DRAM address of frame (set, way). */
    Addr
    frameAddr(std::uint64_t set, unsigned way) const
    {
        return (set * kAssoc + way) << page_shift_;
    }

    /** In-DRAM tag row of @p set (co-located with its frames). */
    Addr
    tagRowAddr(std::uint64_t set) const
    {
        return frameAddr(set, 0);
    }

    /**
     * Resolve @p page_id's mapping: SRAM tag-buffer probe, with a
     * stacked tag read + buffer install on a buffer miss.
     * Returns the cycle the mapping is known.
     */
    Cycle resolveMapping(Cycle now, Addr page_id);

    /** Record a mapping change (lazy in-DRAM tag update). */
    void markMappingDirty(Cycle when, Addr page_id);

    /** Install @p page_id into the tag buffer (LRU victim). */
    TagBufEntry &installTagBuf(Cycle when, Addr page_id,
                               bool dirty);

    /** Batch-write every dirty mapping to the in-DRAM tags. */
    void flushTagBuffer(Cycle when);

    /** Way caching @p page_id, or kAssoc when absent. */
    unsigned findWay(std::uint64_t set, Addr page_id) const;

    /** Candidate bookkeeping; installs the page on a victory. */
    void considerFill(Cycle when, Addr page_id,
                      std::uint64_t set);

    /**
     * Whole-page fill into (set, way), evicting the resident.
     * @return false when the tenant quota bypassed the install.
     */
    bool installPage(Cycle when, Addr page_id, std::uint64_t set,
                     unsigned way, std::uint32_t freq);

    DramSystem &stacked_;
    DramSystem &offchip_;
    std::uint64_t frames_;
    std::uint64_t sets_;
    unsigned blocks_per_page_;
    unsigned offset_mask_;
    unsigned page_shift_;
    std::vector<Way> ways_;
    std::vector<Candidate> cand_;
    std::vector<TagBufEntry> tagbuf_;
    std::uint64_t tb_tick_ = 0;
    std::uint32_t tb_dirty_ = 0;
    /** Per-tenant set ranges (disabled outside setpart). */
    SetPartitionSpec partition_;
    /** Per-tenant frame quota (tenant.policy=quota). */
    TenantQuota quota_;
    /** Introspection sink (null = off; see introspection.hh). */
    CacheIntrospection *intro_ = nullptr;

    StatGroup stats_;
    Counter demand_accesses_;
    Counter hits_;
    Counter misses_;
    Counter bypassed_misses_;
    Counter quota_bypass_;
    Counter fills_;
    Counter replacements_;
    Counter fill_blocks_written_;
    Counter offchip_fill_blocks_;
    Counter dirty_blocks_evicted_;
    Counter tb_hits_;
    Counter tb_misses_;
    Counter tb_flushes_;
    Counter tb_flushed_;
    Counter wb_hits_;
    Counter wb_misses_;
};

} // namespace fpc

#endif // FPC_DRAMCACHE_BANSHEE_CACHE_HH
