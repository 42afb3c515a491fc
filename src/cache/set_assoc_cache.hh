/**
 * @file
 * Generic functional set-associative SRAM cache.
 *
 * Used for the per-core L1D caches and the shared per-pod L2 (Table 3
 * of the paper). Write-back, write-allocate, with LRU or random
 * replacement. Purely functional: timing is applied by the system
 * model (fixed load-to-use/hit latencies for SRAM structures).
 */

#ifndef FPC_CACHE_SET_ASSOC_CACHE_HH
#define FPC_CACHE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace fpc {

/** Replacement policy selection for SetAssocCache. */
enum class ReplPolicy : std::uint8_t
{
    Lru,
    Random,
};

/** Result of a cache access or fill. */
struct CacheAccessResult
{
    /** Did the access hit? */
    bool hit = false;

    /** Was a valid line evicted to make room? */
    bool victimValid = false;

    /** Was the evicted line dirty (needs writeback)? */
    bool victimDirty = false;

    /** Block-aligned address of the evicted line. */
    Addr victimAddr = 0;

    /**
     * Global index (set * assoc + way) of the line that hit, or of
     * the way filled on a miss. Lets callers attach side state to
     * lines (e.g. the hierarchy's L1-presence masks).
     */
    std::uint32_t lineIndex = 0;
};

/**
 * Functional set-associative cache over fixed-size blocks.
 *
 * Capacity, associativity and block size must be powers of two.
 */
class SetAssocCache
{
  private:
    /**
     * Per-line replacement/dirty metadata (tags live in keys_),
     * packed to 8 bytes so a 16-way set's metadata spans two cache
     * lines. The 32-bit LRU stamp wraps after 4G accesses to one
     * cache; past that point replacement quality degrades (the
     * wrapped entries look recent) but behavior stays
     * deterministic.
     */
    struct LineMeta
    {
        std::uint32_t lastUse = 0;
        bool dirty = false;
    };

  public:
    struct Config
    {
        std::uint64_t sizeBytes = 64 * 1024;
        unsigned assoc = 4;
        unsigned blockBytes = kBlockBytes;
        ReplPolicy repl = ReplPolicy::Lru;
        /** Seed for random replacement. */
        std::uint64_t seed = 1;

        bool operator==(const Config &) const = default;
    };

    SetAssocCache(const Config &config, std::string stat_name);

    /**
     * Look up @p addr; on miss, allocate (evicting per policy).
     *
     * Defined inline below: the hit path is the hottest few
     * instructions of the whole simulator and must inline into
     * the hierarchy's access loop.
     *
     * @param addr byte address of the access.
     * @param is_write marks the (possibly filled) line dirty.
     * @return hit/miss and victim information.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Miss path of access(): victim selection and fill. */
    CacheAccessResult accessMiss(Addr addr, bool is_write);

    /** Look up without allocating or updating recency. */
    bool probe(Addr addr) const;

    /**
     * Invalidate the line holding @p addr if present.
     *
     * @return true and set @p was_dirty if a line was invalidated.
     */
    bool invalidate(Addr addr, bool &was_dirty);

    std::uint64_t numSets() const { return num_sets_; }
    unsigned assoc() const { return config_.assoc; }
    std::uint64_t sizeBytes() const { return config_.sizeBytes; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    double
    missRatio() const
    {
        std::uint64_t total = hits_.value() + misses_.value();
        return total ? static_cast<double>(misses_.value()) / total
                     : 0.0;
    }

    const StatGroup &stats() const { return stats_; }
    void resetStats() { stats_.resetAll(); }

    /**
     * Complete mutable state of the cache. Snapshots taken from
     * one instance can be restored into any instance built with
     * the same Config — the warmup-artifact fast path relies on
     * restore being indistinguishable from having performed the
     * accesses.
     */
    struct Snapshot
    {
        std::vector<Addr> keys;
        std::vector<LineMeta> meta;
        std::uint64_t tick = 0;
        std::uint64_t randState = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t writebacks = 0;
    };

    void saveState(Snapshot &out) const;
    void restoreState(const Snapshot &s);

    /** Bytes of mutable state (snapshot budget accounting). */
    std::uint64_t
    stateBytes() const
    {
        return keys_.size() * (sizeof(Addr) + sizeof(LineMeta));
    }

  private:
    /** keys_ sentinel for an invalid line. */
    static constexpr Addr kNoTag = ~static_cast<Addr>(0);

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> block_shift_) & set_mask_;
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr >> block_shift_ >> set_bits_;
    }

    Addr
    rebuildAddr(Addr tag, std::uint64_t set) const
    {
        return ((tag << set_bits_) | set) << block_shift_;
    }

    Config config_;
    std::uint64_t num_sets_;
    unsigned block_shift_;
    /** floorLog2(num_sets_), precomputed off the access path. */
    unsigned set_bits_;
    /** num_sets_ - 1. */
    std::uint64_t set_mask_;
    /**
     * Packed per-line tags (kNoTag when invalid): the associative
     * scan reads 8 bytes per way — a 4-way L1 set is half a cache
     * line, a 16-way L2 set two lines — instead of a whole struct.
     */
    std::vector<Addr> keys_;
    std::vector<LineMeta> meta_;
    std::uint64_t tick_ = 0;
    std::uint64_t rand_state_;

    StatGroup stats_;
    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter writebacks_;
};

inline CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write)
{
    ++tick_;
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const std::size_t base = set * config_.assoc;

    const unsigned match_way =
        scanWays(&keys_[base], config_.assoc, tag);
    if (match_way != config_.assoc) {
        LineMeta &meta = meta_[base + match_way];
        meta.lastUse = static_cast<std::uint32_t>(tick_);
        meta.dirty |= is_write;
        hits_.inc();
        CacheAccessResult res;
        res.hit = true;
        res.lineIndex =
            static_cast<std::uint32_t>(base + match_way);
        return res;
    }
    return accessMiss(addr, is_write);
}

} // namespace fpc

#endif // FPC_CACHE_SET_ASSOC_CACHE_HH
