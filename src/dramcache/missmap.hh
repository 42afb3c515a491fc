/**
 * @file
 * MissMap (§5.2, after Loh & Hill [24]).
 *
 * A compact SRAM structure that tracks the presence of cached
 * blocks at 4KB-segment granularity so the block-based design can
 * avoid DRAM tag lookups on misses. Every cached block has its bit
 * set in exactly one MissMap entry; evicting a MissMap entry
 * therefore forces eviction of every tracked block of that segment
 * from the DRAM cache — the pathology the paper observes at 512MB
 * (scattered rows, excessive activations).
 */

#ifndef FPC_DRAMCACHE_MISSMAP_HH
#define FPC_DRAMCACHE_MISSMAP_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fpc {

/** Set-associative presence tracker over 4KB segments. */
class MissMap
{
  public:
    /** Tracking granularity: one entry covers a 4KB segment
     * (§5.2, after Loh & Hill [24]). */
    static constexpr unsigned kSegmentBytes = 4096;
    static_assert(kSegmentBytes / kBlockBytes <= 64);

    struct Config
    {
        std::uint32_t entries = 192 * 1024;
        std::uint32_t assoc = 24;
    };

    explicit MissMap(const Config &config);

    /** Is the block present in the DRAM cache? */
    bool present(Addr block_addr) const;

    /** Prefetch the set tracking @p block_addr (warmup loop). */
    void
    prefetchSet(Addr block_addr) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setOf(
                segmentOf(block_addr))) *
            config_.assoc;
        __builtin_prefetch(&entries_[base]);
        __builtin_prefetch(&entries_[base + 2]);
    }

    /** Eviction of a tracked segment (forced block evictions). */
    struct Victim
    {
        bool valid = false;
        Addr segmentId = 0;
        BlockBitmap presentBlocks;
    };

    /**
     * Mark @p block_addr present, allocating an entry for its
     * segment if needed; a displaced segment is returned through
     * @p victim so the cache can flush its blocks.
     */
    void setBit(Addr block_addr, Victim &victim);

    /** Mark @p block_addr absent (block evicted from the cache). */
    void clearBit(Addr block_addr);

    std::uint64_t entryEvictions() const
    {
        return entry_evictions_.value();
    }

    /** SRAM size in bits (Table 4: ~1.95MB at 192K entries). */
    std::uint64_t storageBits(unsigned phys_addr_bits) const;

    static constexpr unsigned kBlocksPerSegment =
        kSegmentBytes / kBlockBytes;

  private:
    /** One tracked segment; valid while any of its bits is set
     * (clearBit frees an entry whose last bit it clears). */
    struct Entry
    {
        Addr segmentId = 0;
        BlockBitmap bits;
        std::uint64_t lastUse = 0;

        bool valid() const { return !bits.empty(); }
    };

    Addr
    segmentOf(Addr block_addr) const
    {
        return block_addr / kSegmentBytes;
    }

    unsigned
    bitOf(Addr block_addr) const
    {
        return static_cast<unsigned>(
            (block_addr % kSegmentBytes) / kBlockBytes);
    }

    std::uint32_t setOf(Addr segment_id) const;
    Entry *find(Addr segment_id, bool touch);

    Config config_;
    std::uint32_t sets_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;
    Counter entry_evictions_;
};

} // namespace fpc

#endif // FPC_DRAMCACHE_MISSMAP_HH
