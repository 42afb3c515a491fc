/**
 * @file
 * Cache introspection layer: miss attribution, footprint-specific
 * miss taxonomy, fill-accuracy tallies and spatial set heatmaps.
 *
 * One CacheIntrospection instance is owned by the pod and attached
 * to the memory system at the measurement boundary, so every
 * counter covers exactly the measured window. Everything is opt-in
 * and branch-guarded: with introspection off the pod allocates
 * nothing, the designs' hook sites test one predictable null
 * pointer, and measured metrics stay bit-identical to a build that
 * never heard of introspection.
 *
 * Miss attribution follows the classical three-C methodology over
 * a deterministic 1-in-K sample of cache sets: a block's first
 * reference is compulsory; a miss that would have hit a
 * fully-associative LRU cache of the same capacity is a conflict
 * (the set mapping, not the capacity, evicted it); the rest are
 * capacity misses. Set sampling keeps the shadow directory's
 * memory and time cost at 1/K of full shadowing while remaining
 * schedule-independent (the sampled sets are a pure function of
 * the address and the stride; K rounds up to a power of two so
 * the sample filter is one mask on the hot path).
 *
 * The shadow directory is built for the measured hot path: an
 * open-addressing table pointing into a flat node pool whose
 * prev/next indices form the LRU chain (one cache line for the
 * probe, one for the node — no per-entry heap nodes), and
 * "referenced before" is derived as shadow-resident OR member of
 * the evicted-block set, so shadow hits never touch a second
 * structure.
 */

#ifndef FPC_TELEMETRY_INTROSPECTION_HH
#define FPC_TELEMETRY_INTROSPECTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/telemetry.hh"

namespace fpc {

/** Shadow-directory + heatmap introspection of one cache design. */
class CacheIntrospection
{
  public:
    /** Modeled shadow associativity (sets x ways x 64B). */
    static constexpr unsigned kShadowWays = 16;

    /** Maximum per-set heatmap bins (sets decimate into these). */
    static constexpr unsigned kMaxSetBins = 64;

    /** Reads the introspection fields of @p config:
     * missAttributionStride (stored rounded up to a power of
     * two), designProbes, heatmaps and shadowCapacityBytes. */
    explicit CacheIntrospection(const TelemetryConfig &config);

    CacheIntrospection(const CacheIntrospection &) = delete;
    CacheIntrospection &operator=(const CacheIntrospection &) =
        delete;

    const TelemetryConfig &config() const { return config_; }

    /**
     * Observe one demand access on the pod's measured path.
     * Classifies sampled misses as compulsory/capacity/conflict
     * against the shadow directory. No-op unless miss attribution
     * is configured; the non-sampled reject is inline (one load,
     * one mask, one predictable branch) so the per-access cost
     * does not scale with the reference stream.
     */
    void
    observeDemand(Addr paddr, bool hit)
    {
        const Addr block = paddr >> kBlockShift;
        if ((block & sample_mask_) != 0)
            return;
        observeSampledBlock(block, hit);
    }

    /* ---- Design-side hooks (called only while attached). ---- */

    /**
     * A page-granularity triggering miss on @p page_id: counted
     * as a cold-page miss on the first trigger ever seen for the
     * page, as an evicted-page miss on any re-trigger.
     */
    void
    noteTriggeringMiss(Addr page_id)
    {
        if (pages_seen_.insert(page_id))
            ++trig_cold_page_;
        else
            ++trig_evicted_page_;
    }

    /** A block miss within a resident page (underfetch). */
    void noteUnderfetchMiss() { ++underfetch_misses_; }

    /** @p n blocks fetched into the cache by a fill. */
    void noteFetchedBlocks(std::uint64_t n)
    {
        fetched_blocks_ += n;
    }

    /** @p n fetched blocks that were actually demanded. */
    void noteTouchedBlocks(std::uint64_t n)
    {
        touched_blocks_ += n;
    }

    /**
     * Declare the design's set space for the spatial heatmap.
     * Call once at attach time; decimation stride is
     * ceil(num_sets / kMaxSetBins). No-op when heatmaps are off.
     */
    void configureSetSpace(std::uint64_t num_sets);

    /** True once configureSetSpace armed the set heatmap. */
    bool setSpaceConfigured() const { return set_bin_shift_ < 64; }

    /** One demand access touched @p set. */
    void
    noteSetAccess(std::uint64_t set)
    {
        if (setSpaceConfigured())
            ++set_access_[binOf(set)];
    }

    /** An allocation into @p set displaced a valid entry. */
    void
    noteSetConflict(std::uint64_t set)
    {
        if (setSpaceConfigured())
            ++set_conflict_[binOf(set)];
    }

    /**
     * @p n entries resident in @p set (finalize-time occupancy
     * walk; the design calls this once per occupied set).
     */
    void
    noteSetOccupied(std::uint64_t set, std::uint64_t n)
    {
        if (setSpaceConfigured())
            set_occupancy_[binOf(set)] += n;
    }

    /* ---- Harvest side. ---- */

    /**
     * Names of the introspection scalar counters, in the fixed
     * order appendValues() emits them. Stable across designs so
     * timeseries columns line up in every artifact.
     */
    static const std::vector<std::string> &counterNames();

    /** Append the scalar counters in counterNames() order. */
    void appendValues(std::vector<std::uint64_t> &out) const;

    /* Scalar accessors (tests and extras). */
    std::uint64_t sampledDemand() const { return sampled_demand_; }
    std::uint64_t sampledMisses() const { return sampled_misses_; }
    std::uint64_t compulsoryMisses() const { return compulsory_; }
    std::uint64_t capacityMisses() const { return capacity_; }
    std::uint64_t conflictMisses() const { return conflict_; }
    std::uint64_t coldPageTriggers() const
    {
        return trig_cold_page_;
    }
    std::uint64_t evictedPageTriggers() const
    {
        return trig_evicted_page_;
    }
    std::uint64_t underfetchMisses() const
    {
        return underfetch_misses_;
    }
    std::uint64_t fetchedBlocks() const { return fetched_blocks_; }
    std::uint64_t touchedBlocks() const { return touched_blocks_; }

    /* Heatmap accessors. */
    std::uint64_t numSets() const { return num_sets_; }
    unsigned setBins() const
    {
        return static_cast<unsigned>(set_access_.size());
    }
    std::uint64_t setsPerBin() const
    {
        return std::uint64_t{1} << set_bin_shift_;
    }
    const std::vector<std::uint64_t> &setAccess() const
    {
        return set_access_;
    }
    const std::vector<std::uint64_t> &setConflict() const
    {
        return set_conflict_;
    }
    const std::vector<std::uint64_t> &setOccupancy() const
    {
        return set_occupancy_;
    }

  private:
    std::size_t
    binOf(std::uint64_t set) const
    {
        std::size_t bin =
            static_cast<std::size_t>(set >> set_bin_shift_);
        return bin < set_access_.size() ? bin
                                        : set_access_.size() - 1;
    }

    /**
     * Fixed-capacity fully-associative LRU directory, laid out
     * flat: open-addressing table of node indices over a node
     * pool whose prev/next indices carry the recency chain. A
     * touch costs one linear probe plus one node relink;
     * eviction recycles the LRU node in place (backward-shift
     * deletion keeps the table tombstone-free).
     */
    class ShadowLru
    {
      public:
        static constexpr std::uint32_t kNil = 0xffffffffu;

        void init(std::uint64_t capacity);

        /**
         * Move @p block to MRU, inserting it if absent. Returns
         * whether it was already resident; when the insert
         * evicted the LRU block, sets @p evicted (left untouched
         * otherwise).
         */
        bool touch(Addr block, bool &did_evict, Addr &evicted);

      private:
        struct Node
        {
            Addr key;
            std::uint32_t prev;
            std::uint32_t next;
        };

        std::size_t slotOf(Addr key) const;
        void eraseSlot(std::size_t slot);
        void unlink(std::uint32_t idx);
        void pushFront(std::uint32_t idx);

        std::vector<Node> nodes_;
        /** Open addressing: node index + 1, 0 = empty slot. */
        std::vector<std::uint32_t> table_;
        std::size_t mask_ = 0;
        std::uint32_t head_ = kNil;
        std::uint32_t tail_ = kNil;
        std::uint32_t count_ = 0;
        std::uint32_t capacity_ = 0;
    };

    /** Open-addressing set of addresses (grow-on-load). */
    class AddrSet
    {
      public:
        void init(std::size_t expected);
        bool contains(Addr key) const;
        /** Insert @p key; true when it was not present before. */
        bool insert(Addr key);

      private:
        static constexpr Addr kEmpty = ~Addr{0};

        void grow();

        std::vector<Addr> slots_;
        std::size_t mask_ = 0;
        std::size_t size_ = 0;
    };

    /** Slow path of observeDemand: the block passed the sample
     * filter. Classifies against the shadow directory. */
    void observeSampledBlock(Addr block, bool hit);

    TelemetryConfig config_;

    /* Shadow directory (miss attribution). */
    std::uint64_t shadow_sets_ = 0;
    std::uint64_t shadow_capacity_entries_ = 0;
    /** Sampled iff (block & sample_mask_) == 0 (stride - 1 on
     * the low set bits; ~0 when attribution is off so the filter
     * rejects everything without a second branch). */
    Addr sample_mask_ = ~Addr{0};
    ShadowLru shadow_;
    /** Blocks evicted from the shadow: with shadow residency,
     * reconstructs "referenced before" without a per-access
     * lookup in a second structure. */
    AddrSet evicted_blocks_;

    /* Footprint miss taxonomy (flat set: triggering misses are
     * frequent enough that node-based sets dominate the enabled
     * cost). */
    AddrSet pages_seen_;

    /* Scalar counters (order mirrors counterNames()). */
    std::uint64_t sampled_demand_ = 0;
    std::uint64_t sampled_misses_ = 0;
    std::uint64_t compulsory_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t conflict_ = 0;
    std::uint64_t trig_cold_page_ = 0;
    std::uint64_t trig_evicted_page_ = 0;
    std::uint64_t underfetch_misses_ = 0;
    std::uint64_t fetched_blocks_ = 0;
    std::uint64_t touched_blocks_ = 0;

    /* Set heatmap (empty until configureSetSpace). */
    std::uint64_t num_sets_ = 0;
    /** log2(sets per bin); 64 = unconfigured sentinel. */
    unsigned set_bin_shift_ = 64;
    std::vector<std::uint64_t> set_access_;
    std::vector<std::uint64_t> set_conflict_;
    std::vector<std::uint64_t> set_occupancy_;
};

} // namespace fpc

#endif // FPC_TELEMETRY_INTROSPECTION_HH
