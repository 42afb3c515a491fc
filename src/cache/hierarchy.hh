/**
 * @file
 * Functional on-chip SRAM cache hierarchy of one scale-out pod:
 * a private L1D per core plus a shared, inclusive L2 (Table 3).
 *
 * The hierarchy filters the raw access trace into the LLC-miss and
 * LLC-writeback stream that the die-stacked DRAM cache observes.
 * Coherence is enforced at the L2 (§7 of the paper): L2 evictions
 * back-invalidate the L1 copies, and a dirty copy at either level
 * turns the eviction into a memory writeback.
 */

#ifndef FPC_CACHE_HIERARCHY_HH
#define FPC_CACHE_HIERARCHY_HH

#include <array>
#include <memory>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/stats.hh"
#include "mem/request.hh"

namespace fpc {

/** What one access did to the on-chip hierarchy. */
struct HierarchyOutcome
{
    /** Hit in the issuing core's L1D. */
    bool l1Hit = false;

    /** Hit in the shared L2 (only meaningful when !l1Hit). */
    bool l2Hit = false;

    /** Number of dirty-line writebacks emitted towards memory. */
    unsigned numWritebacks = 0;

    /**
     * Block-aligned addresses of the emitted writebacks. Only
     * entries [0, numWritebacks) are valid (the tail is left
     * uninitialized — this struct is built on every access).
     */
    std::array<Addr, 3> writebackAddr;

    /** True when the access must be served below the L2. */
    bool llcMiss() const { return !l1Hit && !l2Hit; }
};

/** Pod cache hierarchy: N private L1Ds and one shared L2. */
class CacheHierarchy
{
  public:
    struct Config
    {
        unsigned numCores = 16;
        SetAssocCache::Config l1;
        SetAssocCache::Config l2;

        /** Table 3 configuration: 64KB L1D, 4MB 16-way L2. */
        static Config scaleOutPod(unsigned num_cores = 16);

        bool operator==(const Config &) const = default;
    };

    explicit CacheHierarchy(const Config &config);

    /**
     * Run one access through L1 and (on miss) L2.
     *
     * The returned outcome carries any dirty writebacks the access
     * forced out of the hierarchy; the caller forwards LLC misses
     * and writebacks to the memory system below. Under
     * multi-tenant colocation the request's tenantId (and the
     * tenant bits of its address) ride through unchanged: the
     * L1/L2 are shared by core mapping, per-tenant attribution
     * happens at the pod and memory-system layers, and writeback
     * addresses still identify their owning tenant.
     */
    HierarchyOutcome access(const MemRequest &req);

    std::uint64_t l1Hits() const { return l1_hits_.value(); }
    std::uint64_t l1Misses() const { return l1_misses_.value(); }
    std::uint64_t l2Hits() const { return l2_hits_.value(); }
    std::uint64_t l2Misses() const { return l2_misses_.value(); }
    std::uint64_t llcWritebacks() const { return llc_wb_.value(); }

    unsigned numCores() const { return config_.numCores; }

    const StatGroup &stats() const { return stats_; }

    /**
     * Complete mutable state of the hierarchy, restorable into
     * any hierarchy built with an identical Config. Because the
     * hierarchy has no feedback from the memory system below,
     * its warmup evolution depends only on the request stream —
     * which is what lets one snapshot serve every design point
     * sharing a trace (see WarmupArtifact).
     */
    struct Snapshot
    {
        std::vector<SetAssocCache::Snapshot> l1d;
        SetAssocCache::Snapshot l2;
        std::vector<std::uint32_t> l1Presence;
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t llcWritebacks = 0;
    };

    void saveState(Snapshot &out) const;
    void restoreState(const Snapshot &s);

    /** Bytes of mutable state (snapshot budget accounting). */
    std::uint64_t stateBytes() const;

  private:
    void backInvalidate(Addr addr, bool l2_dirty,
                        std::uint32_t present_mask,
                        HierarchyOutcome &out);

    Config config_;
    std::vector<std::unique_ptr<SetAssocCache>> l1d_;
    std::unique_ptr<SetAssocCache> l2_;

    /**
     * Per-L2-line bitmask of cores whose L1D may hold the block —
     * a conservative superset (bits go stale when an L1 silently
     * evicts). Back-invalidation probes only flagged cores instead
     * of all of them; unflagged cores cannot hold the line, so the
     * outcome is identical to probing everyone.
     */
    std::vector<std::uint32_t> l1_presence_;

    StatGroup stats_;
    Counter l1_hits_;
    Counter l1_misses_;
    Counter l2_hits_;
    Counter l2_misses_;
    Counter llc_wb_;
};

} // namespace fpc

#endif // FPC_CACHE_HIERARCHY_HH
