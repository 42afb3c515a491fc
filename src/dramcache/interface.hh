/**
 * @file
 * Common interface of every below-L2 memory system organization:
 * the no-cache baseline, the ideal die-stacked memory, and the
 * block-based, page-based and Footprint DRAM caches.
 */

#ifndef FPC_DRAMCACHE_INTERFACE_HH
#define FPC_DRAMCACHE_INTERFACE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"
#include "mem/request.hh"

namespace fpc {

class CacheIntrospection;
class StatGroup;

/** Completion of one LLC-miss access to the memory system. */
struct MemSystemResult
{
    /** Cycle at which the demanded block reaches the L2. */
    Cycle doneAt = 0;

    /** Served from the die-stacked DRAM without off-chip access. */
    bool cacheHit = false;
};

/**
 * The memory system one pod sees below its L2.
 *
 * Demand accesses are LLC (L2) misses; writebacks are dirty L2
 * evictions. Implementations update their DRAM channel models and
 * their own statistics as side effects.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /**
     * Hint that @p paddr is about to be accessed: implementations
     * prefetch the tag/tracking state it will touch into the host
     * caches. Used by the warmup loop's lookahead; never changes
     * simulated state.
     */
    virtual void prefetchFor(Addr paddr) const { (void)paddr; }

    /**
     * Second prefetch stage, issued once the stage-1 lines have
     * arrived: implementations may peek the tag keys and prefetch
     * the matching way's payload. No simulated side effects.
     */
    virtual void prefetchFor2(Addr paddr) const { (void)paddr; }

    /** Serve an LLC demand miss (always a memory read). */
    virtual MemSystemResult access(Cycle now,
                                   const MemRequest &req) = 0;

    /** Accept a dirty-block writeback from the LLC. */
    virtual void writeback(Cycle now, Addr block_addr) = 0;

    /** Short identifier ("baseline", "block", "page", ...). */
    virtual std::string designName() const = 0;

    /** Demand accesses observed. */
    virtual std::uint64_t demandAccesses() const = 0;

    /**
     * Demand accesses whose block was served from the stacked
     * DRAM (block-granularity hits, as plotted in Figure 5a).
     */
    virtual std::uint64_t demandHits() const = 0;

    /**
     * Attach the cache-introspection sink (null detaches). The
     * pod calls this at the measurement boundary; implementations
     * store the pointer, declare their set space
     * (CacheIntrospection::configureSetSpace) and thereafter feed
     * the design-side hooks behind one predictable null test per
     * site. The default ignores the sink (baseline/ideal have no
     * introspectable structure).
     */
    virtual void
    attachIntrospection(CacheIntrospection *intro)
    {
        (void)intro;
    }

    /**
     * Flush end-of-window introspection state (resident-entry
     * occupancy walks, still-resident touched-block tallies).
     * Called once by the pod after the measured window, before
     * the final metric capture. Default no-op.
     */
    virtual void finalizeIntrospection() {}

    /**
     * Visit the design's StatGroups in a fixed order (the uniform
     * DesignProbe surface): every registered counter becomes one
     * "group.counter" probe column of the interval stream when
     * --design-probes is on. Default: no groups.
     */
    virtual void
    visitStatGroups(
        const std::function<void(const StatGroup &)> &fn) const
    {
        (void)fn;
    }

    /** Block-granularity DRAM-cache miss ratio (Figure 5a). */
    double
    missRatio() const
    {
        const std::uint64_t total = demandAccesses();
        if (total == 0)
            return 0.0;
        return static_cast<double>(total - demandHits()) / total;
    }
};

} // namespace fpc

#endif // FPC_DRAMCACHE_INTERFACE_HH
