/**
 * @file
 * Byte-budgeted cache of materialized sweep artifacts.
 *
 * The sweep runner shares two kinds of immutable, identity-keyed
 * artifacts across experiment points: materialized trace arenas
 * and functional-warmup artifacts. Both are expensive to build and
 * cheap to replay, so the cache guarantees each key is built at
 * most once at a time: the first acquirer runs the builder while
 * concurrent acquirers of the same key block on the slot (the
 * `std::once_flag` pattern, but per-key and evictable), then all
 * of them share the immutable result.
 *
 * Memory stays bounded by a byte budget: entries not referenced by
 * any consumer (shared_ptr refcount) are evicted least-recently-
 * used first whenever the total exceeds the budget, checked on
 * every acquire() and after every build. Pinned entries are never
 * evicted, so the cache can transiently exceed its budget rather
 * than break sharing — correctness and determinism first,
 * footprint second. An evicted key is simply rebuilt on the next
 * acquire (counted as a regeneration); at a budget of 0 nothing
 * outlives its last holder, so every acquire of a key nobody
 * holds rebuilds it.
 */

#ifndef FPC_MEM_TRACE_CACHE_HH
#define FPC_MEM_TRACE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.hh"

namespace fpc {

/** Anything the TraceCache can hold; reports its footprint. */
class TraceCacheEntry
{
  public:
    virtual ~TraceCacheEntry() = default;

    /** Bytes charged against the cache budget. */
    virtual std::uint64_t cacheBytes() const = 0;
};

/** Aggregate counters of one TraceCache (reported by --time). */
struct TraceCacheStats
{
    /** acquire() calls served from a ready entry. */
    std::uint64_t hits = 0;

    /** acquire() calls that had to build the entry. */
    std::uint64_t misses = 0;

    /** Misses whose key had been built before (evicted since). */
    std::uint64_t regenerations = 0;

    /** Entries dropped to respect the byte budget. */
    std::uint64_t evictions = 0;

    /** Entries released right after their last planned use. */
    std::uint64_t released = 0;

    /** acquire() calls that blocked on another thread's build. */
    std::uint64_t waits = 0;

    /** Highest simultaneous resident byte total observed. */
    std::uint64_t peakBytes = 0;

    /**
     * Builder invocations that threw. The slot is erased and the
     * waiters retake the build, so a transient build failure
     * costs a retry, never a poisoned entry; a nonzero count in
     * the --time report flags the sweep paid for rebuild(s).
     */
    std::uint64_t buildFailures = 0;

    /** Wall-clock seconds spent inside builders. */
    double buildSeconds = 0.0;
};

/** Keyed, byte-budgeted, build-once artifact cache. */
class TraceCache
{
  public:
    using EntryPtr = std::shared_ptr<const TraceCacheEntry>;

    /**
     * Builder invoked (unlocked) by the acquirer that wins the
     * slot. @p units is the planned unit count for the key (see
     * plan()); builders that have no unit semantics ignore it.
     */
    using Builder = std::function<EntryPtr(std::uint64_t units)>;

    explicit TraceCache(std::uint64_t budget_bytes);

    /**
     * Lifecycle-event hook: invoked with ("build", key) after a
     * successful build, ("evict", key) when the LRU sweep drops
     * an entry and ("release", key) when the last planned use is
     * served. Wired by the sweep runner into the span tracer
     * (--trace-out); purely observational — never affects cache
     * behavior or results. Set it before any concurrent
     * acquire() (not synchronized against in-flight calls).
     * "evict"/"release" fire under the cache mutex, so the hook
     * must not reenter the cache.
     */
    using EventHook =
        std::function<void(const char *, const std::string &)>;
    void setEventHook(EventHook hook) { hook_ = std::move(hook); }

    /**
     * Record @p acquires future acquire() calls of @p key needing
     * at least @p units (for trace arenas: records). Builders
     * receive the maximum planned over all callers, so one build
     * covers every point sharing the identity even when their
     * windows differ — and the cache counts the planned uses,
     * releasing the entry as soon as the last one has been served
     * (consumers still hold it via shared_ptr). Resident memory
     * therefore tracks the identities currently in flight, not
     * the whole sweep. A point that acquires the same identity
     * more than once (e.g. its main trace doubles as an extra
     * need) must plan every acquire, or the entry is released
     * early and rebuilt — pass the per-point acquire count here.
     */
    void plan(const std::string &key, std::uint64_t units,
              std::uint64_t acquires = 1);

    /**
     * Return the entry for @p key, building it (at most once per
     * residency) when absent. Blocks while another thread builds
     * the same key. A resident entry with fewer units than
     * @p min_units is rebuilt at the larger size.
     *
     * The returned shared_ptr pins the entry: it cannot be
     * evicted until every consumer drops its reference.
     *
     * A wait on another thread's build ends in PointCancelledError
     * once @p deadline passes; the build itself goes on. A
     * builder that throws (a cancelled build included) leaves no
     * slot, and the next acquirer of the key rebuilds it.
     */
    EntryPtr acquire(const std::string &key,
                     std::uint64_t min_units,
                     const Builder &build,
                     Deadline deadline = kNoDeadline);

    /** Resident bytes right now. */
    std::uint64_t currentBytes() const;

    std::uint64_t budgetBytes() const { return budget_; }

    TraceCacheStats stats() const;

  private:
    struct Slot
    {
        EntryPtr entry;
        std::uint64_t units = 0;
        bool building = false;
        /** Monotonic recency stamp (for LRU eviction). */
        std::uint64_t lastUse = 0;
    };

    /** Serve a ready slot: stats, use accounting, eager drop. */
    EntryPtr takeLocked(
        std::unordered_map<std::string, Slot>::iterator it);

    /** Drop unpinned LRU entries until within budget (locked). */
    void evictLocked();

    /** Aggregated plan() state of one key. */
    struct Planned
    {
        std::uint64_t units = 0;
        std::uint64_t uses = 0;
    };

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<std::string, Slot> slots_;
    std::unordered_map<std::string, Planned> planned_;
    /** Keys ever built (distinguishes regenerations). */
    std::unordered_set<std::string> everBuilt_;
    std::uint64_t budget_;
    std::uint64_t bytes_ = 0;
    std::uint64_t tick_ = 0;
    TraceCacheStats stats_;
    EventHook hook_;
};

} // namespace fpc

#endif // FPC_MEM_TRACE_CACHE_HH
