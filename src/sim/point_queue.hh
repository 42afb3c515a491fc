/**
 * @file
 * Build-aware work queue of a sweep's worker pool.
 *
 * Points that share a trace identity share its arena, warmup
 * artifact and sample-span artifact through the TraceCache: the
 * first acquirer builds an entry and every concurrent acquirer of
 * the same key blocks until the build is done. Handing points out
 * in batch order therefore parks a worker on the build its
 * neighbour just started. The queue knows each point's cache keys
 * and hands a free worker the first pending point that would not
 * block, so workers run other points instead of waiting.
 */

#ifndef FPC_SIM_POINT_QUEUE_HH
#define FPC_SIM_POINT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fpc {

/** How a PointQueue ordered its picks (--time, --time-out). */
struct SchedulerStats
{
    /** Picks that skipped a blocked front point. */
    std::uint64_t deferred = 0;

    /** Picks that found every pending point blocked and took the
     * front one, which then waits on the build in flight. */
    std::uint64_t fallbacks = 0;
};

/**
 * Hands out items 0..n-1, each exactly once, to any number of
 * workers. Item i needs the cache keys keys[i].
 *
 * A key is claimed by the first item taken that needs it, from
 * the take() until that item's finish(); no later item ever
 * claims it again (the entry is built, or its build failed and
 * the next acquirer rebuilds it in its own time). take() returns
 * the first pending item none of whose keys is claimed; when every
 * pending item is blocked it returns the first one anyway
 * (a fallback). So:
 *   - with one worker nothing is claimed at pick time and items
 *     come out in input order;
 *   - items without keys come out in input order, like a cursor;
 *   - an item is pulled forward only where a worker would
 *     otherwise block, so at most one first build per worker is
 *     in flight.
 * All members are safe to call concurrently.
 */
class PointQueue
{
  public:
    struct Pick
    {
        std::size_t item = 0;

        /** Every pending item was blocked when this one was
         * taken. */
        bool fallback = false;
    };

    explicit PointQueue(
        const std::vector<std::vector<std::string>> &keys);

    /** The next item to run, or nothing once all were taken. */
    std::optional<Pick> take();

    /** @p item (a taken one) is done: its claims stop blocking. */
    void finish(std::size_t item);

    SchedulerStats stats() const;

  private:
    enum class Claim : std::uint8_t { Never, Held, Released };

    bool blocked(std::size_t item) const;

    mutable std::mutex mu_;
    /** Per item: ids of the keys it needs. */
    std::vector<std::vector<std::size_t>> needs_;
    /** Per item: ids of the keys its take() claimed. */
    std::vector<std::vector<std::size_t>> holds_;
    /** Per key id. */
    std::vector<Claim> claims_;
    /** Items not yet taken, in input order. */
    std::vector<std::size_t> pending_;
    SchedulerStats stats_;
};

} // namespace fpc

#endif // FPC_SIM_POINT_QUEUE_HH
