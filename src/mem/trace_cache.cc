#include "mem/trace_cache.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/logging.hh"

namespace fpc {

TraceCache::TraceCache(std::uint64_t budget_bytes)
    : budget_(budget_bytes)
{
}

void
TraceCache::plan(const std::string &key, std::uint64_t units,
                 std::uint64_t acquires)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Planned &planned = planned_[key];
    planned.units = std::max(planned.units, units);
    planned.uses += acquires;
}

TraceCache::EntryPtr
TraceCache::takeLocked(
    std::unordered_map<std::string, Slot>::iterator it)
{
    Slot &slot = it->second;
    EntryPtr out = slot.entry;
    slot.lastUse = ++tick_;
    auto pit = planned_.find(it->first);
    if (pit != planned_.end() && pit->second.uses > 0 &&
        --pit->second.uses == 0) {
        // Last planned use: nobody will ask again, so stop
        // charging the budget now. The entry stays alive through
        // the consumers' shared_ptrs and frees when the last one
        // finishes — resident memory tracks in-flight identities
        // rather than accumulating the whole sweep's history.
        bytes_ -= slot.entry->cacheBytes();
        ++stats_.released;
        if (hook_)
            hook_("release", it->first);
        slots_.erase(it);
    }
    return out;
}

TraceCache::EntryPtr
TraceCache::acquire(const std::string &key,
                    std::uint64_t min_units, const Builder &build,
                    Deadline deadline)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Entries over budget were pinned at the last build; the ones
    // released since go now, before they can serve this call.
    evictLocked();
    for (;;) {
        auto it = slots_.find(key);
        if (it == slots_.end())
            break; // we become the builder
        Slot &slot = it->second;
        if (slot.building) {
            // Another thread is building this key: block until
            // it publishes (or fails and removes the slot).
            ++stats_.waits;
            const auto published = [&] {
                auto cur = slots_.find(key);
                return cur == slots_.end() ||
                       !cur->second.building;
            };
            if (deadline == kNoDeadline)
                cv_.wait(lock, published);
            else if (!cv_.wait_until(lock, deadline, published))
                throw PointCancelledError("point deadline exceeded");
            continue; // re-evaluate from scratch
        }
        if (slot.units >= min_units) {
            ++stats_.hits;
            return takeLocked(it);
        }
        // Resident but too small (a caller the plan() pass did
        // not cover): rebuild at the larger size.
        bytes_ -= slot.entry->cacheBytes();
        slots_.erase(it);
        break;
    }

    // Build outside the lock; waiters block on the slot flag.
    Slot &slot = slots_[key];
    slot.building = true;
    ++stats_.misses;
    if (everBuilt_.count(key))
        ++stats_.regenerations;
    const std::uint64_t units =
        std::max(planned_[key].units, min_units);
    lock.unlock();

    EntryPtr entry;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        entry = build(units);
    } catch (...) {
        lock.lock();
        ++stats_.buildFailures;
        slots_.erase(key);
        cv_.notify_all();
        throw;
    }
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!entry) {
        lock.lock();
        slots_.erase(key);
        cv_.notify_all();
        throw std::runtime_error(
            "TraceCache builder returned null for key " + key);
    }
    if (hook_)
        hook_("build", key);

    lock.lock();
    stats_.buildSeconds += seconds;
    auto mine = slots_.find(key); // rehash-safe re-lookup
    mine->second.entry = entry;
    mine->second.units = units;
    mine->second.building = false;
    everBuilt_.insert(key);
    bytes_ += entry->cacheBytes();
    stats_.peakBytes = std::max(stats_.peakBytes, bytes_);
    EntryPtr out = takeLocked(mine);
    evictLocked();
    cv_.notify_all();
    return out;
}

void
TraceCache::evictLocked()
{
    while (bytes_ > budget_) {
        auto victim = slots_.end();
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            Slot &slot = it->second;
            // Only ready entries nobody outside the cache holds
            // are evictable; use_count is stable here because
            // new references are only handed out under mutex_.
            if (slot.building || slot.entry.use_count() > 1)
                continue;
            if (victim == slots_.end() ||
                slot.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == slots_.end())
            return; // everything pinned: allow the overshoot
        bytes_ -= victim->second.entry->cacheBytes();
        ++stats_.evictions;
        if (hook_)
            hook_("evict", victim->first);
        slots_.erase(victim);
    }
}

std::uint64_t
TraceCache::currentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

TraceCacheStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace fpc
