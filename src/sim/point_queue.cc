/** @file Build-aware work queue (see point_queue.hh). */

#include "sim/point_queue.hh"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/logging.hh"

namespace fpc {

PointQueue::PointQueue(
    const std::vector<std::vector<std::string>> &keys)
    : needs_(keys.size()), holds_(keys.size()),
      pending_(keys.size())
{
    std::unordered_map<std::string, std::size_t> ids;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (const std::string &key : keys[i]) {
            const auto it = ids.emplace(key, ids.size()).first;
            needs_[i].push_back(it->second);
        }
    }
    claims_.assign(ids.size(), Claim::Never);
    std::iota(pending_.begin(), pending_.end(), std::size_t{0});
}

bool
PointQueue::blocked(std::size_t item) const
{
    return std::any_of(
        needs_[item].begin(), needs_[item].end(),
        [this](std::size_t key) { return claims_[key] == Claim::Held; });
}

std::optional<PointQueue::Pick>
PointQueue::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty())
        return std::nullopt;
    auto at = std::find_if(
        pending_.begin(), pending_.end(),
        [this](std::size_t item) { return !blocked(item); });
    Pick pick;
    if (at == pending_.end()) {
        at = pending_.begin();
        pick.fallback = true;
        ++stats_.fallbacks;
    } else {
        stats_.deferred += at != pending_.begin();
    }
    pick.item = *at;
    pending_.erase(at);
    for (const std::size_t key : needs_[pick.item]) {
        if (claims_[key] == Claim::Never) {
            claims_[key] = Claim::Held;
            holds_[pick.item].push_back(key);
        }
    }
    return pick;
}

void
PointQueue::finish(std::size_t item)
{
    std::lock_guard<std::mutex> lock(mu_);
    FPC_ASSERT(item < holds_.size());
    for (const std::size_t key : holds_[item])
        claims_[key] = Claim::Released;
    holds_[item].clear();
}

SchedulerStats
PointQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace fpc
