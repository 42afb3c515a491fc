/** @file Cache introspection implementation (introspection.hh). */

#include "telemetry/introspection.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fpc {

namespace {

/** SplitMix64 finalizer: cheap, well-mixed table hash. */
inline std::uint64_t
mixAddr(Addr x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Smallest power of two >= @p v (v >= 1). */
inline std::uint64_t
ceilPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Largest power of two <= @p v (v >= 1). */
inline std::uint64_t
floorPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while ((p << 1) && (p << 1) <= v)
        p <<= 1;
    return p;
}

} // namespace

void
CacheIntrospection::ShadowLru::init(std::uint64_t capacity)
{
    capacity_ = static_cast<std::uint32_t>(capacity);
    nodes_.reserve(capacity_);
    // Table at <= 50% load so linear probes stay short.
    const std::uint64_t slots = ceilPow2(capacity * 2);
    table_.assign(static_cast<std::size_t>(slots), 0);
    mask_ = static_cast<std::size_t>(slots - 1);
}

std::size_t
CacheIntrospection::ShadowLru::slotOf(Addr key) const
{
    std::size_t s = static_cast<std::size_t>(mixAddr(key)) &
                    mask_;
    while (table_[s] != 0 && nodes_[table_[s] - 1].key != key)
        s = (s + 1) & mask_;
    return s;
}

void
CacheIntrospection::ShadowLru::eraseSlot(std::size_t slot)
{
    // Backward-shift deletion: refill the hole with any later
    // probe-chain entry whose home slot precedes it, so lookups
    // never need tombstones.
    std::size_t hole = slot;
    std::size_t probe = slot;
    table_[hole] = 0;
    while (true) {
        probe = (probe + 1) & mask_;
        const std::uint32_t entry = table_[probe];
        if (entry == 0)
            return;
        const std::size_t home =
            static_cast<std::size_t>(
                mixAddr(nodes_[entry - 1].key)) &
            mask_;
        if (((probe - home) & mask_) >= ((probe - hole) & mask_)) {
            table_[hole] = entry;
            table_[probe] = 0;
            hole = probe;
        }
    }
}

void
CacheIntrospection::ShadowLru::unlink(std::uint32_t idx)
{
    Node &n = nodes_[idx];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
CacheIntrospection::ShadowLru::pushFront(std::uint32_t idx)
{
    Node &n = nodes_[idx];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = idx;
    head_ = idx;
    if (tail_ == kNil)
        tail_ = idx;
}

bool
CacheIntrospection::ShadowLru::touch(Addr block, bool &did_evict,
                                     Addr &evicted)
{
    const std::size_t slot = slotOf(block);
    if (table_[slot] != 0) {
        const std::uint32_t idx = table_[slot] - 1;
        if (head_ != idx) {
            unlink(idx);
            pushFront(idx);
        }
        return true;
    }

    std::uint32_t idx;
    if (count_ < capacity_) {
        idx = count_++;
        nodes_.push_back(Node{block, kNil, kNil});
    } else {
        // Recycle the LRU node in place.
        idx = tail_;
        did_evict = true;
        evicted = nodes_[idx].key;
        eraseSlot(slotOf(evicted));
        unlink(idx);
        nodes_[idx].key = block;
        // eraseSlot may have shifted entries; re-resolve the
        // insertion slot for the new key.
        table_[slotOf(block)] = idx + 1;
        pushFront(idx);
        return false;
    }
    table_[slot] = idx + 1;
    pushFront(idx);
    return false;
}

void
CacheIntrospection::AddrSet::init(std::size_t expected)
{
    const std::uint64_t slots =
        ceilPow2(std::max<std::uint64_t>(expected * 2, 64));
    slots_.assign(static_cast<std::size_t>(slots), kEmpty);
    mask_ = static_cast<std::size_t>(slots - 1);
    size_ = 0;
}

bool
CacheIntrospection::AddrSet::contains(Addr key) const
{
    std::size_t s = static_cast<std::size_t>(mixAddr(key)) &
                    mask_;
    while (slots_[s] != kEmpty) {
        if (slots_[s] == key)
            return true;
        s = (s + 1) & mask_;
    }
    return false;
}

void
CacheIntrospection::AddrSet::grow()
{
    std::vector<Addr> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (Addr key : old) {
        if (key == kEmpty)
            continue;
        std::size_t s = static_cast<std::size_t>(mixAddr(key)) &
                        mask_;
        while (slots_[s] != kEmpty)
            s = (s + 1) & mask_;
        slots_[s] = key;
    }
}

bool
CacheIntrospection::AddrSet::insert(Addr key)
{
    std::size_t s = static_cast<std::size_t>(mixAddr(key)) &
                    mask_;
    while (slots_[s] != kEmpty) {
        if (slots_[s] == key)
            return false;
        s = (s + 1) & mask_;
    }
    slots_[s] = key;
    if (++size_ * 2 > slots_.size())
        grow();
    return true;
}

CacheIntrospection::CacheIntrospection(const TelemetryConfig &config)
    : config_(config)
{
    // The page-seen set backs noteTriggeringMiss, which fires
    // whenever the instance is attached (any feature on).
    pages_seen_.init(4096);
    if (config_.missAttributionStride > 0) {
        const std::uint64_t capacity =
            config_.shadowCapacityBytes
                ? config_.shadowCapacityBytes
                : (256ULL << 20);
        // Power-of-two set count and stride: the sampled-set
        // filter is then a single mask against the block
        // address, and set index bits never need a division.
        shadow_sets_ =
            floorPow2(std::max<std::uint64_t>(
                capacity / kBlockBytes / kShadowWays, 1));
        const std::uint64_t stride = std::min<std::uint64_t>(
            ceilPow2(config_.missAttributionStride),
            shadow_sets_);
        config_.missAttributionStride =
            static_cast<unsigned>(stride);
        sample_mask_ = stride - 1;
        // The fully-associative shadow models the sampled slice
        // of the capacity: sampled sets x modeled associativity.
        shadow_capacity_entries_ =
            shadow_sets_ / stride * kShadowWays;
        shadow_.init(shadow_capacity_entries_);
        evicted_blocks_.init(static_cast<std::size_t>(
            shadow_capacity_entries_));
    }
}

void
CacheIntrospection::observeSampledBlock(Addr block, bool hit)
{
    // With attribution off sample_mask_ is all-ones, so only
    // block 0 ever reaches this slow path: reject it here.
    if (config_.missAttributionStride == 0)
        return;

    ++sampled_demand_;
    // Touch the shadow LRU with this block (hit or miss: the
    // real cache holds it after this access either way). A block
    // was referenced before iff it is still shadow-resident or
    // was evicted from the shadow — no second lookup on the
    // common resident path.
    bool did_evict = false;
    Addr victim = 0;
    const bool resident = shadow_.touch(block, did_evict, victim);
    if (!hit) {
        ++sampled_misses_;
        if (resident)
            // A same-capacity fully-associative LRU cache still
            // holds the block: the set mapping evicted it.
            ++conflict_;
        else if (evicted_blocks_.contains(block))
            ++capacity_;
        else
            ++compulsory_;
    }
    if (did_evict)
        evicted_blocks_.insert(victim);
}

void
CacheIntrospection::configureSetSpace(std::uint64_t num_sets)
{
    if (!config_.heatmaps || num_sets == 0 ||
        setSpaceConfigured())
        return;
    num_sets_ = num_sets;
    // Power-of-two decimation: the smallest shift folding the set
    // space into at most kMaxSetBins bins, so binOf is one shift.
    unsigned shift = 0;
    while (((num_sets - 1) >> shift) + 1 > kMaxSetBins)
        ++shift;
    set_bin_shift_ = shift;
    const std::size_t bins =
        static_cast<std::size_t>(((num_sets - 1) >> shift) + 1);
    set_access_.assign(bins, 0);
    set_conflict_.assign(bins, 0);
    set_occupancy_.assign(bins, 0);
}

const std::vector<std::string> &
CacheIntrospection::counterNames()
{
    static const std::vector<std::string> names = {
        "intro.sampled_demand",   "intro.sampled_misses",
        "intro.miss_compulsory",  "intro.miss_capacity",
        "intro.miss_conflict",    "intro.trig_cold_page",
        "intro.trig_evicted_page", "intro.underfetch_misses",
        "intro.fetched_blocks",   "intro.touched_blocks",
        "intro.set_accesses",     "intro.set_conflicts",
        "intro.set_occupancy",
    };
    return names;
}

void
CacheIntrospection::appendValues(
    std::vector<std::uint64_t> &out) const
{
    out.push_back(sampled_demand_);
    out.push_back(sampled_misses_);
    out.push_back(compulsory_);
    out.push_back(capacity_);
    out.push_back(conflict_);
    out.push_back(trig_cold_page_);
    out.push_back(trig_evicted_page_);
    out.push_back(underfetch_misses_);
    out.push_back(fetched_blocks_);
    out.push_back(touched_blocks_);
    // Totals derive from the (at most kMaxSetBins) heatmap bins
    // at harvest time, so the per-access hooks touch one counter.
    const auto sum = [](const std::vector<std::uint64_t> &v) {
        std::uint64_t total = 0;
        for (std::uint64_t x : v)
            total += x;
        return total;
    };
    out.push_back(sum(set_access_));
    out.push_back(sum(set_conflict_));
    out.push_back(sum(set_occupancy_));
}

} // namespace fpc
