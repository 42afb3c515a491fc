#include "dramcache/block_cache.hh"

#include <bit>

#include "common/huge_pages.hh"
#include "common/logging.hh"
#include "telemetry/introspection.hh"

namespace fpc {

BlockCache::BlockCache(const Config &config, DramSystem &stacked,
                       DramSystem &offchip)
    : config_(config), stacked_(stacked), offchip_(offchip),
      missmap_(config.missMap), stats_("block")
{
    FPC_ASSERT(isPowerOf2(config_.capacityBytes));
    num_sets_ = config_.capacityBytes / kRowBytes;
    set_mask_ = num_sets_ - 1;
    reserveHugePages(sets_, num_sets_);
    sets_.resize(num_sets_);
    partition_ =
        config_.tenants.setPartition(num_sets_, kBlockShift);
    quota_ = config_.tenants.quota(num_sets_ * kDataBlocksPerRow);

    stats_.regCounter(&demand_accesses_, "demand_accesses",
                      "LLC misses served");
    stats_.regCounter(&hits_, "hits", "block hits");
    stats_.regCounter(&misses_, "misses", "block misses");
    stats_.regCounter(&dirty_evictions_, "dirty_evictions",
                      "dirty victim blocks written off chip");
    stats_.regCounter(&quota_bypass_, "quota_bypasses",
                      "fills bypassed by the tenant quota");
    stats_.regCounter(&mm_evictions_, "missmap_evictions",
                      "MissMap entries displaced");
    stats_.regCounter(&mm_flushed_, "missmap_flushed_blocks",
                      "blocks force-evicted by MissMap evictions");
    stats_.regCounter(&wb_hits_, "writeback_hits",
                      "LLC writebacks absorbed");
    stats_.regCounter(&wb_misses_, "writeback_misses",
                      "LLC writebacks not absorbed");
}

int
BlockCache::findWay(std::uint64_t set, Addr block_id) const
{
    const SetState &s = sets_[set];
    for (std::uint32_t m = s.valid; m != 0; m &= m - 1) {
        const unsigned w = std::countr_zero(m);
        if ((s.ways[w] & kIdMask) == block_id)
            return static_cast<int>(w);
    }
    return -1;
}

void
BlockCache::touch(SetState &s, unsigned way)
{
    const std::uint32_t bit = std::uint32_t{1} << way;
    const unsigned rank = (s.valid & bit) ? rankOf(s.ways[way])
                                          : std::popcount(s.valid);
    for (std::uint32_t m = s.valid & ~bit; m; m &= m - 1) {
        std::uint64_t &word = s.ways[std::countr_zero(m)];
        if (rankOf(word) < rank)
            word += kRankOne;
    }
    s.ways[way] &= kIdMask;
}

void
BlockCache::dropWay(Cycle when, std::uint64_t set, unsigned way)
{
    SetState &s = sets_[set];
    const std::uint32_t bit = std::uint32_t{1} << way;
    FPC_ASSERT(s.valid & bit);
    const Addr block_addr = (s.ways[way] & kIdMask) * kBlockBytes;
    quota_.release(tenantOfAddr(block_addr));
    if (s.dirty & bit) {
        dirty_evictions_.inc();
        // Read the victim from the cache row, write it off chip.
        DramAccessResult rd = stacked_.access(
            when, rowAddr(set) + static_cast<Addr>(way) * kBlockBytes,
            false, 1);
        offchip_.access(rd.done, block_addr, true, 1);
    }
    s.valid &= ~bit;
    s.dirty &= ~bit;
    // Close the gap: the ways ranked below this one move up.
    const unsigned rank = rankOf(s.ways[way]);
    for (std::uint32_t m = s.valid; m != 0; m &= m - 1) {
        std::uint64_t &word = s.ways[std::countr_zero(m)];
        if (rankOf(word) > rank)
            word -= kRankOne;
    }
}

void
BlockCache::evictWay(Cycle when, std::uint64_t set, unsigned way)
{
    if (intro_)
        intro_->noteSetConflict(set);
    dropWay(when, set, way);
    missmap_.clearBit((sets_[set].ways[way] & kIdMask) * kBlockBytes);
}

void
BlockCache::flushSegment(Cycle when, const MissMap::Victim &victim)
{
    if (!victim.valid)
        return;
    mm_evictions_.inc();
    // Every tracked block of the displaced segment must leave the
    // cache. The blocks sit in consecutive sets and therefore in
    // different DRAM rows: each dirty one costs a separate stacked
    // activation (§5.2's observed interference).
    for (unsigned b = 0; b < MissMap::kBlocksPerSegment; ++b) {
        if (!victim.presentBlocks.test(b))
            continue;
        const Addr block_addr =
            victim.segmentId * MissMap::kSegmentBytes +
            static_cast<Addr>(b) * kBlockBytes;
        const std::uint64_t set = setOf(block_addr);
        const int way = findWay(set, blockNumber(block_addr));
        if (way < 0)
            continue;
        mm_flushed_.inc();
        dropWay(when, set, static_cast<unsigned>(way));
        // The MissMap entry itself is already gone; no clearBit.
    }
}

bool
BlockCache::fillBlock(Cycle when, Addr block_addr, bool dirty)
{
    const std::uint64_t set = setOf(block_addr);
    SetState &s = sets_[set];
    const std::uint32_t free_ways = ~s.valid & kFullMask;
    const bool found_invalid = free_ways != 0;
    // The first invalid way, else the least recently used one.
    unsigned victim_way = 0;
    if (found_invalid) {
        victim_way = std::countr_zero(free_ways);
    } else {
        while (rankOf(s.ways[victim_way]) != kDataBlocksPerRow - 1)
            ++victim_way;
    }
    if (quota_.enabled()) {
        const std::uint32_t tenant = tenantOfAddr(block_addr);
        const std::uint32_t victim_tenant =
            found_invalid
                ? 0
                : tenantOfAddr((s.ways[victim_way] & kIdMask) *
                               kBlockBytes);
        if (!quota_.mayFill(tenant, !found_invalid,
                            victim_tenant)) {
            quota_bypass_.inc();
            return false;
        }
    }
    if (!found_invalid)
        evictWay(when, set, victim_way);
    quota_.charge(tenantOfAddr(block_addr));

    const std::uint32_t bit = std::uint32_t{1} << victim_way;
    s.ways[victim_way] = blockNumber(block_addr);
    touch(s, victim_way);
    s.valid |= bit;
    if (dirty)
        s.dirty |= bit;

    // Data write into the row plus the off-critical-path tag
    // update write (one extra burst of bandwidth and energy).
    stacked_.access(
        when,
        rowAddr(set) + static_cast<Addr>(victim_way) * kBlockBytes,
        true, 1);
    stacked_.access(
        when,
        rowAddr(set) +
            static_cast<Addr>(kDataBlocksPerRow) * kBlockBytes,
        true, 1);

    MissMap::Victim mm_victim;
    missmap_.setBit(block_addr, mm_victim);
    flushSegment(when, mm_victim);
    return true;
}

MemSystemResult
BlockCache::access(Cycle now, const MemRequest &req)
{
    demand_accesses_.inc();
    const Addr block_addr = blockAlign(req.paddr);
    const Cycle t = now + config_.missMapLatencyCycles;
    if (intro_)
        intro_->noteSetAccess(setOf(block_addr));

    if (missmap_.present(block_addr)) {
        // MissMap guarantees presence: compound access serves it.
        const std::uint64_t set = setOf(block_addr);
        const int way = findWay(set, blockNumber(block_addr));
        FPC_ASSERT(way >= 0);
        touch(sets_[set], way);
        hits_.inc();
        DramAccessResult res =
            stacked_.compoundAccess(t, rowAddr(set), false);
        return {res.firstBlockReady, true};
    }

    // Miss: served from off-chip memory, then filled.
    misses_.inc();
    DramAccessResult off = offchip_.access(t, block_addr, false, 1);
    fillBlock(off.firstBlockReady, block_addr, false);
    return {off.firstBlockReady, false};
}

void
BlockCache::writeback(Cycle now, Addr block_addr)
{
    block_addr = blockAlign(block_addr);
    const Cycle t = now + config_.missMapLatencyCycles;

    if (missmap_.present(block_addr)) {
        const std::uint64_t set = setOf(block_addr);
        const int way = findWay(set, blockNumber(block_addr));
        FPC_ASSERT(way >= 0);
        touch(sets_[set], way);
        sets_[set].dirty |= std::uint32_t{1} << way;
        wb_hits_.inc();
        stacked_.compoundAccess(t, rowAddr(set), true);
        return;
    }
    wb_misses_.inc();
    // Full-line write: install without an off-chip fetch. A
    // quota-bypassed install sends the write off chip instead.
    if (!fillBlock(t, block_addr, true))
        offchip_.access(t, block_addr, true, 1);
}

void
BlockCache::attachIntrospection(CacheIntrospection *intro)
{
    intro_ = intro;
    if (intro_)
        intro_->configureSetSpace(num_sets_);
}

void
BlockCache::finalizeIntrospection()
{
    if (!intro_)
        return;
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        if (const int n = std::popcount(sets_[set].valid))
            intro_->noteSetOccupied(set, n);
    }
}

void
BlockCache::visitStatGroups(
    const std::function<void(const StatGroup &)> &fn) const
{
    fn(stats_);
}

} // namespace fpc
