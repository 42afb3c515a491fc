#include "dramcache/block_cache.hh"

#include "common/logging.hh"
#include "telemetry/introspection.hh"

namespace fpc {

BlockCache::BlockCache(const Config &config, DramSystem &stacked,
                       DramSystem &offchip)
    : config_(config), stacked_(stacked), offchip_(offchip),
      missmap_(config.missMap), stats_(config.name)
{
    FPC_ASSERT(isPowerOf2(config_.capacityBytes));
    FPC_ASSERT(isPowerOf2(config_.rowBytes));
    FPC_ASSERT(config_.dataBlocksPerRow > 0);
    FPC_ASSERT(config_.dataBlocksPerRow <=
               config_.rowBytes / kBlockBytes);
    num_sets_ = config_.capacityBytes / config_.rowBytes;
    set_mask_ = num_sets_ - 1;
    row_shift_ = floorLog2(config_.rowBytes);
    ways_.resize(num_sets_ * config_.dataBlocksPerRow);
    partition_ =
        config_.tenants.setPartition(num_sets_, kBlockShift);
    quota_ = config_.tenants.quota(
        num_sets_ * config_.dataBlocksPerRow);

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

BlockCache::Way *
BlockCache::findWay(Addr block_addr, bool touch)
{
    const Addr block_id = blockNumber(block_addr);
    const std::size_t base =
        setOf(block_addr) * config_.dataBlocksPerRow;
    for (unsigned w = 0; w < config_.dataBlocksPerRow; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.blockId == block_id) {
            if (touch)
                way.lastUse = ++tick_;
            return &way;
        }
    }
    return nullptr;
}

void
BlockCache::evictWay(Cycle when, std::uint64_t set, Way &way)
{
    FPC_ASSERT(way.valid);
    if (intro_)
        intro_->noteSetConflict(set);
    const Addr block_addr = way.blockId * kBlockBytes;
    quota_.release(tenantOfAddr(block_addr));
    if (way.dirty) {
        dirty_evictions_.inc();
        // Read the victim from the cache row, write it off chip.
        const std::size_t way_idx = static_cast<std::size_t>(
            &way - &ways_[set * config_.dataBlocksPerRow]);
        DramAccessResult rd = stacked_.access(
            when,
            rowAddr(set) + static_cast<Addr>(way_idx) * kBlockBytes,
            false, 1);
        offchip_.access(rd.done, block_addr, true, 1);
    }
    way.valid = false;
    way.dirty = false;
    missmap_.clearBit(block_addr);
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
    for (unsigned b = 0; b < missmap_.blocksPerSegment(); ++b) {
        if (!victim.presentBlocks.test(b))
            continue;
        const Addr block_addr =
            victim.segmentId * config_.missMap.segmentBytes +
            static_cast<Addr>(b) * kBlockBytes;
        const std::uint64_t set = setOf(block_addr);
        const Addr block_id = blockNumber(block_addr);
        const std::size_t base = set * config_.dataBlocksPerRow;
        for (unsigned w = 0; w < config_.dataBlocksPerRow; ++w) {
            Way &way = ways_[base + w];
            if (!way.valid || way.blockId != block_id)
                continue;
            mm_flushed_.inc();
            quota_.release(tenantOfAddr(block_addr));
            if (way.dirty) {
                dirty_evictions_.inc();
                DramAccessResult rd = stacked_.access(
                    when,
                    rowAddr(set) + static_cast<Addr>(w) * kBlockBytes,
                    false, 1);
                offchip_.access(rd.done, block_addr, true, 1);
            }
            way.valid = false;
            way.dirty = false;
            break;
        }
        // The MissMap entry itself is already gone; no clearBit.
    }
}

bool
BlockCache::fillBlock(Cycle when, Addr block_addr, bool dirty)
{
    const std::uint64_t set = setOf(block_addr);
    const std::size_t base = set * config_.dataBlocksPerRow;

    unsigned victim_way = 0;
    bool found_invalid = false;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (unsigned w = 0; w < config_.dataBlocksPerRow; ++w) {
        Way &way = ways_[base + w];
        if (!way.valid) {
            victim_way = w;
            found_invalid = true;
            break;
        }
        if (way.lastUse < oldest) {
            oldest = way.lastUse;
            victim_way = w;
        }
    }
    Way &way = ways_[base + victim_way];
    if (quota_.enabled()) {
        const std::uint32_t tenant = tenantOfAddr(block_addr);
        const std::uint32_t victim_tenant =
            found_invalid
                ? 0
                : tenantOfAddr(way.blockId * kBlockBytes);
        if (!quota_.mayFill(tenant, !found_invalid,
                            victim_tenant)) {
            quota_bypass_.inc();
            return false;
        }
    }
    if (!found_invalid)
        evictWay(when, set, way);
    quota_.charge(tenantOfAddr(block_addr));

    way.blockId = blockNumber(block_addr);
    way.valid = true;
    way.dirty = dirty;
    way.lastUse = ++tick_;

    // Data write into the row plus the off-critical-path tag
    // update write (one extra burst of bandwidth and energy).
    stacked_.access(
        when,
        rowAddr(set) + static_cast<Addr>(victim_way) * kBlockBytes,
        true, 1);
    stacked_.access(
        when,
        rowAddr(set) +
            static_cast<Addr>(config_.dataBlocksPerRow) * kBlockBytes,
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
        Way *way = findWay(block_addr, true);
        FPC_ASSERT(way != nullptr);
        hits_.inc();
        DramAccessResult res = stacked_.compoundAccess(
            t, rowAddr(setOf(block_addr)), false);
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
        Way *way = findWay(block_addr, true);
        FPC_ASSERT(way != nullptr);
        wb_hits_.inc();
        way->dirty = true;
        stacked_.compoundAccess(t, rowAddr(setOf(block_addr)), true);
        return;
    }
    wb_misses_.inc();
    if (config_.allocateOnWriteback) {
        // Full-line write: install without an off-chip fetch. A
        // quota-bypassed install sends the write off chip instead.
        if (!fillBlock(t, block_addr, true))
            offchip_.access(t, block_addr, true, 1);
    } else {
        offchip_.access(t, block_addr, true, 1);
    }
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
        const std::size_t base = set * config_.dataBlocksPerRow;
        std::uint64_t n = 0;
        for (unsigned w = 0; w < config_.dataBlocksPerRow; ++w) {
            if (ways_[base + w].valid)
                ++n;
        }
        if (n)
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
