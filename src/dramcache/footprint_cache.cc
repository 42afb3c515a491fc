#include "dramcache/footprint_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/introspection.hh"

namespace fpc {

FootprintCache::FootprintCache(const Config &config,
                               DramSystem &stacked,
                               DramSystem &offchip)
    : config_(config), page_shift_(floorLog2(config.tags.pageBytes)),
      offset_mask_(config.tags.pageBytes / kBlockBytes - 1),
      stacked_(stacked), offchip_(offchip), tags_(config.tags),
      fht_(config.fht), st_(config.st),
      quota_(config.tags.tenants.quota(tags_.numFrames())),
      stats_(config.name)
{
    FPC_ASSERT(isPowerOf2(config_.tags.pageBytes));
    stats_.regCounter(&demand_accesses_, "demand_accesses",
                      "LLC misses served");
    stats_.regCounter(&block_hits_, "block_hits",
                      "demanded block present in the cache");
    stats_.regCounter(&trig_misses_, "triggering_misses",
                      "page misses (§4.2)");
    stats_.regCounter(&underpred_misses_, "underprediction_misses",
                      "block misses within a resident page");
    stats_.regCounter(&singleton_bypass_, "singleton_bypasses",
                      "pages bypassed as singletons (§4.4)");
    stats_.regCounter(&quota_bypass_, "quota_bypasses",
                      "triggering misses bypassed by the tenant "
                      "quota");
    stats_.regCounter(&singleton_recover_, "singleton_recoveries",
                      "ST-detected singleton underpredictions");
    stats_.regCounter(&page_evictions_, "page_evictions",
                      "pages evicted");
    stats_.regCounter(&dirty_evictions_, "dirty_page_evictions",
                      "evictions writing dirty blocks off chip");
    stats_.regCounter(&blocks_fetched_, "blocks_fetched",
                      "blocks fetched from off-chip memory");
    stats_.regCounter(&wb_hits_, "writeback_hits",
                      "LLC writebacks absorbed by the cache");
    stats_.regCounter(&wb_misses_, "writeback_misses",
                      "LLC writebacks sent off chip");
    stats_.regCounter(&covered_, "covered_blocks",
                      "demanded blocks that were predicted");
    stats_.regCounter(&underpred_blocks_, "underpredicted_blocks",
                      "demanded blocks that were not predicted");
    stats_.regCounter(&overpred_blocks_, "overpredicted_blocks",
                      "predicted blocks never demanded");
}

BlockBitmap
FootprintCache::predictFootprint(const MemRequest &req,
                                 unsigned offset, FhtRef &ref_out,
                                 bool &fht_trained)
{
    fht_trained = false;
    ref_out = FhtRef{};
    switch (config_.fetch) {
      case FetchPolicy::FullPage:
        return BlockBitmap::firstN(tags_.blocksPerPage());
      case FetchPolicy::DemandOnly:
        return BlockBitmap::single(offset);
      case FetchPolicy::Predictor:
        break;
    }
    auto res = fht_.lookupOrAllocate(req.pc, offset);
    fht_trained = res.hit && res.trained;
    ref_out = res.ref;
    // The triggering block is always fetched.
    return res.footprint | BlockBitmap::single(offset);
}

void
FootprintCache::accountResidency(const PageBlockStates &blocks,
                                 BlockBitmap predicted)
{
    const BlockBitmap demanded = blocks.demandedMap();
    covered_.inc((demanded & predicted).count());
    underpred_blocks_.inc(demanded.minus(predicted).count());
    overpred_blocks_.inc(predicted.minus(demanded).count());
    density_.sample(demanded.count());
}

void
FootprintCache::evictPage(const PageTagArray::Victim &victim,
                          Cycle when)
{
    page_evictions_.inc();
    accountResidency(victim.blocks, victim.predicted);
    if (intro_) {
        intro_->noteSetConflict(victim.frame / config_.tags.assoc);
        intro_->noteTouchedBlocks(
            victim.blocks.demandedMap().count());
    }

    // Train the FHT with the demanded vector (§4.3). Stale
    // pointers are detected inside update().
    if (config_.fetch == FetchPolicy::Predictor)
        fht_.update(victim.fht, victim.blocks.demandedMap());

    // Write dirty blocks back: one stacked-DRAM row read and one
    // off-chip row write, both with high locality (§3).
    const BlockBitmap dirty = victim.blocks.dirtyDataMap();
    if (!dirty.empty()) {
        dirty_evictions_.inc();
        const unsigned n = dirty.count();
        const Addr frame_addr = tags_.frameAddr(victim.frame) +
            static_cast<Addr>(dirty.lowestSet()) * kBlockBytes;
        const Addr mem_addr =
            (victim.pageId << page_shift_) +
            static_cast<Addr>(dirty.lowestSet()) * kBlockBytes;
        DramAccessResult rd =
            stacked_.access(when, frame_addr, false, n);
        offchip_.access(rd.done, mem_addr, true, n);
    }
}

bool
FootprintCache::quotaAllows(const MemRequest &req) const
{
    if (!quota_.enabled())
        return true;
    const PageTagEntry *victim =
        tags_.peekVictim(pageIdOf(req.paddr));
    return quota_.mayFill(req.tenantId, victim != nullptr,
                          victim ? pageTenant(victim->pageId)
                                 : 0);
}

Cycle
FootprintCache::allocateAndFill(Cycle when, const MemRequest &req,
                                unsigned offset,
                                BlockBitmap predicted,
                                const FhtRef &ref)
{
    PageTagArray::Victim victim;
    PageTagEntry *entry = tags_.allocate(pageIdOf(req.paddr), victim);
    if (victim.valid) {
        quota_.release(pageTenant(victim.pageId));
        evictPage(victim, when);
    }
    quota_.charge(req.tenantId);

    entry->predicted = predicted;
    entry->fht = ref;
    const std::uint64_t frame = tags_.frameIndex(entry);
    const Addr frame_base = tags_.frameAddr(frame);
    const Addr page_base = pageStartOf(req.paddr);

    // Critical block first: the demanded block is fetched and
    // forwarded to the L2 as soon as it arrives.
    const DramAccessResult demand =
        offchip_.access(when, blockAlign(req.paddr), false, 1);
    stacked_.access(demand.firstBlockReady,
                    frame_base +
                        static_cast<Addr>(offset) * kBlockBytes,
                    true, 1);
    entry->blocks.fillDemanded(offset);
    blocks_fetched_.inc();
    if (intro_)
        intro_->noteFetchedBlocks(1);

    // Fetch the rest of the predicted footprint in the background.
    const BlockBitmap rest =
        predicted.minus(BlockBitmap::single(offset));
    if (!rest.empty()) {
        const unsigned n = rest.count();
        const unsigned lo = rest.lowestSet();
        DramAccessResult fill = offchip_.access(
            demand.done,
            page_base + static_cast<Addr>(lo) * kBlockBytes, false,
            n);
        stacked_.access(fill.firstBlockReady,
                        frame_base +
                            static_cast<Addr>(lo) * kBlockBytes,
                        true, n);
        for (unsigned b = 0; b < tags_.blocksPerPage(); ++b) {
            if (rest.test(b))
                entry->blocks.fillPredicted(b);
        }
        blocks_fetched_.inc(n);
        if (intro_)
            intro_->noteFetchedBlocks(n);
    }
    return demand.firstBlockReady;
}

MemSystemResult
FootprintCache::access(Cycle now, const MemRequest &req)
{
    demand_accesses_.inc();
    const Cycle t = now + config_.tagLatencyCycles;
    const Addr page_id = pageIdOf(req.paddr);
    const unsigned offset = offsetOf(req.paddr);
    if (intro_)
        intro_->noteSetAccess(tags_.setIndexOf(page_id));

    if (PageTagEntry *entry = tags_.lookup(page_id)) {
        if (entry->blocks.present(offset)) {
            // Block hit: serve from the stacked DRAM.
            block_hits_.inc();
            entry->blocks.markDemanded(offset);
            const Addr frame_addr =
                tags_.frameAddr(tags_.frameIndex(entry)) +
                static_cast<Addr>(offset) * kBlockBytes;
            DramAccessResult res =
                stacked_.access(t, frame_addr, false, 1);
            return {res.firstBlockReady, true};
        }
        // Underprediction: page resident, block absent. Fetch the
        // block on demand and install it (§3.1).
        underpred_misses_.inc();
        if (intro_) {
            intro_->noteUnderfetchMiss();
            intro_->noteFetchedBlocks(1);
        }
        DramAccessResult off =
            offchip_.access(t, blockAlign(req.paddr), false, 1);
        stacked_.access(off.firstBlockReady,
                        tags_.frameAddr(tags_.frameIndex(entry)) +
                            static_cast<Addr>(offset) * kBlockBytes,
                        true, 1);
        entry->blocks.fillDemanded(offset);
        blocks_fetched_.inc();
        return {off.firstBlockReady, false};
    }

    // Triggering miss (§4.2).
    trig_misses_.inc();
    if (intro_)
        intro_->noteTriggeringMiss(page_id);

    // Tenant quota: a tenant at its frame quota whose allocation
    // would displace another tenant's page bypasses the cache
    // entirely (no FHT/ST interaction), like a singleton bypass
    // without the ST insert. The enabled() check keeps the
    // victim peek off the single-tenant path.
    if (quota_.enabled() && !quotaAllows(req)) {
        quota_bypass_.inc();
        blocks_fetched_.inc();
        DramAccessResult off =
            offchip_.access(t, blockAlign(req.paddr), false, 1);
        return {off.firstBlockReady, false};
    }

    FhtRef ref;
    bool fht_trained = false;
    BlockBitmap predicted = predictFootprint(req, offset, ref,
                                             fht_trained);

    if (config_.fetch == FetchPolicy::Predictor &&
        config_.singletonOptimization) {
        SingletonTable::Entry st_entry;
        if (st_.consume(page_id, st_entry)) {
            // Second access to a page classified as singleton: an
            // underprediction. Allocate the page now and re-seed
            // the FHT from the ST's recorded context (§4.4).
            singleton_recover_.inc();
            auto orig = fht_.lookupOrAllocate(st_entry.pc,
                                              st_entry.offset);
            predicted |= BlockBitmap::single(st_entry.offset);
            predicted |= BlockBitmap::single(offset);
            Cycle done =
                allocateAndFill(t, req, offset, predicted,
                                orig.ref);
            return {done, false};
        }
        if (fht_trained && predicted.count() == 1) {
            // Learned singleton: do not allocate; forward the
            // block to the requestor, bypassing the cache.
            singleton_bypass_.inc();
            st_.insert(page_id, req.pc, offset);
            blocks_fetched_.inc();
            DramAccessResult off = offchip_.access(
                t, blockAlign(req.paddr), false, 1);
            return {off.firstBlockReady, false};
        }
    }

    Cycle done = allocateAndFill(t, req, offset, predicted, ref);
    return {done, false};
}

void
FootprintCache::writeback(Cycle now, Addr block_addr)
{
    const Addr page_id = pageIdOf(block_addr);
    const unsigned offset = offsetOf(block_addr);

    if (PageTagEntry *entry = tags_.lookup(page_id)) {
        wb_hits_.inc();
        const Addr frame_addr =
            tags_.frameAddr(tags_.frameIndex(entry)) +
            static_cast<Addr>(offset) * kBlockBytes;
        stacked_.access(now, frame_addr, true, 1);
        if (!entry->blocks.present(offset)) {
            // Full-line write installs the block without a fetch.
            entry->blocks.fillDemanded(offset);
        }
        entry->blocks.markDirtyData(offset);
        return;
    }
    // Page not resident: the write goes straight off chip. The
    // cache does not allocate on writebacks (§7: evictions from
    // the higher-level cache are not tracked).
    wb_misses_.inc();
    offchip_.access(now, blockAlign(block_addr), true, 1);
}

void
FootprintCache::finalizeResidency()
{
    tags_.forEachValid([this](const PageTagEntry &e) {
        accountResidency(e.blocks, e.predicted);
    });
}

void
FootprintCache::attachIntrospection(CacheIntrospection *intro)
{
    intro_ = intro;
    if (intro_)
        intro_->configureSetSpace(tags_.numSets());
}

void
FootprintCache::finalizeIntrospection()
{
    if (!intro_)
        return;
    // Residency walk without stat side effects: touched blocks of
    // still-resident pages join the fill-accuracy tallies, and the
    // set occupancy snapshot lands in the measured window.
    tags_.forEachValid([this](const PageTagEntry &e) {
        intro_->noteSetOccupied(
            tags_.frameIndex(&e) / config_.tags.assoc, 1);
        intro_->noteTouchedBlocks(e.blocks.demandedMap().count());
    });
}

void
FootprintCache::visitStatGroups(
    const std::function<void(const StatGroup &)> &fn) const
{
    fn(stats_);
    fn(fht_.stats());
}

} // namespace fpc
