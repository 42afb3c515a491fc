#include "dramcache/banshee_cache.hh"

#include "common/logging.hh"
#include "dramcache/design_registry.hh"
#include "telemetry/introspection.hh"

namespace fpc {

BansheeCache::BansheeCache(const Config &config,
                           DramSystem &stacked,
                           DramSystem &offchip)
    : config_(config), stacked_(stacked), offchip_(offchip),
      stats_(config.name)
{
    FPC_ASSERT(isPowerOf2(config_.capacityBytes));
    FPC_ASSERT(isPowerOf2(config_.pageBytes));
    FPC_ASSERT(config_.pageBytes <= kMaxPageBytes);
    FPC_ASSERT(isPowerOf2(config_.assoc));
    FPC_ASSERT(isPowerOf2(config_.tagBufferEntries));
    FPC_ASSERT(isPowerOf2(config_.tagBufferAssoc));
    FPC_ASSERT(config_.tagBufferAssoc <= config_.tagBufferEntries);
    frames_ = config_.capacityBytes / config_.pageBytes;
    sets_ = frames_ / config_.assoc;
    FPC_ASSERT(isPowerOf2(sets_));
    blocks_per_page_ = config_.pageBytes / kBlockBytes;
    offset_mask_ = blocks_per_page_ - 1;
    page_shift_ = floorLog2(config_.pageBytes);
    sample_mask_ = (std::uint64_t{1} << config_.sampleShift) - 1;
    tb_set_mask_ =
        config_.tagBufferEntries / config_.tagBufferAssoc - 1;
    partition_ = config_.tenants.setPartition(sets_, page_shift_);
    quota_ = config_.tenants.quota(frames_);
    ways_.resize(frames_);
    cand_.resize(sets_);
    tagbuf_.resize(config_.tagBufferEntries);

    stats_.regCounter(&demand_accesses_, "demand_accesses",
                      "LLC misses served");
    stats_.regCounter(&hits_, "hits", "page-resident block hits");
    stats_.regCounter(&misses_, "misses", "block misses");
    stats_.regCounter(&bypassed_misses_, "bypassed_misses",
                      "misses served off chip without a fill");
    stats_.regCounter(&quota_bypass_, "quota_bypasses",
                      "page installs bypassed by the tenant "
                      "quota");
    stats_.regCounter(&fills_, "page_fills",
                      "whole-page installs");
    stats_.regCounter(&replacements_, "replacements",
                      "fills that displaced a resident page");
    stats_.regCounter(&fill_blocks_written_, "fill_blocks_written",
                      "blocks written into the cache by fills");
    stats_.regCounter(&offchip_fill_blocks_, "offchip_fill_blocks",
                      "blocks read off chip by fills");
    stats_.regCounter(&dirty_blocks_evicted_,
                      "dirty_blocks_evicted",
                      "dirty blocks written off chip on eviction");
    stats_.regCounter(&tb_hits_, "tag_buffer_hits",
                      "mappings resolved in the SRAM tag buffer");
    stats_.regCounter(&tb_misses_, "tag_buffer_misses",
                      "mappings read from the in-DRAM tags");
    stats_.regCounter(&tb_flushes_, "tag_flushes",
                      "lazy batch flushes of dirty mappings");
    stats_.regCounter(&tb_flushed_, "flushed_mappings",
                      "mappings written to DRAM tags by flushes");
    stats_.regCounter(&wb_hits_, "writeback_hits",
                      "LLC writebacks absorbed");
    stats_.regCounter(&wb_misses_, "writeback_misses",
                      "LLC writebacks not absorbed");
}

unsigned
BansheeCache::findWay(std::uint64_t set, Addr page_id) const
{
    const std::size_t base = set * config_.assoc;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        const Way &way = ways_[base + w];
        if (way.valid && way.pageId == page_id)
            return w;
    }
    return config_.assoc;
}

void
BansheeCache::flushTagBuffer(Cycle when)
{
    tb_flushes_.inc();
    for (TagBufEntry &e : tagbuf_) {
        if (!e.valid || !e.dirty)
            continue;
        tb_flushed_.inc();
        e.dirty = false;
        // One batched tag write per mapping.
        stacked_.access(when, tagRowAddr(setOf(e.pageId)), true, 1);
    }
    tb_dirty_ = 0;
}

BansheeCache::TagBufEntry &
BansheeCache::installTagBuf(Cycle when, Addr page_id, bool dirty)
{
    const std::size_t base =
        tbSetOf(page_id) * config_.tagBufferAssoc;
    std::size_t victim = base;
    for (unsigned w = 0; w < config_.tagBufferAssoc; ++w) {
        TagBufEntry &e = tagbuf_[base + w];
        if (!e.valid) {
            victim = base + w;
            break;
        }
        if (e.lastUse < tagbuf_[victim].lastUse)
            victim = base + w;
    }
    TagBufEntry &e = tagbuf_[victim];
    if (e.valid && e.dirty) {
        // The displaced mapping must reach the in-DRAM tags
        // before its buffer slot is reused.
        --tb_dirty_;
        tb_flushed_.inc();
        stacked_.access(when, tagRowAddr(setOf(e.pageId)), true, 1);
    }
    e.pageId = page_id;
    e.valid = true;
    e.dirty = dirty;
    e.lastUse = ++tb_tick_;
    if (dirty &&
        ++tb_dirty_ >= config_.tagBufferFlushThreshold) {
        flushTagBuffer(when);
    }
    return e;
}

Cycle
BansheeCache::resolveMapping(Cycle now, Addr page_id)
{
    const std::size_t base =
        tbSetOf(page_id) * config_.tagBufferAssoc;
    for (unsigned w = 0; w < config_.tagBufferAssoc; ++w) {
        TagBufEntry &e = tagbuf_[base + w];
        if (e.valid && e.pageId == page_id) {
            tb_hits_.inc();
            e.lastUse = ++tb_tick_;
            return now + config_.tagBufferLatencyCycles;
        }
    }
    // Buffer miss: the mapping comes from the in-DRAM tags,
    // serialized before any data access.
    tb_misses_.inc();
    const Cycle ready =
        stacked_
            .access(now + config_.tagBufferLatencyCycles,
                    tagRowAddr(setOf(page_id)), false, 1)
            .firstBlockReady;
    installTagBuf(now, page_id, false);
    return ready;
}

void
BansheeCache::markMappingDirty(Cycle when, Addr page_id)
{
    const std::size_t base =
        tbSetOf(page_id) * config_.tagBufferAssoc;
    for (unsigned w = 0; w < config_.tagBufferAssoc; ++w) {
        TagBufEntry &e = tagbuf_[base + w];
        if (!e.valid || e.pageId != page_id)
            continue;
        e.lastUse = ++tb_tick_;
        if (!e.dirty) {
            e.dirty = true;
            if (++tb_dirty_ >= config_.tagBufferFlushThreshold)
                flushTagBuffer(when);
        }
        return;
    }
    installTagBuf(when, page_id, true);
}

bool
BansheeCache::installPage(Cycle when, Addr page_id,
                          std::uint64_t set, unsigned way,
                          std::uint32_t freq)
{
    Way &w = ways_[set * config_.assoc + way];
    if (quota_.enabled()) {
        const std::uint32_t tenant = pageTenant(page_id);
        const std::uint32_t victim_tenant =
            w.valid ? pageTenant(w.pageId) : 0;
        if (!quota_.mayFill(tenant, w.valid, victim_tenant)) {
            quota_bypass_.inc();
            return false;
        }
    }
    if (w.valid) {
        if (intro_) {
            intro_->noteSetConflict(set);
            intro_->noteTouchedBlocks(w.touched.count());
        }
        quota_.release(pageTenant(w.pageId));
        replacements_.inc();
        const unsigned dirty = w.dirty.count();
        if (dirty > 0) {
            dirty_blocks_evicted_.inc(dirty);
            DramAccessResult rd = stacked_.access(
                when, frameAddr(set, way), false, dirty);
            offchip_.access(rd.done, w.pageId << page_shift_, true,
                            dirty);
        }
        markMappingDirty(when, w.pageId);
    }

    quota_.charge(pageTenant(page_id));
    // Whole-page fill: off-chip reads plus in-cache writes, both
    // charged as fill bandwidth.
    fills_.inc();
    offchip_fill_blocks_.inc(blocks_per_page_);
    fill_blocks_written_.inc(blocks_per_page_);
    DramAccessResult rd = offchip_.access(
        when, page_id << page_shift_, false, blocks_per_page_);
    stacked_.access(rd.done, frameAddr(set, way), true,
                    blocks_per_page_);
    w.pageId = page_id;
    w.freq = freq;
    w.valid = true;
    w.dirty.reset();
    w.touched.reset();
    if (intro_)
        intro_->noteFetchedBlocks(blocks_per_page_);
    markMappingDirty(when, page_id);
    return true;
}

void
BansheeCache::considerFill(Cycle when, Addr page_id,
                           std::uint64_t set)
{
    const std::size_t base = set * config_.assoc;

    // Cold sets fill unconditionally (quota permitting).
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!ways_[base + w].valid) {
            if (!installPage(when, page_id, set, w, 1))
                bypassed_misses_.inc();
            return;
        }
    }

    // Frequency duel: the missing page challenges the coldest
    // resident and only wins — triggering the only fill path —
    // when its counter is strictly higher.
    unsigned victim = 0;
    for (unsigned w = 1; w < config_.assoc; ++w) {
        if (ways_[base + w].freq < ways_[base + victim].freq)
            victim = w;
    }
    Candidate &c = cand_[set];
    if (c.valid && c.pageId == page_id) {
        ++c.freq;
        if (c.freq > ways_[base + victim].freq) {
            const std::uint32_t freq = c.freq;
            c.valid = false;
            c.freq = 0;
            if (!installPage(when, page_id, set, victim, freq))
                bypassed_misses_.inc();
            return;
        }
    } else if (!c.valid) {
        c.pageId = page_id;
        c.freq = 1;
        c.valid = true;
    } else if (c.freq > 0 && --c.freq == 0) {
        // CLOCK-style decay: a drained challenger cedes the slot.
        c.pageId = page_id;
        c.freq = 1;
    }
    bypassed_misses_.inc();
}

MemSystemResult
BansheeCache::access(Cycle now, const MemRequest &req)
{
    demand_accesses_.inc();
    const Addr page_id = req.paddr >> page_shift_;
    const std::uint64_t set = setOf(page_id);
    if (intro_)
        intro_->noteSetAccess(set);
    const Cycle tag_ready = resolveMapping(now, page_id);
    const bool sample =
        (demand_accesses_.value() & sample_mask_) == 0;

    const unsigned w = findWay(set, page_id);
    if (w != config_.assoc) {
        Way &way = ways_[set * config_.assoc + w];
        hits_.inc();
        if (intro_)
            way.touched.set(offsetOf(req.paddr));
        if (sample && ++way.freq >= config_.freqMax) {
            // Local aging: halve the set so duels stay decidable.
            const std::size_t base = set * config_.assoc;
            for (unsigned i = 0; i < config_.assoc; ++i)
                ways_[base + i].freq /= 2;
            if (cand_[set].valid)
                cand_[set].freq /= 2;
        }
        DramAccessResult res = stacked_.access(
            tag_ready,
            frameAddr(set, w) +
                static_cast<Addr>(offsetOf(req.paddr)) *
                    kBlockBytes,
            false, 1);
        return {res.firstBlockReady, true};
    }

    // Miss: the demanded block is served straight from off-chip
    // memory — no fill on the critical path, and usually no fill
    // at all (bandwidth-aware replacement).
    misses_.inc();
    const Cycle done =
        offchip_.access(tag_ready, blockAlign(req.paddr), false, 1)
            .firstBlockReady;
    if (sample)
        considerFill(tag_ready, page_id, set);
    else
        bypassed_misses_.inc();
    return {done, false};
}

void
BansheeCache::writeback(Cycle now, Addr block_addr)
{
    const Addr page_id = block_addr >> page_shift_;
    const std::uint64_t set = setOf(page_id);
    const Cycle tag_ready = resolveMapping(now, page_id);
    const unsigned w = findWay(set, page_id);
    if (w != config_.assoc) {
        Way &way = ways_[set * config_.assoc + w];
        wb_hits_.inc();
        way.dirty.set(offsetOf(block_addr));
        stacked_.access(tag_ready,
                        frameAddr(set, w) +
                            static_cast<Addr>(offsetOf(block_addr)) *
                                kBlockBytes,
                        true, 1);
        return;
    }
    // No write-allocate: absent pages take the writeback off
    // chip, keeping fills under replacement control.
    wb_misses_.inc();
    offchip_.access(tag_ready, blockAlign(block_addr), true, 1);
}

void
BansheeCache::attachIntrospection(CacheIntrospection *intro)
{
    intro_ = intro;
    if (intro_)
        intro_->configureSetSpace(sets_);
}

void
BansheeCache::finalizeIntrospection()
{
    if (!intro_)
        return;
    for (std::uint64_t set = 0; set < sets_; ++set) {
        const std::size_t base = set * config_.assoc;
        std::uint64_t n = 0;
        for (unsigned w = 0; w < config_.assoc; ++w) {
            const Way &way = ways_[base + w];
            if (!way.valid)
                continue;
            ++n;
            intro_->noteTouchedBlocks(way.touched.count());
        }
        if (n)
            intro_->noteSetOccupied(set, n);
    }
}

void
BansheeCache::visitStatGroups(
    const std::function<void(const StatGroup &)> &fn) const
{
    fn(stats_);
}

void
registerBansheeDesign(DesignRegistry &reg)
{
    DesignDef def;
    def.name = "banshee";
    def.title = "Banshee-style page cache: tag buffer, lazy tag "
                "update, frequency-based bypassing replacement";
    def.build = [](const DesignConfig &cfg, DramSystem *stacked,
                   DramSystem &offchip) {
        BansheeCache::Config bc;
        bc.capacityBytes = cfg.capacityBytes();
        bc.pageBytes = cfg.pageBytes;
        bc.assoc = static_cast<unsigned>(
            cfg.params.getU64("banshee.assoc", bc.assoc));
        bc.tagBufferEntries = static_cast<std::uint32_t>(
            cfg.params.getU64("banshee.tag_buffer_entries",
                              bc.tagBufferEntries));
        bc.tagBufferFlushThreshold = static_cast<std::uint32_t>(
            cfg.params.getU64("banshee.flush_threshold",
                              bc.tagBufferFlushThreshold));
        bc.sampleShift = static_cast<unsigned>(
            cfg.params.getU64("banshee.sample_shift",
                              bc.sampleShift));
        bc.tenants = TenantPartitionParams::fromParams(cfg.params);
        DesignInstance inst;
        inst.memory = std::make_unique<BansheeCache>(bc, *stacked,
                                                     offchip);
        return inst;
    };
    reg.add(std::move(def));
}

} // namespace fpc
