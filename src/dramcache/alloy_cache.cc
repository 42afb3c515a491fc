#include "dramcache/alloy_cache.hh"

#include "common/huge_pages.hh"
#include "common/logging.hh"
#include "dramcache/design_registry.hh"
#include "telemetry/introspection.hh"

namespace fpc {

AlloyCache::AlloyCache(const Config &config, DramSystem &stacked,
                       DramSystem &offchip)
    : config_(config), stacked_(stacked), offchip_(offchip),
      stats_(config.name)
{
    FPC_ASSERT(config_.tadBytes >= kBlockBytes);
    FPC_ASSERT(isPowerOf2(config_.mapEntries));
    FPC_ASSERT(config_.mapThreshold <= config_.mapCounterMax);
    num_sets_ = config_.capacityBytes / config_.tadBytes;
    FPC_ASSERT(num_sets_ > 0);
    map_mask_ = config_.mapEntries - 1;
    reserveHugePages(tads_, num_sets_);
    tads_.resize(num_sets_);
    partition_ =
        config_.tenants.setPartition(num_sets_, kBlockShift);
    quota_ = config_.tenants.quota(num_sets_);
    // Counters start at zero: a cold cache predicts miss, which
    // is both correct and the latency-optimal guess.
    map_.assign(config_.mapEntries, 0);

    stats_.regCounter(&demand_accesses_, "demand_accesses",
                      "LLC misses served");
    stats_.regCounter(&hits_, "hits", "TAD hits");
    stats_.regCounter(&misses_, "misses", "TAD misses");
    stats_.regCounter(&dirty_evictions_, "dirty_evictions",
                      "dirty victim blocks written off chip");
    stats_.regCounter(&quota_bypass_, "quota_bypasses",
                      "fills bypassed by the tenant quota");
    stats_.regCounter(&map_correct_, "map_correct",
                      "correct MAP predictions");
    stats_.regCounter(&map_mispredicts_, "map_mispredicts",
                      "wrong MAP predictions");
    stats_.regCounter(&wasted_offchip_, "wasted_offchip_reads",
                      "parallel off-chip fetches discarded on hit");
    stats_.regCounter(&wb_hits_, "writeback_hits",
                      "LLC writebacks absorbed");
    stats_.regCounter(&wb_misses_, "writeback_misses",
                      "LLC writebacks not absorbed");
}

bool
AlloyCache::fill(Cycle when, Addr block_addr, bool dirty)
{
    const std::uint64_t set = setOf(block_addr);
    Tad &tad = tads_[set];
    const bool victim_valid = tad & kValid;
    const Addr victim_addr = blockOf(tad) * kBlockBytes;
    if (quota_.enabled()) {
        const std::uint32_t tenant = tenantOfAddr(block_addr);
        const std::uint32_t victim_tenant =
            victim_valid ? tenantOfAddr(victim_addr) : 0;
        if (!quota_.mayFill(tenant, victim_valid, victim_tenant)) {
            quota_bypass_.inc();
            return false;
        }
    }
    if (victim_valid) {
        if (intro_)
            intro_->noteSetConflict(set);
        quota_.release(tenantOfAddr(victim_addr));
        if (tad & kDirty) {
            // The victim leaves through the same TAD stream: read
            // it from the row, write it off chip.
            dirty_evictions_.inc();
            DramAccessResult rd =
                stacked_.access(when, tadAddr(set), false, 1);
            offchip_.access(rd.done, victim_addr, true, 1);
        }
    }
    quota_.charge(tenantOfAddr(block_addr));
    tad = blockNumber(block_addr) << 2 | (dirty ? kDirty : 0) |
          kValid;
    // One TAD write installs tag and data together — no separate
    // tag-update access, the point of alloying.
    stacked_.access(when, tadAddr(set), true, 1);
    return true;
}

MemSystemResult
AlloyCache::access(Cycle now, const MemRequest &req)
{
    demand_accesses_.inc();
    const Addr block_addr = blockAlign(req.paddr);
    const std::uint64_t set = setOf(block_addr);
    if (intro_)
        intro_->noteSetAccess(set);
    const bool hit = holds(tads_[set], block_addr);

    std::uint8_t &ctr = mapCounter(req.pc);
    const bool predict_hit =
        config_.usePredictor ? ctr >= config_.mapThreshold : true;
    (predict_hit == hit ? map_correct_ : map_mispredicts_).inc();
    if (hit) {
        if (ctr < config_.mapCounterMax)
            ++ctr;
    } else if (ctr > 0) {
        --ctr;
    }

    const Cycle t = now + config_.mapLatencyCycles;
    if (hit) {
        hits_.inc();
        if (!predict_hit) {
            // The parallel off-chip fetch was issued and its data
            // discarded: wasted off-chip bandwidth.
            wasted_offchip_.inc();
            offchip_.access(t, block_addr, false, 1);
        }
        DramAccessResult res =
            stacked_.access(t, tadAddr(set), false, 1);
        return {res.firstBlockReady, true};
    }

    misses_.inc();
    Cycle done;
    if (predict_hit) {
        // Serial path: the TAD probe must come back empty before
        // the off-chip fetch starts.
        DramAccessResult probe =
            stacked_.access(t, tadAddr(set), false, 1);
        done = offchip_
                   .access(probe.firstBlockReady, block_addr,
                           false, 1)
                   .firstBlockReady;
    } else {
        // Predicted miss: memory access launches in parallel with
        // the (still mandatory) probe, hiding the probe latency.
        stacked_.access(t, tadAddr(set), false, 1);
        done = offchip_.access(t, block_addr, false, 1)
                   .firstBlockReady;
    }
    fill(done, block_addr, false);
    return {done, false};
}

void
AlloyCache::writeback(Cycle now, Addr block_addr)
{
    block_addr = blockAlign(block_addr);
    const std::uint64_t set = setOf(block_addr);
    Tad &tad = tads_[set];
    if (holds(tad, block_addr)) {
        wb_hits_.inc();
        tad |= kDirty;
        stacked_.access(now, tadAddr(set), true, 1);
        return;
    }
    wb_misses_.inc();
    if (config_.allocateOnWriteback) {
        // Full-line write: install without an off-chip fetch. A
        // quota-bypassed install sends the write off chip instead.
        if (!fill(now, block_addr, true))
            offchip_.access(now, block_addr, true, 1);
    } else {
        offchip_.access(now, block_addr, true, 1);
    }
}

void
AlloyCache::attachIntrospection(CacheIntrospection *intro)
{
    intro_ = intro;
    if (intro_)
        intro_->configureSetSpace(num_sets_);
}

void
AlloyCache::finalizeIntrospection()
{
    if (!intro_)
        return;
    // Direct-mapped: one TAD per set. Batch consecutive resident
    // sets per bin would need binOf; one call per TAD is fine at
    // finalize time (runs once per measured run).
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        if (tads_[set] & kValid)
            intro_->noteSetOccupied(set, 1);
    }
}

void
AlloyCache::visitStatGroups(
    const std::function<void(const StatGroup &)> &fn) const
{
    fn(stats_);
}

void
registerAlloyDesign(DesignRegistry &reg)
{
    DesignDef def;
    def.name = "alloy";
    def.title = "Alloy-style direct-mapped TAD cache: no SRAM "
                "tags, MAP miss predictor";
    // TADs stream block-sized units from scattered rows, like the
    // block design: close-page policy, 64B channel interleaving.
    def.configureStacked = [](const DesignConfig &,
                              DramSystem::Config &stk) {
        stk.timing.policy = PagePolicy::Closed;
        stk.interleaveBytes = kBlockBytes;
    };
    def.build = [](const DesignConfig &cfg, DramSystem *stacked,
                   DramSystem &offchip) {
        AlloyCache::Config ac;
        ac.capacityBytes = cfg.capacityBytes();
        ac.mapEntries = static_cast<std::uint32_t>(
            cfg.params.getU64("alloy.map_entries", ac.mapEntries));
        ac.usePredictor =
            cfg.params.getBool("alloy.predictor", ac.usePredictor);
        ac.tenants = TenantPartitionParams::fromParams(cfg.params);
        DesignInstance inst;
        inst.memory = std::make_unique<AlloyCache>(ac, *stacked,
                                                   offchip);
        return inst;
    };
    reg.add(std::move(def));
}

} // namespace fpc
