/**
 * @file
 * Differential tests of the block and alloy designs' compact tag
 * state. The block cache is driven side by side with a reference
 * model that keeps per-way {block id, timestamp, valid, dirty}
 * records and evicts the smallest timestamp; every result, every
 * way placement and every counter must agree after each call.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/block_cache.hh"
#include "dramcache/design_registry.hh"

namespace fpc {
namespace {

DramSystem::Config
closedPageStacked()
{
    DramSystem::Config c = DramSystem::Config::stackedPod();
    c.timing.policy = PagePolicy::Closed;
    c.interleaveBytes = kBlockBytes;
    return c;
}

/** Set-associative segment tracker with timestamp LRU. */
class RefMissMap
{
  public:
    struct Victim
    {
        bool valid = false;
        Addr segmentId = 0;
        std::uint64_t bits = 0;
    };

    explicit RefMissMap(const MissMap::Config &c)
        : cfg_(c), sets_(c.entries / c.assoc), entries_(c.entries)
    {
    }

    bool
    present(Addr block_addr) const
    {
        const Entry *e = find(block_addr / MissMap::kSegmentBytes);
        return e && ((e->bits >> bitOf(block_addr)) & 1);
    }

    Victim
    setBit(Addr block_addr)
    {
        Victim victim;
        const Addr seg = block_addr / MissMap::kSegmentBytes;
        if (Entry *e = find(seg)) {
            e->lastUse = ++tick_;
            e->bits |= std::uint64_t{1} << bitOf(block_addr);
            return victim;
        }
        Entry *slot = nullptr;
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            Entry &e = entries_[base(seg) + w];
            if (!e.valid) {
                slot = &e;
                break;
            }
            if (!slot || e.lastUse < slot->lastUse)
                slot = &e;
        }
        if (slot->valid)
            victim = {true, slot->segmentId, slot->bits};
        *slot = {seg, std::uint64_t{1} << bitOf(block_addr),
                 ++tick_, true};
        return victim;
    }

    void
    clearBit(Addr block_addr)
    {
        if (Entry *e = find(block_addr / MissMap::kSegmentBytes)) {
            e->bits &= ~(std::uint64_t{1} << bitOf(block_addr));
            if (e->bits == 0)
                e->valid = false;
        }
    }

  private:
    struct Entry
    {
        Addr segmentId = 0;
        std::uint64_t bits = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t
    base(Addr seg) const
    {
        return (mix64(seg) & (sets_ - 1)) * cfg_.assoc;
    }

    unsigned
    bitOf(Addr block_addr) const
    {
        return (block_addr % MissMap::kSegmentBytes) / kBlockBytes;
    }

    const Entry *
    find(Addr seg) const
    {
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            const Entry &e = entries_[base(seg) + w];
            if (e.valid && e.segmentId == seg)
                return &e;
        }
        return nullptr;
    }

    Entry *
    find(Addr seg)
    {
        return const_cast<Entry *>(
            static_cast<const RefMissMap *>(this)->find(seg));
    }

    MissMap::Config cfg_;
    std::uint64_t sets_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;
};

/**
 * The block design as a timestamp-LRU model: the same DRAM calls
 * in the same order as BlockCache, on its own DRAM systems.
 */
class TickLruBlockCache
{
  public:
    explicit TickLruBlockCache(const BlockCache::Config &c)
        : stacked(closedPageStacked()),
          offchip(DramSystem::Config::offchipPod()), cfg_(c),
          missmap_(c.missMap), sets_(c.capacityBytes / BlockCache::kRowBytes),
          ways_(sets_ * BlockCache::kDataBlocksPerRow),
          partition_(c.tenants.setPartition(sets_, kBlockShift)),
          quota_(c.tenants.quota(sets_ * BlockCache::kDataBlocksPerRow))
    {
    }

    MemSystemResult
    access(Cycle now, Addr addr)
    {
        ++counters["demand_accesses"];
        const Addr block_addr = blockAlign(addr);
        const Cycle t = now + cfg_.missMapLatencyCycles;
        if (missmap_.present(block_addr)) {
            Way *way = find(block_addr);
            EXPECT_NE(way, nullptr);
            way->lastUse = ++tick_;
            ++counters["hits"];
            return {stacked
                        .compoundAccess(t, rowAddr(setOf(block_addr)),
                                        false)
                        .firstBlockReady,
                    true};
        }
        ++counters["misses"];
        const DramAccessResult off =
            offchip.access(t, block_addr, false, 1);
        fill(off.firstBlockReady, block_addr, false);
        return {off.firstBlockReady, false};
    }

    void
    writeback(Cycle now, Addr addr)
    {
        const Addr block_addr = blockAlign(addr);
        const Cycle t = now + cfg_.missMapLatencyCycles;
        if (missmap_.present(block_addr)) {
            Way *way = find(block_addr);
            EXPECT_NE(way, nullptr);
            way->lastUse = ++tick_;
            way->dirty = true;
            ++counters["writeback_hits"];
            stacked.compoundAccess(t, rowAddr(setOf(block_addr)),
                                   true);
            return;
        }
        ++counters["writeback_misses"];
        if (!fill(t, block_addr, true))
            offchip.access(t, block_addr, true, 1);
    }

    int
    wayOf(Addr block_addr) const
    {
        const std::uint64_t set = setOf(block_addr);
        for (unsigned w = 0; w < BlockCache::kDataBlocksPerRow; ++w) {
            const Way &way = ways_[set * BlockCache::kDataBlocksPerRow + w];
            if (way.valid && way.blockId == blockNumber(block_addr))
                return static_cast<int>(w);
        }
        return -1;
    }

    DramSystem stacked;
    DramSystem offchip;
    /** Expected value of each of BlockCache's named counters. */
    std::map<std::string, std::uint64_t> counters = {
        {"demand_accesses", 0}, {"hits", 0},
        {"misses", 0}, {"dirty_evictions", 0},
        {"quota_bypasses", 0}, {"missmap_evictions", 0},
        {"missmap_flushed_blocks", 0}, {"writeback_hits", 0},
        {"writeback_misses", 0}};
    /** Fills that displaced a valid way (the LRU path). */
    std::uint64_t lruEvictions = 0;

  private:
    struct Way
    {
        Addr blockId = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t
    setOf(Addr block_addr) const
    {
        return partition_.enabled
                   ? partition_.setOf(blockNumber(block_addr))
                   : blockNumber(block_addr) % sets_;
    }

    Addr
    rowAddr(std::uint64_t set) const
    {
        return set * BlockCache::kRowBytes;
    }

    Way *
    find(Addr block_addr)
    {
        const int w = wayOf(block_addr);
        return w < 0 ? nullptr
                     : &ways_[setOf(block_addr) *
                                  BlockCache::kDataBlocksPerRow +
                              static_cast<unsigned>(w)];
    }

    /** Drop @p way of @p set (quota, dirty write-out, invalid). */
    void
    drop(Cycle when, std::uint64_t set, unsigned w)
    {
        Way &way = ways_[set * BlockCache::kDataBlocksPerRow + w];
        quota_.release(tenantOfAddr(way.blockId * kBlockBytes));
        if (way.dirty) {
            ++counters["dirty_evictions"];
            const DramAccessResult rd = stacked.access(
                when, rowAddr(set) + w * kBlockBytes, false, 1);
            offchip.access(rd.done, way.blockId * kBlockBytes, true,
                           1);
        }
        way.valid = false;
        way.dirty = false;
    }

    bool
    fill(Cycle when, Addr block_addr, bool dirty)
    {
        const std::uint64_t set = setOf(block_addr);
        const std::size_t base = set * BlockCache::kDataBlocksPerRow;
        unsigned victim = 0;
        bool invalid = false;
        for (unsigned w = 0; w < BlockCache::kDataBlocksPerRow; ++w) {
            if (!ways_[base + w].valid) {
                victim = w;
                invalid = true;
                break;
            }
            if (ways_[base + w].lastUse < ways_[base + victim].lastUse)
                victim = w;
        }
        Way &way = ways_[base + victim];
        if (!quota_.mayFill(tenantOfAddr(block_addr), !invalid,
                            tenantOfAddr(way.blockId * kBlockBytes))) {
            ++counters["quota_bypasses"];
            return false;
        }
        if (!invalid) {
            ++lruEvictions;
            const Addr old = way.blockId * kBlockBytes;
            drop(when, set, victim);
            missmap_.clearBit(old);
        }
        quota_.charge(tenantOfAddr(block_addr));
        way = {blockNumber(block_addr), ++tick_, true, dirty};
        stacked.access(when, rowAddr(set) + victim * kBlockBytes, true,
                       1);
        stacked.access(when,
                       rowAddr(set) +
                           BlockCache::kDataBlocksPerRow * kBlockBytes,
                       true, 1);

        const RefMissMap::Victim mm = missmap_.setBit(block_addr);
        if (!mm.valid)
            return true;
        ++counters["missmap_evictions"];
        for (unsigned b = 0; b < MissMap::kSegmentBytes / kBlockBytes;
             ++b) {
            if (!((mm.bits >> b) & 1))
                continue;
            const Addr flushed =
                mm.segmentId * MissMap::kSegmentBytes +
                b * kBlockBytes;
            const int w = wayOf(flushed);
            if (w < 0)
                continue;
            ++counters["missmap_flushed_blocks"];
            drop(when, setOf(flushed), static_cast<unsigned>(w));
        }
        return true;
    }

    BlockCache::Config cfg_;
    RefMissMap missmap_;
    std::uint64_t sets_;
    std::vector<Way> ways_;
    SetPartitionSpec partition_;
    TenantQuota quota_;
    std::uint64_t tick_ = 0;
};

/** Mixed access/writeback stream of two tenants through both. */
void
runDifferential(const std::string &policy)
{
    DesignParams bag;
    bag.set("tenant.count", "2");
    bag.set("tenant.policy", policy);
    BlockCache::Config cfg;
    cfg.capacityBytes = 16 * 1024; // 8 sets x 30 ways
    cfg.missMap.entries = 16;      // 4 sets x 4 ways
    cfg.missMap.assoc = 4;
    cfg.tenants = TenantPartitionParams::fromParams(bag);

    TickLruBlockCache ref(cfg);
    DramSystem stacked(closedPageStacked());
    DramSystem offchip(DramSystem::Config::offchipPod());
    BlockCache cache(cfg, stacked, offchip);

    // 2 tenants x 512 blocks (8 segments each): far more blocks
    // than the 240 ways and segments than the 16 MissMap entries.
    std::vector<Addr> universe;
    for (std::uint32_t t = 0; t < 2; ++t)
        for (Addr b = 0; b < 512; ++b)
            universe.push_back(tenantAddrBase(t) + b * kBlockBytes);

    std::mt19937_64 rng(policy == "quota" ? 7919 : 42);
    Cycle now = 0;
    for (unsigned op = 0; op < 6000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        now += 1 + rng() % 64;
        const Addr addr = universe[rng() % universe.size()] +
                          rng() % kBlockBytes;
        if (rng() % 3 == 0) {
            cache.writeback(now, addr);
            ref.writeback(now, addr);
        } else {
            MemRequest req;
            req.paddr = addr;
            req.op = MemOp::Read;
            const MemSystemResult got = cache.access(now, req);
            const MemSystemResult want = ref.access(now, addr);
            ASSERT_EQ(got.cacheHit, want.cacheHit);
            ASSERT_EQ(got.doneAt, want.doneAt);
        }
        for (const auto &[name, value] : ref.counters)
            ASSERT_EQ(cache.stats().findCounter(name)->value(), value)
                << name;
        for (const Addr a : universe)
            ASSERT_EQ(cache.wayOf(a), ref.wayOf(a)) << std::hex << a;
    }
    EXPECT_EQ(stacked.totalBlocksRead(), ref.stacked.totalBlocksRead());
    EXPECT_EQ(stacked.totalBlocksWritten(),
              ref.stacked.totalBlocksWritten());
    EXPECT_EQ(offchip.totalBlocksRead(), ref.offchip.totalBlocksRead());
    EXPECT_EQ(offchip.totalBlocksWritten(),
              ref.offchip.totalBlocksWritten());
    EXPECT_EQ(offchip.totalActivates(), ref.offchip.totalActivates());

    // The stream reached every path the compact state changed.
    EXPECT_GT(ref.lruEvictions, 100u);
    EXPECT_GT(ref.counters["dirty_evictions"], 100u);
    EXPECT_GT(ref.counters["missmap_flushed_blocks"], 100u);
    EXPECT_GT(ref.counters["writeback_hits"], 100u);
    if (policy == "quota") {
        EXPECT_GT(ref.counters["quota_bypasses"], 0u);
    }
}

TEST(BlockTagState, MatchesTickLruModelUnderQuota)
{
    runDifferential("quota");
}

TEST(BlockTagState, MatchesTickLruModelUnderSetPartition)
{
    runDifferential("setpart");
}

class AlloyTagState : public ::testing::Test
{
  protected:
    AlloyTagState()
        : stacked_(closedPageStacked()),
          offchip_(DramSystem::Config::offchipPod())
    {
        offchip_.enableTenantAccounting(4);
        AlloyCache::Config cfg;
        cfg.capacityBytes = 64 * 72; // 64 TADs
        cache_ = std::make_unique<AlloyCache>(cfg, stacked_,
                                              offchip_);
    }

    bool
    read(Addr addr)
    {
        MemRequest req;
        req.paddr = addr;
        req.op = MemOp::Read;
        now_ += 500;
        return cache_->access(now_, req).cacheHit;
    }

    DramSystem stacked_;
    DramSystem offchip_;
    std::unique_ptr<AlloyCache> cache_;
    Cycle now_ = 0;
};

TEST_F(AlloyTagState, TenantShiftedAddressesRoundTrip)
{
    // Tenant 3, 2^43 bytes into its space: block id bits 37-39
    // set, the tenant's in the upper two.
    const Addr a = tenantAddrBase(3) + (Addr{1} << 43) + 0x1240;
    ASSERT_GE(a, Addr{1} << 44);
    cache_->writeback(now_, a); // allocates dirty
    EXPECT_TRUE(read(a));
    EXPECT_TRUE(read(a + 8)); // same block

    // Tenant 1 at the same offset: block ids differ by 2^39, so
    // 64 TADs put both in one set; only high tag bits tell them
    // apart. The miss evicts a's dirty TAD, and its write lands
    // off chip at a's address, in tenant 3's bytes.
    const Addr b = a - tenantAddrBase(2);
    ASSERT_EQ(tenantOfAddr(b), 1u);
    EXPECT_FALSE(read(b));
    EXPECT_EQ(cache_->dirtyEvictions(), 1u);
    EXPECT_EQ(offchip_.totalBlocksWritten(), 1u);
    // The cold MAP predicted miss on both hits of a: each issued
    // a parallel off-chip read of a, discarded on the hit.
    EXPECT_EQ(cache_->wastedOffchipReads(), 2u);
    EXPECT_EQ(offchip_.tenantBytes(3),
              (1 + cache_->wastedOffchipReads()) *
                  kBlockBytes); // a written, a's wasted reads
    EXPECT_EQ(offchip_.tenantBytes(1), kBlockBytes); // b read

    // b was filled clean: evicting it writes nothing back.
    EXPECT_FALSE(read(a));
    EXPECT_TRUE(read(a));
    EXPECT_EQ(cache_->dirtyEvictions(), 1u);
    EXPECT_EQ(offchip_.totalBlocksWritten(), 1u);

    // A writeback hit marks the resident TAD dirty in place.
    cache_->writeback(now_, a);
    EXPECT_FALSE(read(b));
    EXPECT_EQ(cache_->dirtyEvictions(), 2u);
    EXPECT_EQ(offchip_.totalBlocksWritten(), 2u);
    // a: written twice, read once, plus one more wasted read.
    EXPECT_EQ(cache_->wastedOffchipReads(), 3u);
    EXPECT_EQ(offchip_.tenantBytes(3),
              (3 + cache_->wastedOffchipReads()) * kBlockBytes);
    EXPECT_EQ(offchip_.tenantBytes(1), 2 * kBlockBytes);
}

} // namespace
} // namespace fpc
