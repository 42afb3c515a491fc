#include "dramcache/missmap.hh"

#include "common/huge_pages.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace fpc {

MissMap::MissMap(const Config &config) : config_(config)
{
    FPC_ASSERT(config_.entries > 0 && config_.assoc > 0);
    FPC_ASSERT(config_.entries % config_.assoc == 0);
    FPC_ASSERT(config_.segmentBytes / kBlockBytes <= 64);
    sets_ = config_.entries / config_.assoc;
    FPC_ASSERT(isPowerOf2(sets_));
    reserveHugePages(entries_, config_.entries);
    entries_.resize(config_.entries);
}

std::uint32_t
MissMap::setOf(Addr segment_id) const
{
    return static_cast<std::uint32_t>(mix64(segment_id) &
                                      (sets_ - 1));
}

MissMap::Entry *
MissMap::find(Addr segment_id, bool touch)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(segment_id)) * config_.assoc;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &e = entries_[base + w];
        if (e.valid() && e.segmentId == segment_id) {
            if (touch)
                e.lastUse = ++tick_;
            return &e;
        }
    }
    return nullptr;
}

bool
MissMap::present(Addr block_addr) const
{
    const Addr seg = segmentOf(block_addr);
    const std::size_t base =
        static_cast<std::size_t>(setOf(seg)) * config_.assoc;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        const Entry &e = entries_[base + w];
        if (e.valid() && e.segmentId == seg)
            return e.bits.test(bitOf(block_addr));
    }
    return false;
}

void
MissMap::setBit(Addr block_addr, Victim &victim)
{
    victim = Victim{};
    const Addr seg = segmentOf(block_addr);
    if (Entry *e = find(seg, true)) {
        e->bits.set(bitOf(block_addr));
        return;
    }
    const std::size_t base =
        static_cast<std::size_t>(setOf(seg)) * config_.assoc;
    unsigned way = 0;
    bool found_invalid = false;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &e = entries_[base + w];
        if (!e.valid()) {
            way = w;
            found_invalid = true;
            break;
        }
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            way = w;
        }
    }
    Entry &e = entries_[base + way];
    if (!found_invalid) {
        entry_evictions_.inc();
        victim.valid = true;
        victim.segmentId = e.segmentId;
        victim.presentBlocks = e.bits;
    }
    e.segmentId = seg;
    e.lastUse = ++tick_;
    e.bits = BlockBitmap::single(bitOf(block_addr));
}

void
MissMap::clearBit(Addr block_addr)
{
    if (Entry *e = find(segmentOf(block_addr), false))
        e->bits.clear(bitOf(block_addr));
}

std::uint64_t
MissMap::storageBits(unsigned phys_addr_bits) const
{
    const unsigned seg_bits =
        phys_addr_bits - floorLog2(config_.segmentBytes);
    const unsigned set_bits = floorLog2(sets_);
    const unsigned tag_bits = seg_bits - set_bits;
    const unsigned lru_bits = floorLog2(config_.assoc) + 1;
    const std::uint64_t per_entry =
        tag_bits + blocksPerSegment() + lru_bits + 1;
    return per_entry * config_.entries;
}

} // namespace fpc
