#include "dramcache/page_tag_array.hh"

#include "common/huge_pages.hh"
#include "common/logging.hh"

namespace fpc {

PageTagArray::PageTagArray(const Config &config) : config_(config)
{
    FPC_ASSERT(isPowerOf2(config_.capacityBytes));
    FPC_ASSERT(isPowerOf2(config_.pageBytes));
    FPC_ASSERT(config_.pageBytes >= kBlockBytes);
    FPC_ASSERT(config_.pageBytes <= kMaxPageBytes);
    FPC_ASSERT(config_.assoc > 0);

    frames_ = config_.capacityBytes / config_.pageBytes;
    FPC_ASSERT(frames_ % config_.assoc == 0);
    sets_ = frames_ / config_.assoc;
    FPC_ASSERT(isPowerOf2(sets_));
    blocks_per_page_ = config_.pageBytes / kBlockBytes;
    page_shift_ = floorLog2(config_.pageBytes);
    partition_ = config_.tenants.setPartition(sets_, page_shift_);
    reserveHugePages(entries_, frames_);
    entries_.resize(frames_);
    reserveHugePages(keys_, frames_);
    keys_.assign(frames_, kNoPage);
}

PageTagEntry *
PageTagArray::lookup(Addr page_id, bool touch)
{
    const std::size_t base = setOf(page_id) * config_.assoc;
    const unsigned match_way =
        scanWays(&keys_[base], config_.assoc, page_id);
    if (match_way == config_.assoc)
        return nullptr;
    PageTagEntry &e = entries_[base + match_way];
    if (touch)
        e.lastUse = ++tick_;
    return &e;
}

PageTagEntry *
PageTagArray::allocate(Addr page_id, Victim &victim)
{
    FPC_ASSERT(page_id != kNoPage);
    FPC_ASSERT(lookup(page_id, false) == nullptr);
    const std::size_t base = setOf(page_id) * config_.assoc;

    unsigned way = 0;
    bool found_invalid = false;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (unsigned w = 0; w < config_.assoc; ++w) {
        PageTagEntry &e = entries_[base + w];
        if (!e.valid) {
            way = w;
            found_invalid = true;
            break;
        }
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            way = w;
        }
    }

    PageTagEntry &e = entries_[base + way];
    victim = Victim{};
    if (!found_invalid) {
        victim.valid = true;
        victim.pageId = e.pageId;
        victim.blocks = e.blocks;
        victim.predicted = e.predicted;
        victim.fht = e.fht;
        victim.frame = base + way;
    }

    e.pageId = page_id;
    e.valid = true;
    e.lastUse = ++tick_;
    e.blocks.reset();
    e.predicted = BlockBitmap{};
    e.fht = FhtRef{};
    keys_[base + way] = page_id;
    return &e;
}

const PageTagEntry *
PageTagArray::peekVictim(Addr page_id) const
{
    const std::size_t base = setOf(page_id) * config_.assoc;
    unsigned way = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (unsigned w = 0; w < config_.assoc; ++w) {
        const PageTagEntry &e = entries_[base + w];
        if (!e.valid)
            return nullptr;
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            way = w;
        }
    }
    return &entries_[base + way];
}

std::uint64_t
PageTagArray::frameIndex(const PageTagEntry *entry) const
{
    FPC_ASSERT(entry >= entries_.data() &&
               entry < entries_.data() + entries_.size());
    return static_cast<std::uint64_t>(entry - entries_.data());
}

std::uint64_t
PageTagArray::storageBits(unsigned phys_addr_bits,
                          bool block_vectors,
                          bool fht_pointer) const
{
    const unsigned page_offset_bits = floorLog2(config_.pageBytes);
    const unsigned set_bits = floorLog2(sets_);
    const unsigned tag_bits =
        phys_addr_bits - page_offset_bits - set_bits;
    const unsigned lru_bits = floorLog2(config_.assoc) + 1;
    std::uint64_t per_entry = tag_bits + 1 /* valid */ + lru_bits;
    if (block_vectors)
        per_entry += 2ULL * blocks_per_page_;
    else
        per_entry += blocks_per_page_; /* page dirty vector */
    if (fht_pointer)
        per_entry += 18; /* set+way+gen reference */
    return per_entry * frames_;
}

} // namespace fpc
