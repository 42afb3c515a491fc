#include "dram/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "tenant/tenant.hh"

namespace fpc {

DramSystem::Config
DramSystem::Config::offchipPod()
{
    Config cfg;
    cfg.timing = DramTimingParams::ddr3_1600_offchip();
    // 16-32GB per pod (Table 3) implies at least two ranks on the
    // channel: 16 banks of scheduling headroom.
    cfg.timing.numBanks = 16;
    cfg.energy = DramEnergyParams::offchipDdr3();
    cfg.numChannels = 1;
    cfg.interleaveBytes = kBlockBytes;
    cfg.name = "offchip";
    return cfg;
}

DramSystem::Config
DramSystem::Config::stackedPod()
{
    Config cfg;
    cfg.timing = DramTimingParams::ddr3_3200_stacked();
    cfg.energy = DramEnergyParams::stackedDram();
    cfg.numChannels = 4;
    cfg.interleaveBytes = 2048;
    cfg.name = "stacked";
    return cfg;
}

DramSystem::DramSystem(const Config &config) : config_(config)
{
    FPC_ASSERT(config_.numChannels > 0);
    FPC_ASSERT(isPowerOf2(config_.interleaveBytes));
    FPC_ASSERT(config_.interleaveBytes >= kBlockBytes);
    interleave_shift_ = floorLog2(config_.interleaveBytes);
    blocks_per_chunk_ = config_.interleaveBytes / kBlockBytes;
    channels_pow2_ = isPowerOf2(config_.numChannels);
    channel_mask_ = channels_pow2_ ? config_.numChannels - 1 : 0;
    channel_shift_ =
        channels_pow2_ ? floorLog2(config_.numChannels) : 0;
    for (unsigned c = 0; c < config_.numChannels; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            config_.timing, config_.energy,
            config_.name + ".ch" + std::to_string(c)));
    }
}

unsigned
DramSystem::channelOf(Addr addr) const
{
    const Addr chunk = addr >> interleave_shift_;
    if (channels_pow2_)
        return static_cast<unsigned>(chunk & channel_mask_);
    return static_cast<unsigned>(chunk % channels_.size());
}

Addr
DramSystem::localAddr(Addr addr) const
{
    const Addr chunk = addr >> interleave_shift_;
    const Addr offset =
        addr & (static_cast<Addr>(config_.interleaveBytes) - 1);
    const Addr local_chunk = channels_pow2_
                                 ? chunk >> channel_shift_
                                 : chunk / channels_.size();
    return (local_chunk << interleave_shift_) + offset;
}

void
DramSystem::enableTenantAccounting(unsigned num_tenants)
{
    FPC_ASSERT(num_tenants > 0);
    tenant_bytes_.assign(num_tenants, 0);
}

DramAccessResult
DramSystem::timedAccess(Cycle when, Addr addr, bool is_write,
                        unsigned num_blocks)
{
    addr = blockAlign(addr);

    if (!tenant_bytes_.empty()) {
        const std::size_t t =
            std::min<std::size_t>(tenantOfAddr(addr),
                                  tenant_bytes_.size() - 1);
        tenant_bytes_[t] +=
            static_cast<std::uint64_t>(num_blocks) * kBlockBytes;
    }

    DramAccessResult agg;
    agg.firstBlockReady = 0;
    agg.done = 0;
    bool first = true;

    unsigned remaining = num_blocks;
    while (remaining > 0) {
        const unsigned block_in_chunk = static_cast<unsigned>(
            (addr & (static_cast<Addr>(config_.interleaveBytes) -
                     1)) >>
            kBlockShift);
        const unsigned chunk =
            std::min(remaining, blocks_per_chunk_ - block_in_chunk);

        DramChannel &ch = *channels_[channelOf(addr)];
        DramAccessResult r =
            ch.access(when, localAddr(addr), is_write, chunk);
        if (first) {
            agg.firstBlockReady = r.firstBlockReady;
            agg.rowHit = r.rowHit;
            first = false;
        }
        agg.done = std::max(agg.done, r.done);
        remaining -= chunk;
        addr += static_cast<Addr>(chunk) * kBlockBytes;
    }
    return agg;
}

DramAccessResult
DramSystem::timedCompoundAccess(Cycle when, Addr addr,
                                bool is_write)
{
    DramChannel &ch = *channels_[channelOf(addr)];
    return ch.compoundAccess(when, localAddr(addr), is_write);
}

void
DramSystem::resetTiming()
{
    for (auto &ch : channels_)
        ch->resetTiming();
}

unsigned
DramSystem::busyBanks(Cycle now) const
{
    unsigned busy = 0;
    for (const auto &ch : channels_)
        busy += ch->busyBanks(now);
    return busy;
}

std::uint64_t
DramSystem::totalActivates() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->activates();
    return total;
}

std::uint64_t
DramSystem::totalRowHits() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->rowHits();
    return total;
}

std::uint64_t
DramSystem::totalBlocksRead() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->blocksRead();
    return total;
}

std::uint64_t
DramSystem::totalBlocksWritten() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->blocksWritten();
    return total;
}

std::uint64_t
DramSystem::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->bytesTransferred();
    return total;
}

double
DramSystem::totalActPreEnergyNj() const
{
    double total = 0.0;
    for (const auto &ch : channels_)
        total += ch->actPreEnergyNj();
    return total;
}

double
DramSystem::totalBurstEnergyNj() const
{
    double total = 0.0;
    for (const auto &ch : channels_)
        total += ch->burstEnergyNj();
    return total;
}

} // namespace fpc
