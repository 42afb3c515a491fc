/**
 * @file
 * A multi-channel DRAM system (off-chip memory or the stacked
 * DRAM of one pod) with address interleaving across channels.
 *
 * Table 3: off-chip is one DDR3-1600 channel per pod with 64B
 * interleaving (when more than one channel is configured); stacked
 * DRAM is four DDR3-3200 channels per pod with 2KB (page)
 * interleaving (§5.2).
 */

#ifndef FPC_DRAM_SYSTEM_HH
#define FPC_DRAM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "dram/channel.hh"

namespace fpc {

/**
 * Simulation fidelity of the DRAM model (two-phase engine).
 *
 * The pod runs warmup in Functional mode and switches to Timed at
 * the measurement boundary. In Functional mode DramSystem skips
 * its channel timing and energy model entirely, so a memory system
 * drives the same calls in both modes and updates every structure
 * of its own — tags, per-block bitmaps, FHT training, MissMap,
 * singleton table, replacement state and event counters —
 * identically. That holds because no structure's update depends on
 * the cycle a DRAM access returns.
 */
enum class SimMode : std::uint8_t
{
    /** Full DRAM timing and energy modeling. */
    Timed,
    /** Every access returns at its issue cycle; no DRAM state. */
    Functional,
};

/** Channels + interleaving + aggregate statistics. */
class DramSystem
{
  public:
    struct Config
    {
        DramTimingParams timing;
        DramEnergyParams energy;
        unsigned numChannels = 1;
        /** Consecutive-address interleave granularity (bytes). */
        unsigned interleaveBytes = kBlockBytes;
        std::string name = "dram";

        /** One off-chip DDR3-1600 channel per pod (Table 3). */
        static Config offchipPod();

        /** Four stacked DDR3-3200 channels, 2KB interleave. */
        static Config stackedPod();
    };

    explicit DramSystem(const Config &config);

    /**
     * Select the mode of subsequent accesses. In Functional mode
     * access() and compoundAccess() return {when, when, false}
     * and touch no channel, bank, row, energy, byte, tenant or
     * bank-counter state.
     */
    void setMode(SimMode mode) { mode_ = mode; }

    /**
     * Access @p num_blocks consecutive blocks starting at @p addr.
     *
     * Bursts are split at interleave boundaries and routed to the
     * owning channels; the result aggregates the earliest critical
     * block time and the latest completion.
     */
    DramAccessResult
    access(Cycle when, Addr addr, bool is_write,
           unsigned num_blocks = 1)
    {
        FPC_ASSERT(num_blocks > 0);
        if (mode_ == SimMode::Functional)
            return {when, when, false};
        return timedAccess(when, addr, is_write, num_blocks);
    }

    /**
     * Compound (tags-in-DRAM) access for the block-based design;
     * the whole set lives in one row on one channel.
     */
    DramAccessResult
    compoundAccess(Cycle when, Addr addr, bool is_write)
    {
        // Compound accesses exist only on stacked DRAM, whose
        // frame addresses carry no ownership — tenant accounting
        // must not be enabled here (see enableTenantAccounting).
        FPC_ASSERT(tenant_bytes_.empty());
        if (mode_ == SimMode::Functional)
            return {when, when, false};
        return timedCompoundAccess(when, addr, is_write);
    }

    /**
     * Clear every channel's timing/reservation state, keeping the
     * statistics (see DramChannel::resetTiming). Called at the
     * two-phase engine's warmup/measurement boundary.
     */
    void resetTiming();

    /**
     * Attribute every byte moved to the tenant owning the
     * accessed address (tenantOfAddr; ids at or above
     * @p num_tenants clamp to the last slot). Off by default —
     * enabled by the pod on its *off-chip* system for
     * multi-tenant runs, where every address is a real physical
     * address and therefore carries its owner. Do not enable on
     * a stacked DRAM: cache-frame addresses are geometry, not
     * ownership.
     *
     * The counter increments by exactly the blocks each access()
     * hands to the channels, so the per-tenant sum equals
     * totalBytes() bit-exactly over any window.
     */
    void enableTenantAccounting(unsigned num_tenants);

    /** Bytes attributed to @p tenant (0 when accounting is off). */
    std::uint64_t
    tenantBytes(unsigned tenant) const
    {
        return tenant < tenant_bytes_.size()
                   ? tenant_bytes_[tenant]
                   : 0;
    }

    unsigned numChannels() const { return channels_.size(); }
    DramChannel &channel(unsigned i) { return *channels_[i]; }
    const DramChannel &channel(unsigned i) const
    {
        return *channels_[i];
    }

    /** Banks busy across all channels at @p now (telemetry). */
    unsigned busyBanks(Cycle now) const;

    /**
     * Enable per-bank activate/read/write counters on every
     * channel (heatmap telemetry; see
     * DramChannel::enableBankCounters).
     */
    void
    enableBankCounters()
    {
        for (auto &ch : channels_)
            ch->enableBankCounters();
    }

    bool
    bankCountersEnabled() const
    {
        return !channels_.empty() &&
               channels_.front()->bankCountersEnabled();
    }

    /** Banks per channel (heatmap grid height). */
    unsigned numBanks() const { return config_.timing.numBanks; }

    /** Aggregates across channels. */
    std::uint64_t totalActivates() const;
    std::uint64_t totalRowHits() const;
    std::uint64_t totalBlocksRead() const;
    std::uint64_t totalBlocksWritten() const;
    std::uint64_t totalBytes() const;
    double totalActPreEnergyNj() const;
    double totalBurstEnergyNj() const;

    double
    peakBandwidthGBps() const
    {
        return config_.timing.peakBandwidthGBps() * numChannels();
    }

    const Config &config() const { return config_; }

  private:
    DramAccessResult timedAccess(Cycle when, Addr addr,
                                 bool is_write, unsigned num_blocks);
    DramAccessResult timedCompoundAccess(Cycle when, Addr addr,
                                         bool is_write);

    /** Channel owning @p addr. */
    unsigned channelOf(Addr addr) const;

    /** Channel-local address (channel bits squeezed out). */
    Addr localAddr(Addr addr) const;

    Config config_;
    /** floorLog2(interleaveBytes); power of two asserted. */
    unsigned interleave_shift_;
    /** Blocks per interleave chunk. */
    unsigned blocks_per_chunk_;
    /** numChannels - 1 when a power of two, else 0. */
    unsigned channel_mask_;
    /** floorLog2(numChannels) when a power of two, else 0. */
    unsigned channel_shift_;
    /** True when numChannels is a power of two (mask path). */
    bool channels_pow2_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    /** Per-tenant byte attribution (empty = accounting off). */
    std::vector<std::uint64_t> tenant_bytes_;
    SimMode mode_ = SimMode::Timed;
};

} // namespace fpc

#endif // FPC_DRAM_SYSTEM_HH
