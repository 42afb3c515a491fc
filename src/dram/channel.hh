/**
 * @file
 * Cycle-resolution timing model of one DRAM channel.
 *
 * Models per-bank row-buffer state (open row, activate/precharge
 * windows), rank-level tRRD/tFAW activation constraints, data-bus
 * occupancy, write-to-read turnaround, open/closed page policies,
 * and dynamic energy (activate/precharge vs read/write bursts).
 *
 * The model is *reservation based*: callers present accesses in
 * nondecreasing time order (guaranteed by the event-ordered run
 * loop) and each access reserves the resources it needs, returning
 * the cycle at which its data transfer completes. This captures the
 * queueing, bank-conflict and bus-saturation behaviour that drives
 * the paper's results while remaining deterministic and fast.
 */

#ifndef FPC_DRAM_CHANNEL_HH
#define FPC_DRAM_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace fpc {

/** Completion information for one channel access. */
struct DramAccessResult
{
    /** Cycle at which the first block's data is available. */
    Cycle firstBlockReady = 0;

    /** Cycle at which the last block's transfer completes. */
    Cycle done = 0;

    /** Did the access hit an open row? */
    bool rowHit = false;
};

/** One DRAM channel: banks sharing a command/data bus. */
class DramChannel
{
  public:
    DramChannel(const DramTimingParams &timing,
                const DramEnergyParams &energy, std::string name);

    /**
     * Perform a burst of @p num_blocks consecutive 64B column
     * accesses at channel-local address @p local_addr.
     *
     * Blocks that cross a row boundary continue in the next row
     * (additional activates as needed). @p when must be
     * nondecreasing across calls.
     */
    DramAccessResult access(Cycle when, Addr local_addr,
                            bool is_write, unsigned num_blocks = 1);

    /**
     * Perform a *compound* access (Loh-Hill block cache, §5.2):
     * one activation followed by a tag-read CAS, a one-cycle tag
     * check, and a data CAS, all within the same row.
     */
    DramAccessResult compoundAccess(Cycle when, Addr row_addr,
                                    bool is_write);

    /** Earliest cycle at which the data bus is free. */
    Cycle busFreeAt() const { return bus_free_at_; }

    /* Statistics accessors. */
    std::uint64_t activates() const { return acts_.value(); }
    std::uint64_t rowHits() const { return row_hits_.value(); }
    std::uint64_t rowConflicts() const { return row_confl_.value(); }
    std::uint64_t blocksRead() const { return blocks_rd_.value(); }
    std::uint64_t blocksWritten() const { return blocks_wr_.value(); }

    /** Total bytes moved over the data bus. */
    std::uint64_t
    bytesTransferred() const
    {
        return (blocks_rd_.value() + blocks_wr_.value()) *
               kBlockBytes;
    }

    /** Cycles the data bus spent transferring. */
    std::uint64_t busBusyCycles() const { return bus_busy_.value(); }

    double actPreEnergyNj() const { return e_actpre_.value(); }
    double burstEnergyNj() const { return e_burst_.value(); }

    /** Mean read wait on bank readiness (diagnostics). */
    double
    avgReadBankWait() const
    {
        return reads_n_ ? bank_wait_ / reads_n_ : 0.0;
    }

    /** Mean read wait on the data bus (diagnostics). */
    double
    avgReadBusWait() const
    {
        return reads_n_ ? bus_wait_ / reads_n_ : 0.0;
    }

    const DramTimingParams &timing() const { return timing_; }
    const StatGroup &stats() const { return stats_; }
    void resetStats() { stats_.resetAll(); }

    /**
     * Allocate per-bank activate/read/write counters (heatmap
     * telemetry). Off by default: the hot path then tests one
     * empty-vector flag per access. The counters are cleared by
     * resetTiming(), so after the warmup/measurement boundary
     * they cover exactly the measured window and sum bit-exactly
     * to the window deltas of the aggregate counters.
     */
    void
    enableBankCounters()
    {
        bank_acts_.assign(timing_.numBanks, 0);
        bank_rd_.assign(timing_.numBanks, 0);
        bank_wr_.assign(timing_.numBanks, 0);
    }

    bool bankCountersEnabled() const
    {
        return !bank_acts_.empty();
    }
    std::uint64_t bankActivates(unsigned bank) const
    {
        return bank_acts_[bank];
    }
    std::uint64_t bankBlocksRead(unsigned bank) const
    {
        return bank_rd_[bank];
    }
    std::uint64_t bankBlocksWritten(unsigned bank) const
    {
        return bank_wr_[bank];
    }

    /**
     * Clear all bank/bus reservation state (open rows, activate
     * windows, bus occupancy) while keeping the statistics. Used at
     * the two-phase engine's warmup/measurement boundary so the
     * measurement phase starts from a drained channel however the
     * warmup ran, and so cycle time may restart from zero.
     */
    void resetTiming();

    /** Bank backlog relative to @p now (diagnostics). */
    std::int64_t
    bankBacklog(unsigned bank, Cycle now) const
    {
        return static_cast<std::int64_t>(
                   banks_[bank].nextActAllowed) -
               static_cast<std::int64_t>(now);
    }

    /**
     * Banks still inside a reserved activate window at @p now
     * (their earliest precharge lies in the future) — the
     * occupancy sampled by the telemetry bank-occupancy
     * histogram. O(numBanks); called only on the branch-guarded
     * telemetry path, never in the default hot loop.
     */
    unsigned
    busyBanks(Cycle now) const
    {
        unsigned busy = 0;
        for (const Bank &b : banks_) {
            if (b.nextPreAllowed > now)
                ++busy;
        }
        return busy;
    }

  private:
    struct Bank
    {
        /** Currently open row, or kNoRow. */
        std::uint64_t openRow = kNoRow;

        /** Time of the most recent activate. */
        Cycle actAt = 0;

        /** Earliest cycle the next activate may issue. */
        Cycle nextActAllowed = 0;

        /** Earliest cycle a precharge may issue (tRAS etc.). */
        Cycle nextPreAllowed = 0;

        /** Earliest cycle a CAS may issue (tRCD after ACT). */
        Cycle nextCasAllowed = 0;
    };

    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    /** Ensure @p row is open in @p bank; returns ACT-done time. */
    Cycle openRow(Bank &bank, unsigned bank_idx,
                  std::uint64_t row, Cycle when, bool &row_hit);

    /** Rank-level earliest time an activate may issue at/after t. */
    Cycle activateAllowedAt(Cycle t);

    /** Record an activate for tRRD/tFAW tracking. */
    void recordActivate(Cycle t);

    /** One CAS of @p blocks sequential blocks; returns data end. */
    Cycle casBurst(Bank &bank, unsigned bank_idx, Cycle when,
                   Cycle earliest, bool is_write, unsigned blocks,
                   Cycle &first_ready);

    /** Close the row per policy bookkeeping after an access. */
    void maybeAutoPrecharge(Bank &bank, Cycle data_end,
                            bool is_write);

    DramTimingParams timing_;
    DramEnergyParams energy_;

    /** floorLog2(rowBytes); rows are a power of two. */
    unsigned row_shift_;
    /** numBanks - 1 when numBanks is a power of two, else 0. */
    std::uint64_t bank_mask_;
    /** True when numBanks is a power of two (mask path valid). */
    bool banks_pow2_;

    std::vector<Bank> banks_;
    /** Ring of the last four activate times (tFAW window). */
    Cycle recent_acts_[4] = {0, 0, 0, 0};
    unsigned recent_act_head_ = 0;
    Cycle last_act_at_ = 0;
    Cycle bus_free_at_ = 0;
    /** End of the last write burst (for tWTR turnaround). */
    Cycle last_write_end_ = 0;

    double bank_wait_ = 0.0;
    double bus_wait_ = 0.0;
    double reads_n_ = 0.0;

    /** Per-bank heatmap counters (empty = disabled). */
    std::vector<std::uint64_t> bank_acts_;
    std::vector<std::uint64_t> bank_rd_;
    std::vector<std::uint64_t> bank_wr_;

    StatGroup stats_;
    Counter acts_;
    Counter row_hits_;
    Counter row_confl_;
    Counter blocks_rd_;
    Counter blocks_wr_;
    Counter bus_busy_;
    Accum e_actpre_;
    Accum e_burst_;
};

} // namespace fpc

#endif // FPC_DRAM_CHANNEL_HH
