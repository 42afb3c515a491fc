/**
 * @file
 * Telemetry substrate for the simulation engine: interval metric
 * streaming and hot-path distribution probes.
 *
 * Everything here is opt-in and branch-guarded. With a
 * default-constructed TelemetryConfig the pod allocates no probe,
 * records no intervals, and the measured metrics are bit-identical
 * to a build that never heard of telemetry — the merged sweep
 * report stays byte-identical when no telemetry flag is passed
 * (tests/test_telemetry.cc).
 */

#ifndef FPC_TELEMETRY_TELEMETRY_HH
#define FPC_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hh"
#include "common/stats.hh"

namespace fpc {

/**
 * Per-pod telemetry knobs, carried inside PodConfig so every
 * experiment path (standard points, colocation, fig12's bespoke
 * pod) inherits them from the sweep CLI uniformly.
 */
struct TelemetryConfig
{
    /**
     * Snapshot an IntervalSample every this many trace records
     * during the measured window (0 = no interval streaming).
     * Boundaries are checked against the pod's global record
     * counter, which advances identically regardless of sweep job
     * count — epochs are deterministic and schedule-independent
     * by construction.
     */
    std::uint64_t intervalRecords = 0;

    /** Accumulate hot-path latency/occupancy/MLP histograms. */
    bool histograms = false;

    /**
     * Miss-attribution set sampling: classify stacked-DRAM misses
     * as compulsory/capacity/conflict via a shadow directory over
     * a deterministic 1-in-K sample of cache sets (0 = off). The
     * stride is part of the sampling identity: the same stride
     * samples the same sets at any job count.
     */
    unsigned missAttributionStride = 0;

    /**
     * Stream every design's structure-level counters (FHT, MissMap,
     * MAP-I, Banshee tag buffer, quotas) through the uniform
     * DesignProbe column set of the interval stream.
     */
    bool designProbes = false;

    /**
     * Accumulate spatial heatmaps: per-set occupancy / access /
     * conflict bins and per-channel-per-bank activate/read/write
     * counters over the measured window.
     */
    bool heatmaps = false;

    /**
     * Nominal cache capacity the shadow directory models; filled
     * by the Experiment harness from DesignConfig::capacityBytes()
     * (never a CLI knob). 0 falls back to 256MB.
     */
    std::uint64_t shadowCapacityBytes = 0;

    /** Any cache-introspection feature requested? */
    bool
    introspectionOn() const
    {
        return missAttributionStride != 0 || designProbes ||
               heatmaps;
    }

    bool
    enabled() const
    {
        return intervalRecords != 0 || histograms ||
               introspectionOn();
    }

    bool operator==(const TelemetryConfig &) const = default;
};

/**
 * One measurement epoch: the delta of every pod counter over
 * `traceRecords` trace records, plus the per-tenant slices.
 *
 * Only integer counters appear: integer deltas telescope exactly
 * (sum of intervals == aggregate, bit for bit), which is the
 * property the conservation tests and check_telemetry.py verify.
 * The energy accumulators are doubles and do not telescope under
 * FP addition, so they are deliberately excluded — consumers
 * derive energy from the aggregate report.
 */
struct IntervalSample : PodCounters
{
    /**
     * Introspection probe deltas for this epoch, positionally
     * aligned with the pod's probeNames() (empty unless cache
     * introspection is armed). Plain u64 counter deltas, so they
     * telescope exactly like the counter block.
     */
    std::vector<std::uint64_t> probeValues;

    /** Per-tenant deltas for this epoch (empty when solo). */
    std::vector<TenantMetrics> tenants;
};

/**
 * Hot-path distribution probe, allocated by the pod only when
 * TelemetryConfig::histograms is set. The measured loop samples
 * through a raw pointer that is null when telemetry is off, so
 * the disabled cost is one predictable branch per site.
 */
class TelemetryProbe
{
  public:
    TelemetryProbe();

    TelemetryProbe(const TelemetryProbe &) = delete;
    TelemetryProbe &operator=(const TelemetryProbe &) = delete;

    /** Memory-system latency of one demand access (cycles). */
    void
    sampleAccessLatency(std::uint64_t cycles)
    {
        access_latency_.sample(cycles);
    }

    /**
     * Decimation gate for bank-occupancy sampling. Counting the
     * busy banks is an O(channels x banks) scan — the one probe
     * input that is not already lying around in a register — so
     * occupancy is sampled every 16th demand access instead of
     * every one. The stride is a fixed counter, not a coin flip:
     * the same point samples the same accesses at any job count,
     * and a uniform stride over a long window is an unbiased
     * draw from the occupancy distribution.
     */
    bool
    tickBankSample()
    {
        if (--bank_sample_countdown_ == 0) {
            bank_sample_countdown_ = kBankSampleStride;
            return true;
        }
        return false;
    }

    static constexpr unsigned kBankSampleStride = 16;

    /** DRAM banks busy at issue time of a demand access. */
    void
    sampleBankOccupancy(std::uint64_t busy_banks)
    {
        bank_occupancy_.sample(busy_banks);
    }

    /** Outstanding-miss window depth after a load miss. */
    void
    sampleMlpWindow(std::uint64_t depth)
    {
        mlp_window_.sample(depth);
    }

    const Log2Histogram &accessLatency() const
    {
        return access_latency_;
    }
    const Log2Histogram &bankOccupancy() const
    {
        return bank_occupancy_;
    }
    const Log2Histogram &mlpWindow() const { return mlp_window_; }

    const StatGroup &stats() const { return stats_; }

    void reset();

  private:
    Log2Histogram access_latency_;
    Log2Histogram bank_occupancy_;
    Log2Histogram mlp_window_;
    StatGroup stats_;
    // Starts at 1 so the very first access is sampled.
    unsigned bank_sample_countdown_ = 1;
};

/**
 * Append the probe's percentile summary to a point's `extra`
 * key/value list in a fixed order, so report bytes are stable
 * across runs and resumes (extras already ride through the
 * journal and the JSON renderer).
 */
void appendProbeExtras(
    const TelemetryProbe &probe,
    std::vector<std::pair<std::string, double>> &extra);

} // namespace fpc

#endif // FPC_TELEMETRY_TELEMETRY_HH
