/**
 * @file
 * Sampled-execution configuration and confidence-interval math.
 *
 * SMARTS/interval-style sampling (Wunderlich et al.): instead of
 * timing every record of the measurement window, the pod times
 * only short measurement intervals spread uniformly over the
 * span and treats the per-interval metrics as samples of the
 * full window, reporting mean + 95% confidence intervals. The
 * gaps between intervals never run the timing loop — state
 * stays stream-accurate through a design-independent span
 * artifact (hierarchy snapshots + the post-L2 op stream, see
 * SampleSpanArtifact) that is orders of magnitude cheaper to
 * replay than either engine phase. The schedule is derived
 * purely from record counts, so sampled runs inherit every
 * determinism guarantee of the exact engine (`--jobs 1` ≡
 * `--jobs N` bit-exactly, at any trace-cache budget).
 */

#ifndef FPC_SIM_SAMPLING_HH
#define FPC_SIM_SAMPLING_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/counters.hh"

namespace fpc {

/** Knobs of one sampled execution (PodSystem::runSampled). */
struct SamplingConfig
{
    /** Off by default: exact mode stays byte-identical. */
    bool enabled = false;

    /**
     * Measurement intervals spread uniformly over the span. With
     * auto-tuning (targetCi) this is the ceiling; the run may
     * stop earlier once the CI target is met. The default
     * schedule (10 x 4000-record intervals) holds >= 90% CI
     * coverage across all designs on the quick grid while
     * keeping the timed fraction of the span small; see
     * scripts/check_sampling.py.
     */
    unsigned intervals = 10;

    /** Timed records aggregated per measurement interval. */
    std::uint64_t intervalRecords = 4000;

    /**
     * Timed ramp-up records preceding each measured interval,
     * excluded from aggregation: they re-train the DRAM queue
     * and MLP state the per-interval timing reset discarded.
     * 0 = intervalRecords / 2.
     */
    std::uint64_t rampRecords = 0;

    /**
     * Target relative 95% CI half-width of per-interval IPC
     * (e.g. 0.02 = ±2%). 0 disables auto-tuning: all
     * `intervals` intervals run.
     */
    double targetCi = 0.0;

    /** Intervals before auto-tuning may stop the run. */
    unsigned minIntervals = 8;

    std::uint64_t
    effectiveRampRecords() const
    {
        return rampRecords ? rampRecords : intervalRecords / 2;
    }

    bool operator==(const SamplingConfig &) const = default;
};

/**
 * Concrete layout of one sampled span, derived from a
 * SamplingConfig and the span length by pure record arithmetic
 * (computeSampleSchedule). Each of the `intervals` periods is
 * [gap][ramp][measure]: the gap is warmed from the span
 * artifact, the timed ramp re-trains the DRAM/MLP state the
 * per-period timing reset discarded (excluded from aggregation),
 * and the measured interval is what the statistics see. Both the
 * span artifact's cut points and runSampled's execution follow
 * this same struct, which is why they can be built and consumed
 * independently.
 */
struct SampleSchedule
{
    unsigned intervals = 0;
    std::uint64_t period = 0;
    /** period - ramp - measure (artifact-warmed records). */
    std::uint64_t gap = 0;
    std::uint64_t ramp = 0;
    std::uint64_t measure = 0;

    /**
     * Telemetry epoch granularity: divides both ramp and measure,
     * so one timed run per period produces epochs splitting
     * exactly at the ramp/measure boundary.
     */
    std::uint64_t epoch = 0;

    /** Leading epochs of each period that are ramp (dropped). */
    std::size_t rampEpochs = 0;

    /** Records the schedule covers (intervals * period). */
    std::uint64_t
    spanRecords() const
    {
        return static_cast<std::uint64_t>(intervals) * period;
    }
};

/**
 * Fit @p cfg to a span of @p span_refs records. Every period must
 * hold its timed portion (ramp + measure); when the span is too
 * short for the configured interval count, the count shrinks to
 * fit rather than fail.
 */
SampleSchedule computeSampleSchedule(const SamplingConfig &cfg,
                                     std::uint64_t span_refs);

/** Mean and 95% CI half-width of one metric's interval samples. */
struct SampleStats
{
    unsigned n = 0;
    double mean = 0.0;
    /** 95% CI half-width (0 when n < 2). */
    double ci95 = 0.0;

    /** CI half-width relative to the mean (0 for a zero mean). */
    double
    relativeCi() const
    {
        return mean != 0.0 ? ci95 / (mean < 0 ? -mean : mean)
                           : 0.0;
    }
};

/**
 * Two-sided 95% Student-t critical value for @p df degrees of
 * freedom (exact table through 30, then the common coarse steps
 * down to the normal limit 1.960).
 */
double studentT95(unsigned df);

/** Sample mean + t-based 95% CI half-width of @p values. */
SampleStats computeSampleStats(const std::vector<double> &values);

/**
 * One derived ratio a sampled run estimates: its per-interval mean
 * and 95% CI land in the "<name>_mean" / "<name>_ci95" extras, and
 * `of` is the same PodCounters method the exact run reports.
 */
struct SampledRatio
{
    const char *name;
    double (*of)(const PodCounters &);
};

inline constexpr std::array<SampledRatio, 4> kSampledRatios{{
    {"ipc", [](const PodCounters &c) { return c.ipc(); }},
    {"miss_ratio",
     [](const PodCounters &c) { return c.missRatio(); }},
    {"avg_latency",
     [](const PodCounters &c) { return c.avgAccessLatencyCycles(); }},
    {"offchip_gbps",
     [](const PodCounters &c) { return c.offchipBandwidthGBps(); }},
}};

} // namespace fpc

#endif // FPC_SIM_SAMPLING_HH
