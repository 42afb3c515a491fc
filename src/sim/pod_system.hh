/**
 * @file
 * Timing simulation of one scale-out pod (Table 3): 16 cores with
 * private L1Ds, a shared L2, a below-L2 memory system (any
 * DesignRegistry organization), stacked and off-chip DRAM channel
 * models.
 *
 * The engine is two-phase. The warmup phase dispatches records to
 * cores round-robin through a lightweight loop with no event queue
 * and no OoO/MLP bookkeeping — its only job is to warm every
 * architectural structure (hierarchy, DRAM-cache tags, FHT,
 * MissMap, singleton table). Under SimMode::Functional (the
 * default) the pod puts its stacked and off-chip DramSystems in
 * Functional mode for the warmup, so every DRAM access returns at
 * its issue cycle without bank-timing or energy modeling, while
 * the memory system runs its one access path unchanged; under
 * SimMode::Timed the DRAM model runs in full, which serves as the
 * all-timed cost baseline (bench/perf_engine). Because
 * record-to-core dispatch is timing-independent and no structure's
 * state update reads the cycle argument, both warmup modes leave
 * bit-identical state at the phase boundary, where the DRAM
 * channels are drained (resetTiming) and time rebases to 0.
 *
 * The measurement phase is the full timing loop: cores are
 * trace-driven agents dispatched in global time order. Loads block
 * the issuing core until the critical block returns; stores retire
 * without blocking (write-buffer approximation) but still consume
 * hierarchy and DRAM resources. The performance metric is the
 * paper's: aggregate committed instructions over total cycles
 * (§5.4).
 */

#ifndef FPC_SIM_POD_SYSTEM_HH
#define FPC_SIM_POD_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/fault.hh"
#include "core/event_queue.hh"
#include "dram/system.hh"
#include "dramcache/interface.hh"
#include "mem/materialized_trace.hh"
#include "mem/trace.hh"
#include "mem/trace_cache.hh"
#include "sim/sampling.hh"
#include "telemetry/introspection.hh"
#include "telemetry/telemetry.hh"
#include "tenant/tenant.hh"

namespace fpc {

/** Pod-level timing parameters. */
struct PodConfig
{
    unsigned numCores = 16;

    /** Non-memory IPC of one core. */
    double coreIpc = 2.0;

    /** L1D load-to-use latency (Table 3: 2 cycles). */
    Cycle l1HitLatency = 2;

    /** L2 hit latency (Table 3: 13 cycles). */
    Cycle l2HitLatency = 13;

    /**
     * Outstanding load misses a core sustains before stalling:
     * the memory-level parallelism of the 3-way OoO core
     * (Table 3). 1 models a blocking in-order core.
     */
    unsigned mlpPerCore = 4;

    /**
     * Fidelity of the warmup phase. Functional (default) warms all
     * state without DRAM timing/energy modeling; Timed pays the
     * full model and exists as the perf baseline. Measured-phase
     * results are bit-identical across the two.
     */
    SimMode warmupMode = SimMode::Functional;

    /**
     * Legacy all-timed engine: drive warmup through the full
     * event-queue OoO/MLP timing loop instead of the lightweight
     * loop (warmupMode is then ignored; everything is timed).
     * Kept as the cost baseline for bench/perf_engine — dispatch
     * order then depends on warmup timing, so measured results are
     * NOT bit-identical with the lightweight warmup modes.
     */
    bool allTimedWarmup = false;

    /**
     * Tenants co-scheduled on this pod (multi-tenant colocation).
     * 0 (the default) disables per-tenant attribution entirely —
     * zero overhead and byte-identical reports for single-tenant
     * runs. When set, MemRequest::tenantId must stay below it
     * (the TenantMixSource guarantees this), RunMetrics::tenants
     * carries one TenantMetrics per tenant, and the pod enables
     * tenant byte accounting on the off-chip DRAM.
     */
    unsigned numTenants = 0;

    /**
     * When the current attempt at this point must stop
     * (kNoDeadline = never). The warmup, warmup-replay and
     * measurement loops compare the clock against it at batch
     * boundaries and unwind with PointCancelledError once it has
     * passed — how the sweep's per-point deadline stops a wedged
     * point without killing its thread. Deliberately excluded
     * from warmup-artifact cache keys: it never affects
     * simulated state.
     */
    Deadline deadline = kNoDeadline;

    /**
     * Telemetry knobs (interval streaming, hot-path histograms).
     * Default-constructed = fully off: no probe is allocated, no
     * intervals are recorded, and measured metrics are
     * bit-identical to a telemetry-free engine.
     */
    TelemetryConfig telemetry;

    /**
     * Sampled-execution knobs (runSampled). Default-constructed
     * = disabled; run() and the exact report are untouched.
     * Never part of warmup-artifact cache keys: sampling only
     * changes how the measurement window is executed.
     */
    SamplingConfig sampling;

    CacheHierarchy::Config hierarchy =
        CacheHierarchy::Config::scaleOutPod();

    /** Every field, `deadline` included (the sweep runner
     * groups points before it stamps the deadline on its working
     * copies). */
    bool operator==(const PodConfig &) const = default;
};

/**
 * Metrics of one window: the pod counter block plus the energy
 * accumulators (doubles, which do not telescope), the per-tenant
 * slices and the probe values. run() returns the measurement
 * window's deltas; PodSystem::capture() returns running totals in
 * the same shape.
 */
struct RunMetrics : PodCounters
{
    double offchipActPreNj = 0.0;
    double offchipBurstNj = 0.0;
    double stackedActPreNj = 0.0;
    double stackedBurstNj = 0.0;

    /** The energy accumulators, in journal order. */
    static constexpr std::array<CounterField<RunMetrics, double>, 4>
        kEnergy{{
            {"offchip_act_pre_nj", &RunMetrics::offchipActPreNj},
            {"offchip_burst_nj", &RunMetrics::offchipBurstNj},
            {"stacked_act_pre_nj", &RunMetrics::stackedActPreNj},
            {"stacked_burst_nj", &RunMetrics::stackedBurstNj},
        }};

    /**
     * Per-tenant slices of this window (PodConfig::numTenants
     * entries; empty for single-tenant runs). Every field sums
     * bit-exactly to the corresponding aggregate above.
     */
    std::vector<TenantMetrics> tenants;

    /**
     * Introspection probe deltas over this window, positionally
     * aligned with PodSystem::probeNames() (empty unless
     * introspection is on). The per-interval probeValues deltas
     * sum bit-exactly to these.
     */
    std::vector<std::uint64_t> probeValues;

    /** This window minus @p start, field by field (both are
     * capture()s of the same pod). */
    RunMetrics since(const RunMetrics &start) const;

    /** Field-wise accumulation; the tenant and probe vectors grow
     * to fit. */
    RunMetrics &operator+=(const RunMetrics &o);

    /** Off-chip DRAM dynamic energy per instruction (nJ). */
    double
    offchipEnergyPerInstr() const
    {
        return instructions ? (offchipActPreNj + offchipBurstNj) /
                                  instructions
                            : 0.0;
    }

    /** Stacked DRAM dynamic energy per instruction (nJ). */
    double
    stackedEnergyPerInstr() const
    {
        return instructions ? (stackedActPreNj + stackedBurstNj) /
                                  instructions
                            : 0.0;
    }
};

/**
 * Result of one sampled execution (PodSystem::runSampled).
 *
 * `metrics` aggregates the measured intervals only (ramp-up and
 * gap records are excluded), so its derived ratios are the
 * sampled estimates of the exact run's values. `samples` holds
 * one IntervalSample per measured interval — the inputs to the
 * mean/CI statistics (computeSampleStats) and what the telemetry
 * interval stream carries for a sampled window.
 */
struct SampledRun
{
    RunMetrics metrics;

    /** One merged sample per measured interval, in stream order. */
    std::vector<IntervalSample> samples;

    /** Intervals executed (< the configured max if auto-tuned). */
    unsigned intervalsRun = 0;

    /** Gap records fast-forwarded (never ran an engine loop). */
    std::uint64_t skippedRecords = 0;

    /** Post-L2 ops replayed to keep the gaps stream-accurate. */
    std::uint64_t replayedOps = 0;

    /** Wall clock of gap replay (ops + snapshot restores). */
    double ffSeconds = 0.0;

    /** Wall clock of the timed (ramp + measured) intervals. */
    double timedSeconds = 0.0;
};

/**
 * A post-L2 op stream: the memory-system operations a
 * hierarchy-only pass emits (PodSystem::buildWarmupArtifact and
 * buildSampleSpanArtifact), as columns, in the order the memory
 * system sees them. Both artifacts carry one.
 */
struct PostL2Ops : TraceCacheEntry
{
    /** Demand-access kinds of the op stream (kind column). */
    static constexpr std::uint8_t kRead = 0;
    static constexpr std::uint8_t kWrite = 1;
    static constexpr std::uint8_t kWriteback = 2;

    std::vector<Addr> paddr;
    std::vector<Pc> pc;
    std::vector<std::uint16_t> coreId;
    std::vector<std::uint8_t> kind;

    /** Hierarchy state bytes (filled by the builder). */
    std::uint64_t hierarchyBytes = 0;

    /** Op columns plus hierarchy state. */
    std::uint64_t
    cacheBytes() const override
    {
        return hierarchyBytes +
               paddr.size() *
                   (sizeof(Addr) + sizeof(Pc) +
                    sizeof(std::uint16_t) +
                    sizeof(std::uint8_t));
    }
};

/**
 * Design-independent image of one functional warmup window.
 *
 * Under SimMode::Functional the warmup loop's record-to-core
 * dispatch is timing-independent and the hierarchy has no feedback
 * from the memory system below, so over a given trace prefix the
 * hierarchy evolves identically for *every* design, and so does
 * the sequence of memory-system operations it emits (the deferred
 * FIFO preserves enqueue order, and every cycle argument is 0).
 * One pass over the trace therefore captures everything a design
 * needs to warm up: the hierarchy snapshot at the phase boundary
 * plus the post-L2 op stream, which each point replays into its
 * own memory system (PodSystem::applyWarmup) — skipping trace
 * decoding and hierarchy simulation entirely.
 *
 * Artifacts are keyed by trace identity, hierarchy configuration
 * and warm length, and shared through the TraceCache.
 */
struct WarmupArtifact : PostL2Ops
{
    CacheHierarchy::Snapshot hierarchy;

    /** Trace records the warm window consumed. */
    std::uint64_t records = 0;

    /** Instructions those records carried (sum of gap + 1). */
    std::uint64_t instructions = 0;
};

/**
 * Design-independent image of one sampled measurement span
 * (PodSystem::runSampled).
 *
 * The same argument that makes WarmupArtifact design-independent
 * covers the gaps between a sampled run's timed intervals: under
 * SimMode::Functional the hierarchy evolves identically for every
 * design, and so does the post-L2 op stream it emits. One pass
 * over the span (continuing the warm window's pass) therefore
 * captures, per period, everything a design needs to stay
 * stream-accurate while skipping the gap: the op stream to
 * replay into its own memory system, plus the hierarchy snapshot
 * at the period's timed start. Replay cost is O(post-L2 ops of
 * the gap) — typically far below one op per record — instead of
 * O(records) for either engine loop, which is where sampled
 * mode's speedup comes from.
 *
 * The op stream covers [warm, warm + spanRecords()) in whole
 * periods (the timed stretch of each period is generated live by
 * the measurement loop and is NOT replayed); opGapEnd/opPeriodEnd
 * cut it per period. Artifacts are keyed by trace identity,
 * hierarchy configuration, warm length and schedule, and shared
 * through the TraceCache.
 */
struct SampleSpanArtifact : PostL2Ops
{
    /** The layout this artifact was cut for. */
    SampleSchedule schedule;

    /** Per period: op index at the end of the gap / the period.
     * Period i replays ops [opPeriodEnd[i-1], opGapEnd[i]). */
    std::vector<std::uint64_t> opGapEnd;
    std::vector<std::uint64_t> opPeriodEnd;

    /** Per period: instructions the gap's records carried. */
    std::vector<std::uint64_t> gapInstructions;

    /** Per period: hierarchy state at the timed start (gap end). */
    std::vector<CacheHierarchy::Snapshot> hierarchyAtTimedStart;

    std::uint64_t
    cacheBytes() const override
    {
        return PostL2Ops::cacheBytes() +
               (opGapEnd.size() + opPeriodEnd.size() +
                gapInstructions.size()) *
                   sizeof(std::uint64_t);
    }
};

/** One pod: cores + hierarchy + memory system + DRAM models. */
class PodSystem
{
  public:
    /**
     * @param stacked may be nullptr for the no-cache baseline.
     */
    PodSystem(const PodConfig &config, TraceSource &trace,
              MemorySystem &memory, DramSystem *stacked,
              DramSystem &offchip);

    /**
     * Run @p warmup_refs trace records to warm the hierarchy and
     * the DRAM cache (per PodConfig::warmupMode), then measure
     * over @p measure_refs records with the full timing loop.
     */
    RunMetrics run(std::uint64_t warmup_refs,
                   std::uint64_t measure_refs);

    /**
     * Sampled execution of a measurement span (PodConfig::sampling
     * must be enabled; the caller has already warmed the pod and
     * built @p span_art for the same trace, warm window and
     * schedule — computeSampleSchedule(config.sampling,
     * span_refs) must equal span_art.schedule). Each period's gap
     * is warmed by replaying the artifact's op stream into the
     * memory system and restoring its hierarchy snapshot while
     * the trace cursor fast-forwards; then a timed ramp re-trains
     * the DRAM/MLP state (excluded from aggregation) and a short
     * timed interval is measured. Only the measured intervals
     * reach `metrics`/`samples`. With targetCi set, the run stops
     * once the per-interval IPC CI is tight enough (after
     * minIntervals), leaving the trace cursor mid-span. The
     * schedule depends only on record counts, never on timing.
     */
    SampledRun runSampled(std::uint64_t span_refs,
                          const SampleSpanArtifact &span_art);

    /**
     * Records per dispatch burst of the lightweight warmup loop
     * (power of two). Shared with buildWarmupArtifact, whose
     * dispatch must be bit-compatible.
     */
    static constexpr unsigned kDispatchBurst = 1024;

    /**
     * One hierarchy-only pass over records [0, warm_records) of
     * @p trace: the design-independent half of a functional
     * warmup. The returned artifact warms any same-config pod via
     * applyWarmup(). Throws PointCancelledError once @p deadline
     * has passed (checked every 4096 records).
     */
    static std::shared_ptr<const WarmupArtifact>
    buildWarmupArtifact(const MaterializedTrace &trace,
                        const CacheHierarchy::Config &hier_cfg,
                        std::uint64_t warm_records,
                        Deadline deadline = kNoDeadline);

    /**
     * One hierarchy-only pass over records [warm_records,
     * warm_records + sched.spanRecords()) of @p trace, starting
     * from @p warm_art's hierarchy snapshot: the
     * design-independent half of a sampled span. The returned
     * artifact keeps any same-config pod stream-accurate across
     * the schedule's gaps (see SampleSpanArtifact). Honors
     * @p deadline like buildWarmupArtifact.
     */
    static std::shared_ptr<const SampleSpanArtifact>
    buildSampleSpanArtifact(const MaterializedTrace &trace,
                            const CacheHierarchy::Config &hier_cfg,
                            const WarmupArtifact &warm_art,
                            std::uint64_t warm_records,
                            const SampleSchedule &sched,
                            Deadline deadline = kNoDeadline);

    /**
     * Warm this pod from @p artifact instead of running the trace:
     * restore the hierarchy snapshot and replay the op stream into
     * the memory system (DRAM in SimMode::Functional, like the
     * loop it replaces), leaving state bit-identical to a full
     * warmup over the same records. Only valid for the default
     * functional warmup configuration; the caller advances the
     * trace source past the warm window itself.
     */
    void applyWarmup(const WarmupArtifact &artifact);

    const CacheHierarchy &hierarchy() const { return hierarchy_; }

    /** Records consumed so far (all phases, all run() calls). */
    std::uint64_t totalRecords() const { return total_records_; }

    /**
     * Interval samples accumulated by measured windows (empty
     * unless TelemetryConfig::intervalRecords is set). Deltas sum
     * bit-exactly, field by field, to the RunMetrics aggregates
     * of the run() calls that produced them.
     */
    const std::vector<IntervalSample> &
    intervals() const
    {
        return intervals_;
    }

    /** Hot-path probe (null unless histograms are enabled). */
    const TelemetryProbe *probe() const { return probe_.get(); }

    /** Introspection layer (null unless introspection is on). */
    const CacheIntrospection *
    introspection() const
    {
        return intro_.get();
    }

    /**
     * Probe column names: the fixed introspection scalars, then
     * (with designProbes) one "group.counter" entry per counter
     * the design's stat groups expose, in visit order. Filled at
     * the first run()'s measurement boundary; empty when
     * introspection is off.
     */
    const std::vector<std::string> &
    probeNames() const
    {
        return probe_names_;
    }

  private:
    /**
     * Running totals of every counter at cycle @p now, in the
     * shape of a window's metrics: the delta of two captures is
     * the window between them (RunMetrics::since).
     */
    RunMetrics capture(Cycle now) const;

    /** Arm introspection at the measurement boundary (idempotent):
     * attach to the memory system and build probe_names_. */
    void armIntrospection();

    /** Current probe values in probeNames() order. */
    std::vector<std::uint64_t> captureProbeValues() const;

    /**
     * Lightweight warmup loop: round-robin dispatch, no event
     * queue, no load-miss blocking. Drains the DRAM channels and
     * restores SimMode::Timed on them before returning.
     */
    void runWarmup(std::uint64_t warmup_refs);

    /**
     * Replay ops [@p begin, @p end) of @p ops into the memory
     * system with the DRAM in SimMode::Functional (the mode of the
     * loop the replay stands in for), leaving it in
     * SimMode::Timed. The one replay loop behind applyWarmup and
     * runSampled's gaps.
     */
    void replayOps(const PostL2Ops &ops, std::size_t begin,
                   std::size_t end);

    /** Put the stacked and off-chip DRAM in @p mode. */
    void setDramMode(SimMode mode);

    /**
     * Per-core engine state threaded across the timed stretches
     * of one sampled span: each core's next-ready cycle and its
     * outstanding load-miss window. Without it every stretch
     * would restart with all cores ready and no misses in
     * flight, so cores would never feel the latency of work
     * issued near a stretch's end — decoupling IPC from memory
     * latency and letting the DRAM backlog grow without bound.
     */
    struct MeasureCarry
    {
        std::vector<Cycle> readyAt;
        std::vector<Cycle> window;
        std::vector<unsigned> depth;
        bool primed = false;
    };

    /**
     * Full OoO/MLP timing loop; returns the final cycle.
     * @p measured marks a real measurement window: only then do
     * the telemetry interval stream and histograms accumulate
     * (the all-timed legacy warmup reuses this loop and must not
     * pollute them). @p start_now rebases the clock: sampled
     * runs continue each period's timed stretch from the
     * previous one's end cycle so the DRAM channels' detailed
     * state (queue backlog, bank busy windows) carries across
     * the zero-simulated-time gaps instead of restarting cold.
     * @p carry, when non-null, persists the per-core engine
     * state between calls the same way (primed on first return).
     */
    Cycle runMeasure(std::uint64_t measure_refs, bool measured,
                     Cycle start_now = 0,
                     MeasureCarry *carry = nullptr);

    /**
     * Close the current interval at @p now: append the deltas
     * since @p prev to intervals_ (or, while record_epochs_ is up,
     * to epochs_) and advance prev.
     */
    void recordInterval(RunMetrics &prev, Cycle now);

    PodConfig config_;
    TraceSource &trace_;
    MemorySystem &memory_;
    DramSystem *stacked_;
    DramSystem &offchip_;
    CacheHierarchy hierarchy_;

    std::uint64_t total_instructions_ = 0;
    std::uint64_t total_records_ = 0;
    /** Summed demand-access latency (timing loop only). */
    std::uint64_t total_mem_latency_ = 0;

    /**
     * Running per-tenant totals (numTenants entries; empty when
     * tenant attribution is off). offchipBytes is owned by the
     * off-chip DramSystem and merged in at capture().
     */
    std::vector<TenantMetrics> tenant_totals_;

    /** Interval stream across measured windows (telemetry). */
    std::vector<IntervalSample> intervals_;

    /**
     * Sampled-mode side channel: while this flag is up,
     * recordInterval appends each epoch's full delta, energy
     * included, to epochs_ instead of the interval stream, so
     * runSampled can aggregate the measured epochs only.
     */
    bool record_epochs_ = false;
    std::vector<RunMetrics> epochs_;

    /** Allocated only when telemetry histograms are on. */
    std::unique_ptr<TelemetryProbe> probe_;

    /**
     * Allocated only when TelemetryConfig::introspectionOn() and
     * sampling is off (sampled runs skip introspection entirely).
     * Attached to the memory system at the measurement boundary
     * so every counter covers exactly the measured window.
     */
    std::unique_ptr<CacheIntrospection> intro_;
    /** Probe column names (see probeNames()). */
    std::vector<std::string> probe_names_;
    /** armIntrospection() latch. */
    bool intro_armed_ = false;
};

} // namespace fpc

#endif // FPC_SIM_POD_SYSTEM_HH
