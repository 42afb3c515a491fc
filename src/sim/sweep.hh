/**
 * @file
 * Parallel sweep subsystem.
 *
 * The paper's evaluation is a grid — organization × capacity ×
 * workload (× page size × FHT size) — and every figure/table is a
 * slice of it. A SweepSpec describes such a slice as axis lists and
 * expands it into independent ExperimentPoints (an ExperimentDef's
 * build() then fills in their run-wide fields); a SweepRunner
 * shards points across a thread pool and collects the results into
 * pre-sized per-point slots (no locks on the result path).
 *
 * Determinism: a point's workload seed is derived from its *trace
 * key* — workload name, page size and the user's base seed — never
 * from thread schedule, shard index or registry position. Two
 * consequences, both load-bearing:
 *
 *  - `--jobs 1` and `--jobs N` produce bit-identical per-point
 *    metrics (tests/test_sweep.cc);
 *  - points that differ only in cache organization or capacity
 *    replay the *same* trace, preserving the paired-comparison
 *    variance reduction the original per-figure benches had by
 *    passing one global seed everywhere.
 */

#ifndef FPC_SIM_SWEEP_HH
#define FPC_SIM_SWEEP_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/trace_cache.hh"
#include "sim/experiment.hh"
#include "sim/point_queue.hh"
#include "telemetry/heatmap.hh"
#include "workload/spec.hh"

namespace fpc {

class MaterializedTrace;
class SpanTracer;

/**
 * Trace/warmup-artifact cache configuration of one sweep run.
 *
 * Each unique trace identity is generated once into a
 * MaterializedTrace and replayed by every point sharing it, and
 * each (trace, hierarchy, warm window) functional-warmup image is
 * built once and applied to every design point sharing it. The
 * byte budget bounds resident arena+artifact memory (default
 * sized for CI runners). Entries in use are never evicted, so a
 * too-small budget degrades to regeneration, never to wrong
 * results; at 0 an entry goes as soon as no point holds it.
 */
struct TraceCacheConfig
{
    /** Resident byte budget (default 1024 MB). */
    std::uint64_t budgetBytes = std::uint64_t{1024} << 20;
};

/**
 * Fault-tolerance knobs of one SweepRunner::runResilient() call.
 * The defaults run every point once: no retries, no journal, no
 * deadline.
 */
struct ResilienceOptions
{
    /** Extra attempts after a transient failure (TransientError
     * or std::bad_alloc). Permanent errors never retry. */
    unsigned retries = 0;

    /** Backoff before attempt k: backoffMs << (k - 2) ms. */
    unsigned backoffMs = 250;

    /**
     * Per-point deadline in seconds (0 = none). Each attempt
     * carries the time it must end by in PodConfig::deadline;
     * the simulation loops compare the clock against it at batch
     * boundaries, the point fails with a deadline error, and the
     * pool drains normally.
     */
    double pointDeadlineS = 0.0;

    /** Checkpoint journal directory (empty = no journal). The
     * explicit {} keeps designated initializers that omit it,
     * like SweepOptions::resilience, free of
     * -Wmissing-field-initializers. */
    std::string journalDir{};

    /** Serve journaled keys from the journal instead of
     * re-running them (requires journalDir). */
    bool resume = false;

    /**
     * Execution-span collector (non-owning; null = no tracing).
     * The runner stamps per-attempt point spans and
     * retry/failure/deadline/journal instants into it and hands
     * it to each point for phase-level spans.
     */
    SpanTracer *tracer = nullptr;
};

/**
 * Options shared by every sweep entry point (CLI and library).
 *
 * parseCommonFlag() writes each common flag into one field.
 * Settings that belong to a subsystem live in that subsystem's
 * own struct — `cache` (TraceCacheConfig), `resilience`
 * (ResilienceOptions), `telemetry` (TelemetryConfig) and
 * `sampling` (SamplingConfig) — which the runner and the points
 * use as is. The remaining fields belong to no subsystem: scale,
 * seed, workload filter, jobs, --time/--time-out, the fault plan
 * and the artifact paths. applySweepOptions() carries the
 * telemetry and sampling settings onto each point.
 */
struct SweepOptions
{
    /**
     * Run-window scale. 1.0 reproduces the paper's shapes most
     * faithfully (full FHT training at 512MB); the default is
     * sized so the whole suite finishes in tens of minutes on two
     * cores. --quick selects 0.1 (a quarter of the default).
     */
    double scale = 0.4;

    /** Base workload seed; mixed into every point's trace seed. */
    std::uint64_t seed = 42;

    /** Restrict to one workload by name (empty = all six). */
    std::string workloadFilter;

    /** Worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;

    /** Trace/warmup sharing across points: --trace-cache-mb N
     * sets `budgetBytes` to N MB. */
    TraceCacheConfig cache;

    /** Per-point wall-clock breakdown reporting (--time). */
    bool time = false;

    /**
     * Write the --time breakdown to this file as JSON instead of
     * embedding it in the merged report (--time-out; implies
     * --time). Keeping the merged JSON timing-free preserves its
     * byte-identity across cache budgets and job counts.
     */
    std::string timeOut;

    /** Retry, deadline and journal settings: --retries,
     * --backoff-ms, --point-deadline-s, --journal and --resume.
     * The CLI retries a transient failure twice by default. */
    ResilienceOptions resilience{.retries = 2};

    /** Fault-injection plan (--fault-plan; empty = off). */
    std::string faultPlan;

    /**
     * Telemetry every point records: --interval-records sets
     * `intervalRecords` (0 = off unless --timeseries-out supplies
     * a default via effectiveIntervalRecords()), --histograms
     * `histograms`, --miss-attribution K `missAttributionStride`
     * and --design-probes `designProbes`. Histograms and miss
     * attribution add extras to each point in the merged report
     * — the telemetry flags that intentionally change report
     * bytes; sampled points are exempt from introspection.
     */
    TelemetryConfig telemetry;

    /**
     * Write the per-point interval time series to this file
     * (--timeseries-out). A standalone artifact: the merged
     * report never references it.
     */
    std::string timeseriesOut;

    /**
     * Write a Chrome trace-event (Perfetto-loadable) span
     * timeline of the sweep's execution to this file
     * (--trace-out). Standalone, wall-clock, nondeterministic by
     * nature — never part of the merged report.
     */
    std::string traceOut;

    /**
     * Write per-set / per-bank spatial heatmaps to this file
     * (--heatmap-out; arms TelemetryConfig::heatmaps on every
     * point). A standalone artifact like --timeseries-out: the
     * merged report never references it.
     */
    std::string heatmapOut;

    /**
     * Sampled execution: --sample-mode sets `enabled`; the
     * tuning flags --sample-intervals, --sample-interval-records
     * (each 0 = the default) and --sample-target-ci set
     * their field and imply the mode. Off by default — the exact
     * report stays byte-identical. Points that pin their own
     * sampling configuration (ExperimentPoint::pinSampling) are
     * exempt.
     */
    SamplingConfig sampling;

    /** True when the workload filter selects @p wk. */
    bool selects(WorkloadKind wk) const;

    /** Workloads selected by the filter (default: all six). */
    std::vector<WorkloadKind> workloads() const;

    /** Effective worker count (resolves 0 to the hardware). */
    unsigned effectiveJobs() const;

    /** The trace-cache configuration (`cache`). */
    const TraceCacheConfig &traceCacheConfig() const { return cache; }

    /**
     * The interval length interval streaming should use: the
     * explicit --interval-records value, or, when only
     * --timeseries-out was given, a default that splits the
     * measured window into ~32 epochs.
     */
    std::uint64_t effectiveIntervalRecords() const;
};

/** Resolve a --jobs value: 0 means hardware concurrency. */
unsigned resolveJobs(unsigned jobs);

/**
 * Parse the common sweep flag at argv[i] (--quick, --scale,
 * --seed, --workload, --jobs, ...), advancing i past any value.
 * Returns false when argv[i] is not a common flag.
 * @throws std::invalid_argument naming the flag when its value
 *         is not wholly a number of the option's type and range
 *         (--scale finite and > 0; integers fit their field;
 *         --trace-cache-mb small enough to convert to bytes;
 *         --point-deadline-s and --sample-target-ci >= 0).
 */
bool parseCommonFlag(SweepOptions &opts, int argc, char **argv,
                     int &i);

/** The usage fragment for the common flags. */
extern const char *kCommonFlagsUsage;

/**
 * Validate a parsed --workload filter: a non-empty filter that
 * selects no workload is a typo, not an empty sweep. Prints the
 * valid names to stderr and returns false in that case.
 */
bool checkWorkloadFilter(const SweepOptions &opts);

/**
 * Write @p content to @p path, creating missing parent
 * directories first; prints to stderr and returns false on
 * failure.
 */
bool writeTextFile(const std::string &path,
                   const std::string &content);

/**
 * Workload RNG seed of one trace identity: a hash of the
 * identity's name (workload, page size) mixed with the user's
 * base seed — the same seed every point sharing the identity
 * derives, regardless of organization, capacity, registry order
 * or thread schedule. Exposed so tenant mixes reuse the *solo*
 * identity of each co-scheduled workload (one arena serves solo
 * and paired points alike).
 */
std::uint64_t traceIdentitySeed(WorkloadKind workload,
                                unsigned page_bytes,
                                std::uint64_t base_seed);

/** The printable identity ("workload/pageBytes/baseSeed"):
 * points (and tenants) with equal keys replay equal streams.
 * Note the base seed is part of the identity — rerunning with
 * --base-seed N regenerates every trace. */
std::string traceIdentityKey(WorkloadKind workload,
                             unsigned page_bytes,
                             std::uint64_t base_seed);

/** TraceCache key of one trace identity's arena
 * ("trace/" + traceIdentityKey()). */
std::string traceArenaKey(WorkloadKind workload, unsigned page_bytes,
                          std::uint64_t base_seed);

/**
 * The shared arena of one trace identity, holding at least
 * @p records records: acquired from @p cache under
 * traceArenaKey(), and generated there (the "trace-build" fault
 * hook, makeWorkload, materializeTrace) when absent. Every trace
 * a sweep point replays comes from here. @p generated, when
 * given, is set if this call built the arena.
 */
std::shared_ptr<const MaterializedTrace>
acquireTraceArena(TraceCache &cache, WorkloadKind workload,
                  unsigned page_bytes, std::uint64_t base_seed,
                  std::uint64_t records,
                  Deadline deadline = kNoDeadline,
                  bool *generated = nullptr);

/** Paper capacities (MB), the default capacity axis. */
extern const std::vector<std::uint64_t> kPaperCapacities;

/**
 * Warmup must cover cache fill plus FHT training: the only
 * training events are evictions, so the window scales with
 * capacity (DESIGN.md).
 */
std::uint64_t warmupRecords(std::uint64_t capacity_mb,
                            double scale);

/** Measurement window. */
std::uint64_t measureRecords(double scale);

/**
 * Wall-clock breakdown of one point (--time): where the seconds
 * went and which phases were served from the TraceCache.
 */
struct PointTiming
{
    /** Trace acquisition: generation, or arena/artifact waits. */
    double traceSeconds = 0.0;

    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;

    /** Trace records came from a shared MaterializedTrace. */
    bool replayedTrace = false;

    /** This point built the shared arena (cache miss). */
    bool generatedTrace = false;

    /** Warmup replayed a shared WarmupArtifact. */
    bool replayedWarmup = false;

    /** This point built the shared warmup artifact. */
    bool builtWarmup = false;

    /** The measurement ran sampled (measureSeconds then splits
     * into the fast-forward and timed-interval shares below). */
    bool sampled = false;

    /** Sampled mode: trace fast-forward + functional re-warm. */
    double sampleFfSeconds = 0.0;

    /** Sampled mode: timed ramp + measured intervals. */
    double sampleTimedSeconds = 0.0;

    /**
     * Key of the equal point whose result this one copied (empty
     * when the point ran its own simulation). A reused point
     * reports zero phase seconds; its cost is the named point's.
     */
    std::string reusedFrom;

    double
    totalSeconds() const
    {
        return traceSeconds + warmupSeconds + measureSeconds;
    }
};

/** Result of one experiment point. */
struct PointResult
{
    RunMetrics metrics;

    /** Wall-clock attribution (never part of the merged JSON
     * unless --time asks for it). */
    PointTiming timing;

    /* Snapshot of footprint-cache detail (valid when present). */
    bool hasFootprint = false;
    std::uint64_t covered = 0;
    std::uint64_t underpred = 0;
    std::uint64_t overpred = 0;
    std::uint64_t trigMisses = 0;
    std::uint64_t singletonBypasses = 0;
    std::vector<std::uint64_t> densityBuckets;
    std::uint64_t densityPages = 0;

    /**
     * Named scalars from custom run functions (e.g. fig12's ideal
     * cache sizes); emitted verbatim into the JSON report.
     */
    std::vector<std::pair<std::string, double>> extra;

    /**
     * Telemetry interval stream of the measured window (empty
     * unless PodConfig::telemetry.intervalRecords was set).
     * Emitted only into the --timeseries-out artifact, never the
     * merged report; journaled so resumed sweeps reproduce the
     * artifact without re-running.
     */
    std::vector<IntervalSample> intervals;

    /**
     * Names of the introspection probe columns, positionally
     * aligned with metrics.probeValues and every interval's
     * probeValues (empty unless introspection armed). Journaled
     * alongside the values so resumed sweeps reproduce the
     * --timeseries-out artifact byte-identically.
     */
    std::vector<std::string> probeNames;

    /**
     * Spatial heatmap counters of the measured window (valid only
     * when --heatmap-out armed them). Emitted only into the
     * --heatmap-out artifact, never the merged report.
     */
    HeatmapData heatmap;

    /**
     * Attempts this point consumed (1 = first try succeeded).
     * Emitted into the JSON only when > 1 or on failure, so a
     * clean run's report stays byte-identical to older output.
     */
    unsigned attempts = 1;

    /** Wall-clock seconds across all attempts (emitted only in
     * failure records). */
    double elapsedSeconds = 0.0;

    /**
     * Terminal failure: the point failed after all retries (or
     * past its deadline). Metrics are invalid; the JSON carries
     * a structured failure record {key, error, attempts,
     * elapsed_s} instead, and the sweep CLI exits nonzero while
     * preserving every completed result.
     */
    bool failed = false;

    /** Failure reason (failed only). */
    std::string error;
};

/**
 * One independent unit of sweep work: a fully-specified
 * experiment configuration plus the windows to run it over.
 */
struct ExperimentPoint
{
    /** Registry name of the owning experiment ("fig06", ...);
     * ExperimentDef::build() sets it. */
    std::string experiment;

    /**
     * Axis label, unique within the experiment
     * ("WebSearch/footprint/256MB/2048B"). ExperimentDef::build()
     * sets standardLabel() of the final config when the builder
     * left it empty; irregular points set it directly.
     */
    std::string label;

    WorkloadKind workload = WorkloadKind::WebSearch;
    Experiment::Config cfg;

    /** Run-window scale; ExperimentDef::build() copies the
     * sweep's. */
    double scale = 0.4;

    /** User base seed (mixed into traceSeed());
     * ExperimentDef::build() copies the sweep's. */
    std::uint64_t baseSeed = 42;

    /**
     * Custom run function; when set it replaces the standard
     * warmup+measure loop (fig12's access-counting pod run) and
     * the runner never copies its result to an equal point
     * (sameSimulation()).
     */
    std::function<PointResult(const ExperimentPoint &)> custom;

    /**
     * Shared artifact cache, set (non-owning) by the SweepRunner
     * on its working copy of the point. runPoint() replays the
     * point's trace and warmup artifact from here, or from
     * pointCache()'s own cache when null.
     */
    TraceCache *traceCache = nullptr;

    /**
     * Additional trace identities a custom run function will
     * acquire beyond the point's own traceKey() — e.g. the other
     * tenants of a colocation mix — as (cache key, records)
     * pairs. The SweepRunner plans them so shared arenas are
     * sized and released correctly.
     */
    std::vector<std::pair<std::string, std::uint64_t>>
        extraTraceNeeds;

    /**
     * Records a custom run function reads from the point's own
     * arena; 0 = standardRecords(). The SweepRunner plans the
     * arena at this window, so a point that reads less than the
     * standard run path (fig12) does not make a sweep without
     * other users of its identity generate records nobody reads.
     */
    std::uint64_t arenaRecords = 0;

    /**
     * This point never acquires a shared WarmupArtifact: a
     * colocation mix warms in-band (no artifact is keyed by a
     * mix), and fig12's access-counting run has no warmup at
     * all. Stops the runner from planning a warmup
     * use that would never be drained — an undrained plan pins
     * the shared artifact in the cache budget for the whole
     * sweep.
     */
    bool inBandWarmup = false;

    /**
     * Execution-span collector, set (non-owning) by the
     * SweepRunner on its working copy alongside traceCache. Run
     * paths emit trace/warmup/measure phase spans into it; null
     * means no tracing.
     */
    SpanTracer *tracer = nullptr;

    /**
     * The experiment pinned cfg.pod.sampling and the sweep-wide
     * --sample-mode must leave it alone — how the
     * sampling_validation experiment keeps its exact/sampled
     * twins paired regardless of CLI flags.
     */
    bool pinSampling = false;

    /** Globally unique key: "<experiment>/<label>". */
    std::string key() const;

    /**
     * Workload RNG seed: a hash of the trace-relevant identity
     * (workload name, page size, base seed). Independent of
     * organization, capacity, registry order and thread schedule.
     */
    std::uint64_t traceSeed() const;

    /**
     * The exact trace identity ("workload/pageBytes/baseSeed"):
     * points with equal keys replay equal streams.
     */
    std::string traceKey() const;

    /**
     * Warmup window of the standard run path (capacity-scaled;
     * cacheless designs get the smallest window).
     */
    std::uint64_t warmupWindow() const;

    /**
     * Trace records the standard run path consumes in total
     * (warmup + measurement) — what the arena must hold.
     */
    std::uint64_t standardRecords() const;
};

/**
 * Canonical label for a grid point: workload/design/capacity/page
 * size, plus suffixes for every non-default knob so labels stay
 * unique across ablation variants.
 */
std::string standardLabel(WorkloadKind wk,
                          const Experiment::Config &cfg);

/**
 * The cache a run function draws from: the point's TraceCache,
 * or, for a caller outside a SweepRunner (no cache set), @p own
 * emplaced at the default budget, which lives as long as the
 * caller keeps @p own.
 */
TraceCache &pointCache(const ExperimentPoint &point,
                       std::optional<TraceCache> &own);

/**
 * Wall clock of one point's phases, one lap per phase: lap()
 * returns the seconds since the previous lap (or construction)
 * and, when the point carries a tracer, records a "phase" span
 * "<phase>:<point key>" over the same stretch. runPoint,
 * runColocationPoint and the custom runs time their phases
 * through it.
 */
class PhaseTimer
{
  public:
    explicit PhaseTimer(const ExperimentPoint &point);

    double lap(const std::string &phase);

  private:
    SpanTracer *tracer_;
    std::string key_;
    std::uint64_t span_start_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Run one point: trace arena and warmup artifact from
 * pointCache(), experiment, capacity-scaled warmup, measured
 * window, footprint detail snapshot.
 */
PointResult runPoint(const ExperimentPoint &point);

/**
 * True when @p a and @p b must produce equal results: neither has
 * a custom run function, and their workload, scale, base seed and
 * full config (Experiment::Config's defaulted ==) are equal.
 * Experiment, label and the runner-set fields do not count.
 */
bool sameSimulation(const ExperimentPoint &a,
                    const ExperimentPoint &b);

/**
 * Apply a sweep's telemetry and sampling settings to one of its
 * points. The interval length is effectiveIntervalRecords() and
 * histograms follow the sweep; the introspection settings only
 * widen what the point pinned (the larger miss-attribution
 * stride, design probes OR-ed, heatmaps on with --heatmap-out).
 * Sampling replaces the point's configuration unless the point
 * pins its own (pinSampling) or has tenants (the span artifact
 * carries no per-tenant attribution).
 */
void applySweepOptions(ExperimentPoint &point,
                       const SweepOptions &opts);

/**
 * A rectangular slice of the evaluation grid. expand() emits the
 * full cross product in a fixed nested order (workload outermost,
 * then capacity, design, page size, FHT size) so reporters can
 * index results positionally. Its points carry only workload and
 * config: an ExperimentDef's build() fills in experiment, scale,
 * seed and label.
 */
struct SweepSpec
{
    std::vector<WorkloadKind> workloads;
    std::vector<std::string> designs = {"footprint"};
    std::vector<std::uint64_t> capacitiesMb = {256};
    std::vector<unsigned> pageBytes = {2048};
    std::vector<std::uint32_t> fhtEntries = {16 * 1024};

    /** Base config copied into every point before axis overrides. */
    Experiment::Config base;

    std::vector<ExperimentPoint> expand() const;
};

/** What a resilient sweep produced (results[i] ~ points[i]). */
struct SweepOutcome
{
    std::vector<PointResult> results;

    /** Points handled by this process (not journal-served),
     * reused ones included. */
    std::size_t executed = 0;

    /** Executed points whose result was copied from an equal
     * point's simulation (PointTiming::reusedFrom set). */
    std::size_t reused = 0;

    /** Points served from the --resume journal. */
    std::size_t journaled = 0;

    /** Terminal failures (results[i].failed). */
    std::size_t failed = 0;

    /** Trace-cache counters of this run. */
    TraceCacheStats cache;

    /** How the work queue ordered this run's picks. */
    SchedulerStats scheduler;
};

/**
 * Shards a batch of points across a std::thread pool. Results go
 * into a pre-sized vector indexed by point position — workers
 * never share a slot. Work goes out through a PointQueue that
 * knows the cache keys (trace arena, other tenants' arenas,
 * warmup and sample-span artifacts) each point shares: a free
 * worker takes the first pending point that would not block on a
 * build another worker has in flight, and only when every pending
 * point would, the first one. With one worker the order is the
 * batch order; with N, at most N first builds are in flight, so
 * at most N − 1 more identities are resident than in batch order.
 *
 * runResilient() is the one entry point, with the fault-tolerance
 * layer built in: per-point checkpoint journaling with resume,
 * bounded retry with exponential backoff for transient failures,
 * a per-attempt deadline the simulation loops check themselves,
 * and graceful degradation — a failed point becomes a structured
 * failure record instead of poisoning the batch. The worker pool
 * is the only concurrency: no other thread runs, and nothing
 * survives from one call to the next.
 *
 * Each distinct simulation runs once: pending points that are
 * sameSimulation() form a group, whose first point in batch order
 * (the representative) runs and whose other points copy its
 * result. The pool runs every representative first, then the
 * copies. A copy still goes through its own attempt loop (the
 * "point" fault hook, retries, journal, "point-done" hook), so
 * fault plans act per key as before; when the representative
 * failed, its duplicates run their own simulations.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs worker threads (0 = hardware concurrency).
     * @param cache budget of the trace/warmup cache every
     *        point draws from (results are identical at any
     *        budget).
     */
    explicit SweepRunner(unsigned jobs = 0,
                         TraceCacheConfig cache = {});

    /**
     * Run all points under @p res. Never throws for point
     * failures: failed points come back as structured failure
     * records (PointResult::failed) while every completed
     * result is preserved (and journaled, when enabled).
     * @throws std::runtime_error for batch-level misuse only
     * (duplicate keys, unusable journal directory).
     */
    SweepOutcome
    runResilient(const std::vector<ExperimentPoint> &points,
                 const ResilienceOptions &res) const;

    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
    TraceCacheConfig cacheCfg_;
};

/** One experiment's expanded points and collected results. */
struct ExperimentRun
{
    std::string name;
    std::string title;
    std::vector<ExperimentPoint> points;
    std::vector<PointResult> results;
};

/**
 * Render the merged sweep report (BENCH_*-shaped JSON: top-level
 * "bench"/"scale"/"seed" keys, one entry per experiment under
 * "experiments", one object per point with config + metrics).
 */
std::string renderSweepJson(const SweepOptions &options,
                            const std::vector<ExperimentRun> &runs);

/**
 * True when @p json contains an entry for experiment @p name —
 * the completeness check CI's sweep-smoke job relies on.
 */
bool sweepJsonHasExperiment(const std::string &json,
                            const std::string &name);

/**
 * Human-readable per-point wall-clock breakdown (--time): one
 * line per point (trace / warmup / measure seconds and which
 * phases replayed shared artifacts) plus the cache and scheduler
 * summaries.
 */
std::string
renderTimingReport(const std::vector<ExperimentRun> &runs,
                   const TraceCacheStats &cache,
                   const SchedulerStats &scheduler);

/** The same breakdown as standalone JSON (--time-out FILE). */
std::string
renderTimingJson(const SweepOptions &options,
                 const std::vector<ExperimentRun> &runs,
                 const TraceCacheStats &cache,
                 const SchedulerStats &scheduler);

} // namespace fpc

#endif // FPC_SIM_SWEEP_HH
