/** @file Parallel sweep subsystem (see sweep.hh). */

#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/wall_clock.hh"
#include "mem/materialized_trace.hh"
#include "sim/journal.hh"
#include "telemetry/trace_events.hh"
#include "workload/generator.hh"

namespace fpc {

const std::vector<std::uint64_t> kPaperCapacities = {64, 128, 256,
                                                     512};

bool
SweepOptions::selects(WorkloadKind wk) const
{
    return workloadFilter.empty() || workloadFilter == workloadName(wk);
}

std::vector<WorkloadKind>
SweepOptions::workloads() const
{
    std::vector<WorkloadKind> out;
    for (WorkloadKind wk : kAllWorkloads) {
        if (selects(wk))
            out.push_back(wk);
    }
    return out;
}

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs)
        return jobs;
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
SweepOptions::effectiveJobs() const
{
    return resolveJobs(jobs);
}

std::uint64_t
SweepOptions::effectiveIntervalRecords() const
{
    if (telemetry.intervalRecords)
        return telemetry.intervalRecords;
    if (timeseriesOut.empty())
        return 0;
    // --timeseries-out without an explicit epoch length: ~32
    // epochs over the measured window.
    return std::max<std::uint64_t>(1, measureRecords(scale) / 32);
}

bool
parseCommonFlag(SweepOptions &opts, int argc, char **argv, int &i)
{
    const char *flag = argv[i];
    const auto is = [flag](const char *name) {
        return !std::strcmp(flag, name);
    };
    const auto withValue = [&](const char *name) {
        return i + 1 < argc && is(name);
    };
    const auto text = [&]() -> const char * { return argv[++i]; };
    // Numeric values must be whole tokens in range; anything else
    // is an error naming the flag.
    const auto reject = [flag](const char *value,
                               const std::string &expected) {
        throw std::invalid_argument(std::string("invalid value '") +
                                    value + "' for " + flag +
                                    ": expected " + expected);
    };
    const auto integer = [&](std::uint64_t max) {
        // strtoull skips blanks and accepts a sign (wrapping "-1"
        // to 2^64 - 1); a count starts with a digit.
        const char *value = text();
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(value, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
            *end != '\0' || errno == ERANGE || v > max)
            reject(value, "an integer in [0, " +
                              std::to_string(max) + "]");
        return v;
    };
    // An integer that must fit the option it lands in.
    const auto count = [&](auto &out) {
        using T = std::remove_reference_t<decltype(out)>;
        out = static_cast<T>(
            integer(std::numeric_limits<T>::max()));
    };
    // The same, except that 0 selects the field's default.
    const auto countOr = [&](auto &out, auto fallback) {
        count(out);
        if (!out)
            out = fallback;
    };
    // A finite number, > 0 when @p positive and >= 0 otherwise.
    const auto real = [&](bool positive) {
        const char *value = text();
        char *end = nullptr;
        const double v = std::strtod(value, &end);
        if (std::isspace(static_cast<unsigned char>(value[0])) ||
            end == value || *end != '\0' || !std::isfinite(v) ||
            (positive ? !(v > 0) : v < 0))
            reject(value, positive ? "a finite number > 0"
                                   : "a finite number >= 0");
        return v;
    };

    if (is("--quick")) {
        // A quarter of the 0.4 default, not 0.25 absolute.
        opts.scale = 0.1;
    } else if (withValue("--scale")) {
        opts.scale = real(true);
    } else if (withValue("--seed") || withValue("--base-seed")) {
        // --base-seed is the explicit alias: it names what the
        // value is (the base of every trace-identity seed), so
        // interference runs can be replicated under different
        // seeds without recompiling. Trace identities include
        // the seed — changing it regenerates every trace.
        count(opts.seed);
    } else if (withValue("--workload")) {
        opts.workloadFilter = text();
    } else if (withValue("--jobs")) {
        count(opts.jobs);
    } else if (withValue("--trace-cache-mb")) {
        // Bounded so the MB-to-bytes shift cannot overflow.
        opts.cache.budgetBytes =
            integer(std::numeric_limits<std::uint64_t>::max() >> 20)
            << 20;
    } else if (is("--time")) {
        opts.time = true;
    } else if (withValue("--time-out")) {
        opts.time = true;
        opts.timeOut = text();
    } else if (withValue("--journal")) {
        opts.resilience.journalDir = text();
    } else if (is("--resume")) {
        opts.resilience.resume = true;
    } else if (withValue("--retries")) {
        count(opts.resilience.retries);
    } else if (withValue("--backoff-ms")) {
        count(opts.resilience.backoffMs);
    } else if (withValue("--point-deadline-s")) {
        opts.resilience.pointDeadlineS = real(false);
    } else if (withValue("--fault-plan")) {
        opts.faultPlan = text();
    } else if (withValue("--interval-records")) {
        count(opts.telemetry.intervalRecords);
    } else if (is("--histograms")) {
        opts.telemetry.histograms = true;
    } else if (withValue("--timeseries-out")) {
        opts.timeseriesOut = text();
    } else if (withValue("--miss-attribution")) {
        count(opts.telemetry.missAttributionStride);
    } else if (is("--design-probes")) {
        opts.telemetry.designProbes = true;
    } else if (withValue("--heatmap-out")) {
        opts.heatmapOut = text();
    } else if (withValue("--trace-out")) {
        opts.traceOut = text();
    } else if (is("--sample-mode")) {
        opts.sampling.enabled = true;
    } else if (withValue("--sample-intervals")) {
        // The tuning flags imply the mode, like --time-out
        // implies --time.
        opts.sampling.enabled = true;
        countOr(opts.sampling.intervals, SamplingConfig{}.intervals);
    } else if (withValue("--sample-interval-records")) {
        opts.sampling.enabled = true;
        countOr(opts.sampling.intervalRecords,
                SamplingConfig{}.intervalRecords);
    } else if (withValue("--sample-target-ci")) {
        opts.sampling.enabled = true;
        opts.sampling.targetCi = real(false);
    } else {
        return false;
    }
    return true;
}

const char *kCommonFlagsUsage =
    "[--quick] [--scale F] [--seed N | --base-seed N] "
    "[--workload NAME] "
    "[--jobs N] [--trace-cache-mb N] "
    "[--time] [--time-out FILE] "
    "[--journal DIR] [--resume] [--retries N] [--backoff-ms N] "
    "[--point-deadline-s F] [--fault-plan PLAN] "
    "[--interval-records N] [--histograms] "
    "[--timeseries-out FILE] [--trace-out FILE] "
    "[--miss-attribution K] [--design-probes] "
    "[--heatmap-out FILE] "
    "[--sample-mode] [--sample-intervals N] "
    "[--sample-interval-records N] [--sample-target-ci F]";

bool
checkWorkloadFilter(const SweepOptions &opts)
{
    if (opts.workloadFilter.empty() || !opts.workloads().empty())
        return true;
    std::fprintf(stderr, "unknown workload '%s'; valid names:",
                 opts.workloadFilter.c_str());
    for (WorkloadKind wk : kAllWorkloads)
        std::fprintf(stderr, " %s", workloadName(wk));
    std::fprintf(stderr, "\n");
    return false;
}

bool
writeTextFile(const std::string &path, const std::string &content)
{
    try {
        faultPoint("report-write", path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     e.what());
        return false;
    }
    // Create missing parent directories: `--out runs/x/y.json`
    // must not burn a whole sweep and then fail at write time.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         parent.c_str(),
                         ec.message().c_str());
            return false;
        }
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(content.data(), 1, content.size(), f) ==
        content.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::fprintf(stderr, "short write to %s\n", path.c_str());
        return false;
    }
    return true;
}

std::uint64_t
warmupRecords(std::uint64_t capacity_mb, double scale)
{
    const double base = 4.0e6 + 60.0e3 * capacity_mb;
    return static_cast<std::uint64_t>(base * scale);
}

std::uint64_t
measureRecords(double scale)
{
    return static_cast<std::uint64_t>(8.0e6 * scale);
}

std::string
ExperimentPoint::key() const
{
    return experiment + "/" + label;
}

std::uint64_t
traceIdentitySeed(WorkloadKind workload, unsigned page_bytes,
                  std::uint64_t base_seed)
{
    std::string id = workloadName(workload);
    id += "/";
    id += std::to_string(page_bytes);
    return fnv1a(id) ^ mix64(base_seed);
}

std::string
traceIdentityKey(WorkloadKind workload, unsigned page_bytes,
                 std::uint64_t base_seed)
{
    std::string key = workloadName(workload);
    key += "/";
    key += std::to_string(page_bytes);
    key += "/";
    key += std::to_string(base_seed);
    return key;
}

std::string
traceArenaKey(WorkloadKind workload, unsigned page_bytes,
              std::uint64_t base_seed)
{
    return "trace/" + traceIdentityKey(workload, page_bytes, base_seed);
}

std::shared_ptr<const MaterializedTrace>
acquireTraceArena(TraceCache &cache, WorkloadKind workload,
                  unsigned page_bytes, std::uint64_t base_seed,
                  std::uint64_t records, Deadline deadline,
                  bool *generated)
{
    auto arena = std::static_pointer_cast<const MaterializedTrace>(
        cache.acquire(
            traceArenaKey(workload, page_bytes, base_seed), records,
            [&](std::uint64_t units) {
                faultPoint("trace-build",
                           traceIdentityKey(workload, page_bytes,
                                            base_seed));
                if (generated)
                    *generated = true;
                auto built = std::make_shared<MaterializedTrace>();
                materializeTrace(
                    makeWorkload(workload, page_bytes,
                                 traceIdentitySeed(workload, page_bytes,
                                                   base_seed)),
                    units, *built, deadline);
                return built;
            },
            deadline));
    FPC_ASSERT(arena->size() >= records);
    return arena;
}

std::uint64_t
ExperimentPoint::traceSeed() const
{
    // Trace identity only: points differing in organization,
    // capacity or any predictor knob replay the same trace.
    return traceIdentitySeed(workload, cfg.pageBytes, baseSeed);
}

std::string
ExperimentPoint::traceKey() const
{
    return traceIdentityKey(workload, cfg.pageBytes, baseSeed);
}

std::uint64_t
ExperimentPoint::warmupWindow() const
{
    // Cacheless designs have no capacity-scaled structures to
    // warm; give them the smallest window.
    const DesignDef *def =
        DesignRegistry::instance().find(cfg.design);
    const bool cacheless = def && !def->usesStackedDram;
    return cacheless ? warmupRecords(64, scale)
                     : warmupRecords(cfg.capacityMb, scale);
}

std::uint64_t
ExperimentPoint::standardRecords() const
{
    return warmupWindow() + measureRecords(scale);
}

std::string
standardLabel(WorkloadKind wk, const Experiment::Config &cfg)
{
    const Experiment::Config defaults;
    std::string label = workloadName(wk);
    label += "/";
    label += cfg.design;
    label += "/" + std::to_string(cfg.capacityMb) + "MB";
    label += "/" + std::to_string(cfg.pageBytes) + "B";
    if (cfg.fhtEntries != defaults.fhtEntries)
        label += "/fht" + std::to_string(cfg.fhtEntries);
    if (!cfg.singletonOptimization)
        label += "/nosingleton";
    if (cfg.predictorIndex != defaults.predictorIndex)
        label += cfg.predictorIndex == PredictorIndex::PcOnly
                     ? "/idx=pc"
                     : "/idx=offset";
    if (cfg.fhtTrain != defaults.fhtTrain)
        label += "/train=union";
    if (cfg.footprintFetch != defaults.footprintFetch)
        label += cfg.footprintFetch == FetchPolicy::FullPage
                     ? "/fetch=page"
                     : "/fetch=demand";
    if (cfg.stackedChannels)
        label +=
            "/ch" + std::to_string(cfg.stackedChannels);
    if (cfg.stackedLowLatency)
        label += "/lowlat";
    // Per-design params keep labels unique across variants.
    for (const auto &[key, value] : cfg.params.entries())
        label += "/" + key + "=" + value;
    return label;
}

std::string
warmupArtifactKey(const std::string &identity, std::uint64_t warm,
                  const PodConfig &pod)
{
    // Everything the pass's evolution depends on besides the
    // stream: core count and the hierarchy geometry, so points
    // with non-standard pods get their own artifacts instead of
    // wrong sharing.
    const CacheHierarchy::Config &h = pod.hierarchy;
    char hier[160];
    std::snprintf(
        hier, sizeof(hier),
        "%u/%" PRIu64 ".%u.%u.%u.%" PRIu64 "/%" PRIu64
        ".%u.%u.%u.%" PRIu64,
        pod.numCores, h.l1.sizeBytes, h.l1.assoc, h.l1.blockBytes,
        static_cast<unsigned>(h.l1.repl), h.l1.seed,
        h.l2.sizeBytes, h.l2.assoc, h.l2.blockBytes,
        static_cast<unsigned>(h.l2.repl), h.l2.seed);
    return "warmup/" + identity + "/" + std::to_string(warm) + "/" +
           hier;
}

namespace {

/**
 * Span artifacts extend their warm window's key with the
 * schedule's cut points (intervals/period/gap) plus the ramp
 * split, so any two points acquiring the same key agree on the
 * full SampleSchedule (runSampled asserts as much).
 */
std::string
sampleArtifactKey(const ExperimentPoint &point,
                  std::uint64_t warm, const SampleSchedule &sched)
{
    return "sample/" +
           warmupArtifactKey(point.traceKey(), warm, point.cfg.pod) +
           "/" + std::to_string(sched.intervals) + "." +
           std::to_string(sched.period) + "." +
           std::to_string(sched.gap) + "." +
           std::to_string(sched.ramp);
}

/**
 * Per-metric mean + 95% CI extras of a sampled run. The means
 * average the per-interval values (the estimator the CI belongs
 * to); the headline metrics fields stay ratio-of-sums over the
 * measured intervals.
 */
void
appendSampledExtras(
    const SampledRun &sr,
    std::vector<std::pair<std::string, double>> &extra)
{
    extra.emplace_back("sampled_intervals",
                       static_cast<double>(sr.intervalsRun));
    std::vector<double> vals;
    for (const SampledRatio &ratio : kSampledRatios) {
        vals.clear();
        for (const IntervalSample &s : sr.samples)
            vals.push_back(ratio.of(s));
        const SampleStats st = computeSampleStats(vals);
        const std::string name = ratio.name;
        extra.emplace_back(name + "_mean", st.mean);
        extra.emplace_back(name + "_ci95", st.ci95);
    }
}

/** Aggregate probe delta by column name (false when absent). */
bool
probeValue(const PointResult &r, const char *name,
           std::uint64_t &out)
{
    for (std::size_t i = 0; i < r.probeNames.size(); ++i) {
        if (r.probeNames[i] == name &&
            i < r.metrics.probeValues.size()) {
            out = r.metrics.probeValues[i];
            return true;
        }
    }
    return false;
}

/**
 * Miss-attribution fractions and fill accuracy/overfetch extras
 * of one introspected point. Accuracy is the share of fetched
 * data the core actually demanded, per design: footprint/page
 * from the residency-accounted covered/overpredicted split; alloy
 * from its MAP-I predictor counters (overfetch = wasted off-chip
 * reads per demand access); banshee from the introspection
 * fetched/touched tallies (whole-page fills; writeback-installed
 * blocks can push touched past fetched, hence the clamp); designs
 * that fetch only what was demanded report 1.0 / 0.0.
 */
void
appendIntrospectionExtras(const ExperimentPoint &point,
                          const CacheIntrospection &intro,
                          PointResult &r)
{
    if (intro.config().missAttributionStride > 0) {
        const double misses = static_cast<double>(
            std::max<std::uint64_t>(1, intro.sampledMisses()));
        r.extra.emplace_back(
            "attr_sampled_demand",
            static_cast<double>(intro.sampledDemand()));
        r.extra.emplace_back(
            "attr_sampled_misses",
            static_cast<double>(intro.sampledMisses()));
        r.extra.emplace_back("attr_compulsory",
                             intro.compulsoryMisses() / misses);
        r.extra.emplace_back("attr_capacity",
                             intro.capacityMisses() / misses);
        r.extra.emplace_back("attr_conflict",
                             intro.conflictMisses() / misses);
    }

    double accuracy = 1.0, overfetch = 0.0;
    std::uint64_t correct = 0, wrong = 0, wasted = 0;
    if (r.hasFootprint) {
        const double fetched =
            static_cast<double>(r.covered + r.overpred);
        if (fetched > 0) {
            accuracy = r.covered / fetched;
            overfetch = r.overpred / fetched;
        }
    } else if (point.cfg.design == "alloy" &&
               probeValue(r, "alloy.map_correct", correct) &&
               probeValue(r, "alloy.map_mispredicts", wrong)) {
        if (correct + wrong > 0)
            accuracy = static_cast<double>(correct) /
                       static_cast<double>(correct + wrong);
        probeValue(r, "alloy.wasted_offchip_reads", wasted);
        if (r.metrics.demandAccesses > 0)
            overfetch = static_cast<double>(wasted) /
                        static_cast<double>(
                            r.metrics.demandAccesses);
    } else if (intro.fetchedBlocks() > 0) {
        const double fetched =
            static_cast<double>(intro.fetchedBlocks());
        const double touched = std::min(
            fetched,
            static_cast<double>(intro.touchedBlocks()));
        accuracy = touched / fetched;
        overfetch = 1.0 - accuracy;
    }
    r.extra.emplace_back("introspect_accuracy", accuracy);
    r.extra.emplace_back("introspect_overfetch", overfetch);
}

/** One DRAM system's channel x bank grid (no-op when its bank
 * counters were never enabled). */
void
harvestDramGrid(const DramSystem &sys, HeatmapData &hm)
{
    if (!sys.bankCountersEnabled())
        return;
    HeatmapData::DramGrid g;
    g.name = sys.config().name;
    g.channels = sys.numChannels();
    g.banks = sys.numBanks();
    const std::size_t cells =
        std::size_t{g.channels} * g.banks;
    g.activates.reserve(cells);
    g.reads.reserve(cells);
    g.writes.reserve(cells);
    for (unsigned ch = 0; ch < g.channels; ++ch) {
        const DramChannel &c = sys.channel(ch);
        for (unsigned b = 0; b < g.banks; ++b) {
            g.activates.push_back(c.bankActivates(b));
            g.reads.push_back(c.bankBlocksRead(b));
            g.writes.push_back(c.bankBlocksWritten(b));
        }
    }
    hm.drams.push_back(std::move(g));
}

} // namespace

TraceCache &
pointCache(const ExperimentPoint &point,
           std::optional<TraceCache> &own)
{
    if (point.traceCache)
        return *point.traceCache;
    return own.emplace(TraceCacheConfig{}.budgetBytes);
}

std::shared_ptr<const WarmupArtifact>
warmFromArtifact(
    const ExperimentPoint &point, const std::string &identity,
    std::uint64_t warm, TraceCache &cache, PodSystem &pod,
    PointTiming &timing,
    const std::function<std::shared_ptr<const WarmupArtifact>()>
        &build)
{
    bool built = false;
    const auto artifact =
        std::static_pointer_cast<const WarmupArtifact>(cache.acquire(
            warmupArtifactKey(identity, warm, point.cfg.pod), warm,
            [&](std::uint64_t) -> TraceCache::EntryPtr {
                faultPoint("warmup-build", identity);
                built = true;
                return build();
            },
            point.cfg.pod.deadline));
    timing.replayedWarmup = true;
    timing.builtWarmup = built;
    faultPoint("warmup-restore", point.key());
    pod.applyWarmup(*artifact);
    return artifact;
}

PhaseTimer::PhaseTimer(const ExperimentPoint &point)
    : tracer_(point.tracer),
      key_(tracer_ ? point.key() : std::string()),
      span_start_(tracer_ ? tracer_->nowUs() : 0),
      start_(std::chrono::steady_clock::now())
{
}

double
PhaseTimer::lap(const std::string &phase)
{
    const double seconds = secondsSince(start_);
    if (tracer_) {
        const std::uint64_t now = tracer_->nowUs();
        tracer_->span("phase", phase + ":" + key_, span_start_, now);
        span_start_ = now;
    }
    start_ = std::chrono::steady_clock::now();
    return seconds;
}

PointResult
runPoint(const ExperimentPoint &point)
{
    faultPoint("point", point.key());

    if (point.custom)
        return point.custom(point);

    PointResult out;
    const std::uint64_t warm = point.warmupWindow();
    const std::uint64_t measure = measureRecords(point.scale);
    const Deadline deadline = point.cfg.pod.deadline;

    // Trace acquisition: replay the identity's shared arena.
    std::optional<TraceCache> own_cache;
    TraceCache &cache = pointCache(point, own_cache);
    PhaseTimer phase(point);
    const std::shared_ptr<const MaterializedTrace> arena =
        acquireTraceArena(cache, point.workload, point.cfg.pageBytes,
                          point.baseSeed, warm + measure, deadline,
                          &out.timing.generatedTrace);
    out.timing.replayedTrace = true;
    ReplayTraceSource trace(arena);
    out.timing.traceSeconds = phase.lap("trace");

    // Design construction sits between the trace and warmup
    // timers; only the --trace-out span shows it.
    Experiment exp(point.cfg, trace);
    phase.lap("construct");

    // Warmup: design-independent given the trace, so points share
    // one WarmupArtifact (hierarchy snapshot + post-L2 op stream)
    // per warm window.
    const auto warm_artifact = warmFromArtifact(
        point, point.traceKey(), warm, cache, exp.pod(), out.timing,
        [&] {
            return PodSystem::buildWarmupArtifact(
                *arena, point.cfg.pod.hierarchy, warm, deadline);
        });
    trace.seekTo(warm);
    out.timing.warmupSeconds = phase.lap("warmup-restore");

    if (point.cfg.pod.sampling.enabled) {
        // Sampled measurement: per period, warm the gap from the
        // design-independent span artifact (op replay + snapshot
        // restore) and time only a short ramp + interval, over
        // the same span the exact run would time end to end. The
        // aggregate covers the measured intervals only; the
        // mean/CI extras carry the statistics.
        const SampleSchedule sched = computeSampleSchedule(
            point.cfg.pod.sampling, measure);
        const auto span_art =
            std::static_pointer_cast<const SampleSpanArtifact>(
                cache.acquire(
                    sampleArtifactKey(point, warm, sched),
                    sched.spanRecords(),
                    [&](std::uint64_t) -> TraceCache::EntryPtr {
                        faultPoint("span-build", point.traceKey());
                        return PodSystem::buildSampleSpanArtifact(
                            *arena, point.cfg.pod.hierarchy,
                            *warm_artifact, warm, sched, deadline);
                    },
                    deadline));
        const SampledRun sr =
            exp.pod().runSampled(measure, *span_art);
        out.metrics = sr.metrics;
        out.timing.sampled = true;
        out.timing.sampleFfSeconds = sr.ffSeconds;
        out.timing.sampleTimedSeconds = sr.timedSeconds;
        appendSampledExtras(sr, out.extra);
    } else {
        out.metrics = exp.run(0, measure);
    }
    out.timing.measureSeconds = phase.lap("measure");

    // Telemetry harvest: the interval stream rides the result
    // into the --timeseries-out artifact (and the journal); the
    // probe's percentile summary becomes report extras.
    out.intervals = exp.pod().intervals();
    if (const TelemetryProbe *probe = exp.pod().probe())
        appendProbeExtras(*probe, out.extra);

    if (FootprintCache *fc = exp.footprintCache()) {
        fc->finalizeResidency();
        out.hasFootprint = true;
        out.covered = fc->coveredBlocks();
        out.underpred = fc->underpredictedBlocks();
        out.overpred = fc->overpredictedBlocks();
        out.trigMisses = fc->triggeringMisses();
        out.singletonBypasses = fc->singletonBypasses();
        const Histogram &h = fc->densityHistogram();
        out.densityPages = h.totalSamples();
        for (unsigned b = 0; b < h.numBuckets(); ++b)
            out.densityBuckets.push_back(h.bucket(b));
    }

    // Introspection harvest: probe column names ride the result
    // into the --timeseries-out artifact (and the journal), the
    // attribution / fill-accuracy summaries become report extras,
    // and the spatial counters become the --heatmap-out artifact.
    // Null whenever introspection is off or the point ran sampled.
    if (const CacheIntrospection *intro =
            exp.pod().introspection()) {
        out.probeNames = exp.pod().probeNames();
        appendIntrospectionExtras(point, *intro, out);
        if (intro->config().heatmaps) {
            out.heatmap.valid = true;
            out.heatmap.numSets = intro->numSets();
            out.heatmap.setsPerBin =
                intro->setSpaceConfigured() ? intro->setsPerBin()
                                            : 0;
            out.heatmap.setAccess = intro->setAccess();
            out.heatmap.setConflict = intro->setConflict();
            out.heatmap.setOccupancy = intro->setOccupancy();
            if (const DramSystem *stk = exp.stacked())
                harvestDramGrid(*stk, out.heatmap);
            harvestDramGrid(exp.offchip(), out.heatmap);
        }
    }
    return out;
}

bool
sameSimulation(const ExperimentPoint &a, const ExperimentPoint &b)
{
    return !a.custom && !b.custom && a.workload == b.workload &&
           a.scale == b.scale && a.baseSeed == b.baseSeed &&
           a.cfg == b.cfg;
}

void
applySweepOptions(ExperimentPoint &point, const SweepOptions &opts)
{
    TelemetryConfig &t = point.cfg.pod.telemetry;
    t.intervalRecords = opts.effectiveIntervalRecords();
    t.histograms = opts.telemetry.histograms;
    // The introspection experiment pins its own per-point values;
    // the sweep's settings only ever widen them.
    t.missAttributionStride = std::max(
        t.missAttributionStride, opts.telemetry.missAttributionStride);
    t.designProbes |= opts.telemetry.designProbes;
    t.heatmaps |= opts.telemetry.heatmaps || !opts.heatmapOut.empty();

    if (opts.sampling.enabled && !point.pinSampling &&
        point.cfg.pod.numTenants == 0)
        point.cfg.pod.sampling = opts.sampling;
}

std::vector<ExperimentPoint>
SweepSpec::expand() const
{
    std::vector<ExperimentPoint> points;
    for (WorkloadKind wk : workloads) {
        for (std::uint64_t mb : capacitiesMb) {
            for (const std::string &d : designs) {
                for (unsigned pb : pageBytes) {
                    for (std::uint32_t fht : fhtEntries) {
                        ExperimentPoint p;
                        p.workload = wk;
                        p.cfg = base;
                        p.cfg.design = d;
                        p.cfg.capacityMb = mb;
                        p.cfg.pageBytes = pb;
                        p.cfg.fhtEntries = fht;
                        points.push_back(std::move(p));
                    }
                }
            }
        }
    }
    return points;
}

SweepRunner::SweepRunner(unsigned jobs, TraceCacheConfig cache)
    : jobs_(resolveJobs(jobs)), cacheCfg_(cache)
{
}

namespace {

/** Worker-side classification of a failed attempt. */
struct AttemptFailure
{
    std::string error;
    bool transient = false;

    /** The attempt outlived its deadline. */
    bool cancelled = false;
};

/**
 * Translate the in-flight exception of a failed attempt.
 * TransientError and allocation pressure are worth retrying;
 * deadline cancellations and everything else are terminal.
 */
AttemptFailure
classifyFailure()
{
    AttemptFailure f;
    try {
        throw;
    } catch (const PointCancelledError &e) {
        f.error = e.what();
        f.cancelled = true;
    } catch (const TransientError &e) {
        f.error = e.what();
        f.transient = true;
    } catch (const std::bad_alloc &) {
        f.error = "allocation failure (std::bad_alloc)";
        f.transient = true;
    } catch (const std::filesystem::filesystem_error &e) {
        f.error = e.what();
        f.transient = true;
    } catch (const std::exception &e) {
        f.error = e.what();
    } catch (...) {
        f.error = "unknown error (non-standard exception)";
    }
    return f;
}

/**
 * The deadline of an attempt that starts now and may run
 * @p seconds (<= 0, or beyond the clock's range, = none).
 */
Deadline
deadlineAfter(double seconds)
{
    const Deadline now = std::chrono::steady_clock::now();
    const std::chrono::duration<double> left = kNoDeadline - now;
    if (seconds <= 0 || seconds >= left.count())
        return kNoDeadline;
    return now + std::chrono::duration_cast<Deadline::duration>(
                     std::chrono::duration<double>(seconds));
}

} // namespace

SweepOutcome
SweepRunner::runResilient(
    const std::vector<ExperimentPoint> &points,
    const ResilienceOptions &res) const
{
    // Duplicate keys would make the merged report (and the
    // journal) ambiguous; catch them before burning any
    // simulation time.
    std::unordered_set<std::string> keys;
    for (const ExperimentPoint &p : points) {
        if (!keys.insert(p.key()).second)
            throw std::runtime_error("duplicate sweep point key: " +
                                     p.key());
    }

    SweepOutcome out;
    out.results.resize(points.size());

    // Journal: serve previously completed points (results and
    // terminal failures alike — a resumed sweep must reproduce
    // the interrupted run's report byte-identically without
    // re-executing anything already decided).
    std::optional<SweepJournal> journal;
    std::vector<char> fromJournal(points.size(), 0);
    if (!res.journalDir.empty()) {
        journal.emplace(res.journalDir);
        if (!journal->open())
            throw std::runtime_error(
                "cannot open journal directory " + res.journalDir);
        if (res.resume) {
            std::unordered_map<std::string, JournalEntry> loaded;
            journal->load(loaded);
            std::size_t stale = 0;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const auto it = loaded.find(points[i].key());
                if (it == loaded.end())
                    continue;
                const JournalEntry &e = it->second;
                // An entry produced under different options is
                // stale, not wrong: the point simply re-runs.
                if (e != JournalOptions::of(points[i])) {
                    ++stale;
                    continue;
                }
                out.results[i] = e.result;
                fromJournal[i] = 1;
                ++out.journaled;
            }
            if (stale)
                warn("journal: %zu point(s) were journaled under "
                     "different options and will re-run",
                     stale);
        }
    }

    // Resumed points still appear on the span timeline: a
    // zero-length "journal" span per served key keeps a resumed
    // sweep's trace complete without pretending work happened.
    if (res.tracer) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!fromJournal[i])
                continue;
            const std::uint64_t t = res.tracer->nowUs();
            res.tracer->span("journal",
                             "journal:" + points[i].key(), t, t);
        }
    }

    // Group the pending points that simulate the same thing. The
    // first of each group in batch order is its representative;
    // the rest are duplicates that copy its result. Buckets keyed
    // by trace identity and standard label keep the grouping
    // linear; within a bucket sameSimulation() decides.
    const std::size_t n = points.size();
    constexpr std::size_t kOwn = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> repOf(n, kOwn);
    std::vector<std::size_t> reps;
    std::vector<std::size_t> duplicates;
    std::unordered_map<std::string, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < n; ++i) {
        if (fromJournal[i])
            continue;
        const ExperimentPoint &p = points[i];
        if (!p.custom) {
            std::vector<std::size_t> &group =
                buckets[p.traceKey() + " " +
                        standardLabel(p.workload, p.cfg)];
            const auto same = std::find_if(
                group.begin(), group.end(), [&](std::size_t r) {
                    return sameSimulation(points[r], p);
                });
            if (same != group.end()) {
                repOf[i] = *same;
                duplicates.push_back(i);
                continue;
            }
            group.push_back(i);
        }
        reps.push_back(i);
    }

    // Plan the arena sizes up front: every representative
    // registers its demand so the first acquirer of an identity
    // generates a stream long enough for the largest window
    // sharing it. Journal-served points and duplicates never touch
    // the cache, so planning them would pin entries for acquires
    // that never come. The same keys tell the work queue which
    // builds each representative shares.
    TraceCache cache(cacheCfg_.budgetBytes);
    std::vector<std::vector<std::string>> repKeys;
    repKeys.reserve(reps.size());
    for (const std::size_t i : reps) {
        const ExperimentPoint &p = points[i];
        // Custom points (e.g. frontier's) usually route back
        // through runPoint; planning them like standard points
        // over-counts at worst, which only delays an entry's
        // eager release until the LRU budget acts.
        //
        // Acquires are counted per point, not per identity: a
        // point that acquires the same arena several times (a mix
        // colocating a workload with itself, or a custom runner
        // re-acquiring per sub-run) must plan all of them, or the
        // eager release after its first release would drop the
        // slot while the point still holds — and will re-acquire
        // — the entry. Each key is planned once, at its largest
        // window.
        std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
            needs; // key -> {max units, acquires}
        const auto need = [&needs](const std::string &key,
                                   std::uint64_t units) {
            auto &[max_units, acquires] = needs[key];
            max_units = std::max(max_units, units);
            ++acquires;
        };
        need(traceArenaKey(p.workload, p.cfg.pageBytes, p.baseSeed),
             p.arenaRecords ? p.arenaRecords : p.standardRecords());
        // Identities a custom run function acquires beyond its
        // own (a colocation mix's other tenants).
        for (const auto &[key, units] : p.extraTraceNeeds)
            need(key, units);
        if (!p.inBandWarmup) {
            const std::uint64_t warm = p.warmupWindow();
            need(warmupArtifactKey(p.traceKey(), warm, p.cfg.pod),
                 warm);
            if (p.cfg.pod.sampling.enabled) {
                const SampleSchedule sched = computeSampleSchedule(
                    p.cfg.pod.sampling, measureRecords(p.scale));
                need(sampleArtifactKey(p, warm, sched),
                     sched.spanRecords());
            }
        }
        std::vector<std::string> &keys = repKeys.emplace_back();
        for (const auto &[key, plan] : needs) {
            cache.plan(key, plan.first, plan.second);
            keys.push_back(key);
        }
    }
    if (res.tracer) {
        SpanTracer *tr = res.tracer;
        cache.setEventHook(
            [tr](const char *kind, const std::string &key) {
                tr->instant("cache", kind, {{"key", key}});
            });
    }

    // Every attempt at point i, until one succeeds or the point
    // fails for good. Workers share the cache, the journal and
    // the tracer, and each writes only its point's result slot;
    // an attempt carries its deadline on its own working copy of
    // the point.
    const auto runOne = [&](std::size_t i) {
        const std::size_t rep = repOf[i];
        // A duplicate copies its representative's result; a
        // failed representative leaves nothing to copy, so the
        // duplicate then runs its own simulation.
        const PointResult *copy =
            rep != kOwn && !out.results[rep].failed
                ? &out.results[rep]
                : nullptr;
        const std::string key = points[i].key();
        // One span per attempt; copies appear on the timeline as
        // zero-length "reused:" spans, like journal-served points.
        const auto spanAttempt =
            [&](std::uint64_t begin,
                const std::vector<std::pair<std::string,
                                            std::string>> &args) {
                const std::uint64_t end = res.tracer->nowUs();
                if (copy)
                    res.tracer->span("reused", "reused:" + key, end,
                                     end, args);
                else
                    res.tracer->span("point", key, begin, end, args);
            };
        const auto t0 = std::chrono::steady_clock::now();
        PointResult &r = out.results[i];
        for (unsigned attempt = 1;; ++attempt) {
            const std::uint64_t span_t0 =
                res.tracer ? res.tracer->nowUs() : 0;
            try {
                PointResult got;
                if (copy) {
                    faultPoint("point", key);
                    got = *copy;
                    got.timing = PointTiming{};
                    got.timing.reusedFrom = points[rep].key();
                } else {
                    ExperimentPoint p = points[i];
                    p.traceCache = &cache;
                    p.cfg.pod.deadline =
                        deadlineAfter(res.pointDeadlineS);
                    p.tracer = res.tracer;
                    got = runPoint(p);
                }
                got.attempts = attempt;
                got.elapsedSeconds = secondsSince(t0);
                r = std::move(got);
                if (res.tracer)
                    spanAttempt(span_t0,
                                {{"attempt", std::to_string(attempt)}});
                break;
            } catch (...) {
                const AttemptFailure f = classifyFailure();
                if (res.tracer) {
                    if (f.cancelled)
                        res.tracer->instant("runner",
                                            "deadline-cancel",
                                            {{"point", key}});
                    spanAttempt(span_t0,
                                {{"attempt", std::to_string(attempt)},
                                 {"error", f.error}});
                }
                if (f.transient && attempt <= res.retries) {
                    const unsigned delay_ms =
                        res.backoffMs << (attempt - 1);
                    if (res.tracer)
                        res.tracer->instant(
                            "runner", "retry",
                            {{"point", key},
                             {"attempt", std::to_string(attempt)},
                             {"error", f.error}});
                    std::fprintf(stderr,
                                 "sweep point %s: transient failure "
                                 "(attempt %u): %s; retrying in "
                                 "%u ms\n",
                                 key.c_str(), attempt,
                                 f.error.c_str(), delay_ms);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(delay_ms));
                    continue;
                }
                if (res.tracer)
                    res.tracer->instant(
                        "runner", "failed",
                        {{"point", key}, {"error", f.error}});
                r = PointResult{};
                r.failed = true;
                r.error = f.error;
                r.attempts = attempt;
                r.elapsedSeconds = secondsSince(t0);
                break;
            }
        }
        if (journal)
            journal->append(points[i], r);
        faultPoint("point-done", key);
    };

    // One pre-sized result slot per point; a build-aware queue
    // (PointQueue) hands each free worker the first pending point
    // that would not wait on another worker's build. Point seeds
    // never depend on which worker runs a point or when, so the
    // merged report is byte-identical across --jobs counts — and
    // across an interrupt/resume boundary.
    const auto runAll = [&](const std::vector<std::size_t> &items,
                            const std::vector<std::vector<std::string>>
                                &keys) {
        PointQueue queue(keys);
        const auto work = [&]() {
            while (const std::optional<PointQueue::Pick> pick =
                       queue.take()) {
                runOne(items[pick->item]);
                queue.finish(pick->item);
            }
        };
        const unsigned workers =
            std::min<std::size_t>(jobs_, items.size());
        if (workers <= 1) {
            work();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(workers);
            for (unsigned w = 0; w < workers; ++w)
                pool.emplace_back(work);
            for (std::thread &t : pool)
                t.join();
        }
        return queue.stats();
    };
    // Duplicates run after every representative has settled, so
    // each reads a final result and none waits on another: they
    // share no build, and go through the queue without keys.
    out.scheduler = runAll(reps, repKeys);
    runAll(duplicates,
           std::vector<std::vector<std::string>>(duplicates.size()));

    out.cache = cache.stats();
    out.executed = reps.size() + duplicates.size();
    for (const PointResult &r : out.results) {
        out.failed += r.failed;
        out.reused += !r.timing.reusedFrom.empty();
    }
    return out;
}

namespace {

// appendFmt / appendJsonEscaped live in common/json.hh now,
// shared with the telemetry renderers and StatGroup::dumpJson.

void
appendTiming(std::string &out, const PointTiming &t,
             const char *indent)
{
    appendFmt(out,
              "%s\"timing\": {\"trace_s\": %.4f, "
              "\"warmup_s\": %.4f, \"measure_s\": %.4f, "
              "\"replayed_trace\": %s, \"generated_trace\": %s, "
              "\"replayed_warmup\": %s, \"built_warmup\": %s",
              indent, t.traceSeconds, t.warmupSeconds,
              t.measureSeconds,
              t.replayedTrace ? "true" : "false",
              t.generatedTrace ? "true" : "false",
              t.replayedWarmup ? "true" : "false",
              t.builtWarmup ? "true" : "false");
    // Sampled points split measure_s into the fast-forward and
    // timed shares; exact points keep the legacy schema
    // byte-for-byte.
    if (t.sampled) {
        appendFmt(out,
                  ", \"sampled\": true, \"sample_ff_s\": %.4f, "
                  "\"sample_timed_s\": %.4f",
                  t.sampleFfSeconds, t.sampleTimedSeconds);
    }
    if (!t.reusedFrom.empty()) {
        out += ", \"reused_from\": \"";
        appendJsonEscaped(out, t.reusedFrom);
        out += "\"";
    }
    out += "}";
}

void
appendPoint(std::string &out, const ExperimentPoint &p,
            const PointResult &r, bool emit_timing)
{
    if (r.failed) {
        // Structured failure record: the point failed after all
        // retries, so there are no metrics — but the key, the
        // reason and the cost are worth every completed
        // neighbour's report space.
        out += "        {\"key\": \"";
        appendJsonEscaped(out, p.key());
        out += "\", \"workload\": \"";
        appendJsonEscaped(out, workloadName(p.workload));
        out += "\",\n         \"failed\": true, \"error\": \"";
        appendJsonEscaped(out, r.error);
        appendFmt(out,
                  "\",\n         \"attempts\": %u, "
                  "\"elapsed_s\": %.3f}",
                  r.attempts, r.elapsedSeconds);
        return;
    }
    const RunMetrics &m = r.metrics;
    out += "        {\"key\": \"";
    appendJsonEscaped(out, p.key());
    out += "\", \"workload\": \"";
    appendJsonEscaped(out, workloadName(p.workload));
    out += "\",\n";
    appendFmt(out,
              "         \"design\": \"%s\", \"capacity_mb\": "
              "%" PRIu64 ", \"page_bytes\": %u, "
              "\"seed\": %" PRIu64 ",\n",
              p.cfg.design.c_str(), p.cfg.capacityMb,
              p.cfg.pageBytes, p.traceSeed());
    // Counters in table order; the line breaks before
    // llc_misses and offchip_bytes keep the report's layout.
    appendFmt(out,
              "         \"metrics\": {\"ipc\": %.6f, "
              "\"miss_ratio\": %.6f",
              m.ipc(), m.missRatio());
    for (const auto &f : PodCounters::kCounters) {
        const bool wrap = f.member == &PodCounters::llcMisses ||
                          f.member == &PodCounters::offchipBytes;
        appendFmt(out, "%s\"%s\": %" PRIu64,
                  wrap ? ",\n                     " : ", ", f.name,
                  m.*f.member);
    }
    appendFmt(out,
              ",\n                     \"offchip_energy_nj\": %.3f, "
              "\"stacked_energy_nj\": %.3f}",
              m.offchipActPreNj + m.offchipBurstNj,
              m.stackedActPreNj + m.stackedBurstNj);
    if (!m.tenants.empty()) {
        // Per-tenant attribution (multi-tenant colocation): raw
        // counters plus the derived hit ratio and latency the
        // interference matrix plots. Every counter sums to the
        // aggregate metric above (tests/test_tenant.cc).
        out += ",\n         \"tenants\": [";
        for (std::size_t t = 0; t < m.tenants.size(); ++t) {
            const TenantMetrics &tm = m.tenants[t];
            out += t ? ",\n           " : "\n           ";
            // Counters in table order, each derived ratio
            // right after the counter it divides.
            appendFmt(out, "{\"tenant\": %zu", t);
            for (const auto &f : TenantMetrics::kCounters) {
                appendFmt(out, ", \"%s\": %" PRIu64, f.name,
                          tm.*f.member);
                if (f.member == &TenantMetrics::demandHits)
                    appendFmt(out,
                              ",\n            \"hit_ratio\": %.6f",
                              tm.hitRatio());
                if (f.member == &TenantMetrics::memLatencyCycles)
                    appendFmt(out,
                              ", \"avg_latency_cycles\": %.6f",
                              tm.avgAccessLatencyCycles());
            }
            out += "}";
        }
        out += "\n         ]";
    }
    if (r.hasFootprint) {
        appendFmt(out,
                  ",\n         \"footprint\": {\"covered\": "
                  "%" PRIu64 ", \"underpredicted\": %" PRIu64
                  ", \"overpredicted\": %" PRIu64
                  ", \"triggering_misses\": %" PRIu64
                  ", \"singleton_bypasses\": %" PRIu64
                  ", \"density_pages\": %" PRIu64 "}",
                  r.covered, r.underpred, r.overpred,
                  r.trigMisses, r.singletonBypasses,
                  r.densityPages);
    }
    if (!r.extra.empty()) {
        out += ",\n         \"extra\": {";
        bool first = true;
        for (const auto &[name, value] : r.extra) {
            if (!first)
                out += ", ";
            first = false;
            out += "\"";
            appendJsonEscaped(out, name);
            appendFmt(out, "\": %.6f", value);
        }
        out += "}";
    }
    // Only when retries actually happened: a clean run's report
    // stays byte-identical to pre-resilience output.
    if (r.attempts > 1)
        appendFmt(out, ",\n         \"attempts\": %u", r.attempts);
    if (emit_timing) {
        out += ",\n";
        appendTiming(out, r.timing, "         ");
    }
    out += "}";
}

} // namespace

std::string
renderSweepJson(const SweepOptions &options,
                const std::vector<ExperimentRun> &runs)
{
    std::string out;
    out += "{\n";
    out += "  \"bench\": \"sweep\",\n";
    appendFmt(out, "  \"scale\": %.4f,\n", options.scale);
    appendFmt(out, "  \"seed\": %" PRIu64 ",\n", options.seed);
    // Deliberately no "jobs" key: the report must be
    // byte-identical across shard counts (tests/test_sweep.cc).
    // Per-point timings go in only for --time without --time-out:
    // wall-clock is execution detail, and embedding it would break
    // the byte-identity across job counts and cache budgets.
    const bool emit_timing =
        options.time && options.timeOut.empty();
    out += "  \"experiments\": {\n";
    bool first_exp = true;
    for (const ExperimentRun &run : runs) {
        if (!first_exp)
            out += ",\n";
        first_exp = false;
        out += "    \"";
        appendJsonEscaped(out, run.name);
        out += "\": {\n      \"title\": \"";
        appendJsonEscaped(out, run.title);
        out += "\",\n      \"points\": [";
        for (std::size_t i = 0; i < run.points.size(); ++i) {
            out += i ? ",\n" : "\n";
            appendPoint(out, run.points[i], run.results[i],
                        emit_timing);
        }
        out += run.points.empty() ? "]\n    }" : "\n      ]\n    }";
    }
    out += "\n  }\n}\n";
    return out;
}

bool
sweepJsonHasExperiment(const std::string &json,
                       const std::string &name)
{
    return json.find("\"" + name + "\": {") != std::string::npos;
}

std::string
renderTimingReport(const std::vector<ExperimentRun> &runs,
                   const TraceCacheStats &cache,
                   const SchedulerStats &scheduler)
{
    std::string out;
    out += "\nper-point wall-clock breakdown "
           "(g = generated/built here, r = replayed shared "
           "artifact, = KEY: result copied from equal point KEY)\n";
    appendFmt(out, "  %-52s %8s %9s %9s %9s\n", "point", "trace",
              "warmup", "measure", "total");
    double trace_s = 0, warm_s = 0, meas_s = 0;
    double ff_s = 0, timed_s = 0;
    bool any_sampled = false;
    for (const ExperimentRun &run : runs) {
        for (std::size_t i = 0; i < run.results.size(); ++i) {
            const PointTiming &t = run.results[i].timing;
            const std::string key = run.points[i].key();
            char trace_tag =
                t.generatedTrace ? 'g'
                                 : (t.replayedTrace ? 'r' : ' ');
            char warm_tag =
                t.builtWarmup ? 'g'
                              : (t.replayedWarmup ? 'r' : ' ');
            appendFmt(out,
                      "  %-52s %7.2fs%c %7.2fs%c %8.2fs %8.2fs",
                      key.c_str(), t.traceSeconds, trace_tag,
                      t.warmupSeconds, warm_tag, t.measureSeconds,
                      t.totalSeconds());
            if (!t.reusedFrom.empty())
                appendFmt(out, "  = %s", t.reusedFrom.c_str());
            out += "\n";
            if (t.sampled) {
                // Sampled measurement: where measure went —
                // functional fast-forward vs timed intervals.
                appendFmt(out,
                          "  %-52s sampled: ff %.2fs + timed "
                          "%.2fs\n",
                          "", t.sampleFfSeconds,
                          t.sampleTimedSeconds);
                ff_s += t.sampleFfSeconds;
                timed_s += t.sampleTimedSeconds;
                any_sampled = true;
            }
            trace_s += t.traceSeconds;
            warm_s += t.warmupSeconds;
            meas_s += t.measureSeconds;
        }
    }
    appendFmt(out, "  %-52s %7.2fs  %7.2fs  %8.2fs %8.2fs\n",
              "TOTAL", trace_s, warm_s, meas_s,
              trace_s + warm_s + meas_s);
    if (any_sampled) {
        appendFmt(out,
                  "  sampled measure total: ff %.2fs + timed "
                  "%.2fs\n",
                  ff_s, timed_s);
    }
    appendFmt(out,
              "trace cache: %" PRIu64 " hit(s), %" PRIu64
              " miss(es), %" PRIu64 " regeneration(s), %" PRIu64
              " eviction(s), %" PRIu64 " released, %" PRIu64
              " wait(s), %" PRIu64
              " build failure(s), peak %.1f MB, %.2fs building\n",
              cache.hits, cache.misses, cache.regenerations,
              cache.evictions, cache.released, cache.waits,
              cache.buildFailures,
              static_cast<double>(cache.peakBytes) / (1 << 20),
              cache.buildSeconds);
    appendFmt(out,
              "scheduler: %" PRIu64 " deferred pick(s), %" PRIu64
              " fallback(s)\n",
              scheduler.deferred, scheduler.fallbacks);
    return out;
}

std::string
renderTimingJson(const SweepOptions &options,
                 const std::vector<ExperimentRun> &runs,
                 const TraceCacheStats &cache,
                 const SchedulerStats &scheduler)
{
    std::string out;
    out += "{\n";
    out += "  \"bench\": \"sweep_timing\",\n";
    appendFmt(out, "  \"scale\": %.4f,\n", options.scale);
    appendFmt(out, "  \"seed\": %" PRIu64 ",\n", options.seed);
    appendFmt(out, "  \"jobs\": %u,\n", options.effectiveJobs());
    appendFmt(out,
              "  \"cache\": {\"hits\": %" PRIu64
              ", \"misses\": %" PRIu64
              ", \"regenerations\": %" PRIu64
              ", \"evictions\": %" PRIu64
              ", \"released\": %" PRIu64 ", \"waits\": %" PRIu64
              ", \"build_failures\": %" PRIu64
              ", \"peak_bytes\": %" PRIu64
              ", \"build_seconds\": %.4f},\n",
              cache.hits, cache.misses, cache.regenerations,
              cache.evictions, cache.released, cache.waits,
              cache.buildFailures, cache.peakBytes,
              cache.buildSeconds);
    appendFmt(out,
              "  \"scheduler\": {\"deferred\": %" PRIu64
              ", \"fallbacks\": %" PRIu64 "},\n",
              scheduler.deferred, scheduler.fallbacks);
    out += "  \"points\": [";
    bool first = true;
    for (const ExperimentRun &run : runs) {
        for (std::size_t i = 0; i < run.results.size(); ++i) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    {\"key\": \"";
            appendJsonEscaped(out, run.points[i].key());
            out += "\", ";
            appendTiming(out, run.results[i].timing, "");
            out += "}";
        }
    }
    out += first ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace fpc
