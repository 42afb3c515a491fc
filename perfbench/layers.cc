/**
 * @file
 * Layer harness of the benchmark: re-executes a sweep's points
 * through the same public layer calls runPoint() and
 * runColocationPoint() make, recording a span around each call, and
 * optionally times each layer alone over one recorded trace.
 *
 *   fpc_layers --filter colocation --scale 0.01 --jobs 1 \
 *       --report rep.json --spans spans.json --isolated iso.json
 *
 * --report writes the points' results through renderSweepJson, so
 * perfbench/run.py can check them field for field against the
 * untraced sweep's report. --spans writes every span (name, start,
 * end, parent span, point id, work units) once all points finished.
 * --isolated writes per-layer costs over the first point's trace:
 * a ReplayTraceSource drain, a tenant-mix drain, a hierarchy-only
 * pass, DRAM timing over the post-L2 stream, the dispatch loop over
 * a stub memory system and each design's warmup-op replay.
 *
 * Points run on --jobs workers, each taking the next point when its
 * last one finishes, and share traces and warmup artifacts through
 * one TraceCache planned the way SweepRunner plans it.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "experiments/experiments.hh"
#include "mem/materialized_trace.hh"
#include "sim/sampling.hh"
#include "tenant/colocation.hh"
#include "tenant/mix_source.hh"
#include "workload/generator.hh"

using namespace fpc;

namespace {

using Clock = std::chrono::steady_clock;

/** One timed call. Point spans have parent -1. */
struct Span
{
    int id = 0;
    int parent = -1;
    std::size_t point = 0;
    const char *name = "";
    std::string design;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Work the call did: records, ops or constructions. */
    std::uint64_t units = 0;
    /** Trace identity the call built (workload.generate only). */
    std::string identity;
};

/** Spans of one worker thread, kept in memory until exit. */
class SpanLog
{
  public:
    SpanLog(Clock::time_point epoch, std::atomic<int> &ids)
        : epoch_(epoch), ids_(ids)
    {
    }

    /** Open a span under the innermost open one. */
    int
    open(const char *name, std::size_t point,
         const std::string &design = "")
    {
        Span s;
        s.id = ids_.fetch_add(1, std::memory_order_relaxed);
        s.parent = stack_.empty() ? -1 : spans_[stack_.back()].id;
        s.point = point;
        s.name = name;
        s.design = design;
        s.startNs = nowNs();
        stack_.push_back(spans_.size());
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int handle)
    {
        spans_[static_cast<std::size_t>(handle)].endNs = nowNs();
        stack_.pop_back();
    }

    Span &at(int handle) { return spans_[static_cast<std::size_t>(handle)]; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::atomic<int> &ids_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Run @p fn inside a span; returns what @p fn returns. */
template <typename Fn>
auto
traced(SpanLog &log, const char *name, std::size_t point,
       const std::string &design, Fn &&fn)
{
    const int h = log.open(name, point, design);
    auto result = fn(h);
    log.close(h);
    return result;
}

/** Comma-separated substring match, as bench/sweep.cc applies it. */
bool
matchesFilter(const std::string &name, const std::string &filter)
{
    if (filter.empty())
        return true;
    std::size_t start = 0;
    while (start <= filter.size()) {
        std::size_t comma = filter.find(',', start);
        if (comma == std::string::npos)
            comma = filter.size();
        const std::string pat = filter.substr(start, comma - start);
        if (!pat.empty() && name.find(pat) != std::string::npos)
            return true;
        start = comma + 1;
    }
    return false;
}

/** Warmup windows SweepRunner replaces by a shared artifact. */
bool
artifactWarmup(const ExperimentPoint &p, std::uint64_t warm)
{
    return warm > 0 && p.cfg.pod.warmupMode == SimMode::Functional &&
           !p.cfg.pod.allTimedWarmup;
}

std::string
hierarchyKey(const PodConfig &pod)
{
    const CacheHierarchy::Config &h = pod.hierarchy;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%u/%" PRIu64 ".%u.%u.%u.%" PRIu64 "/%" PRIu64
                  ".%u.%u.%u.%" PRIu64,
                  pod.numCores, h.l1.sizeBytes, h.l1.assoc,
                  h.l1.blockBytes, static_cast<unsigned>(h.l1.repl),
                  h.l1.seed, h.l2.sizeBytes, h.l2.assoc,
                  h.l2.blockBytes, static_cast<unsigned>(h.l2.repl),
                  h.l2.seed);
    return buf;
}

std::string
warmKey(const ExperimentPoint &p, std::uint64_t warm)
{
    return "warmup/" + p.traceKey() + "/" + std::to_string(warm) +
           "/" + hierarchyKey(p.cfg.pod);
}

std::string
spanKey(const ExperimentPoint &p, std::uint64_t warm,
        const SampleSchedule &s)
{
    return "sample/" + p.traceKey() + "/" + std::to_string(warm) +
           "/" + hierarchyKey(p.cfg.pod) + "/" +
           std::to_string(s.intervals) + "." +
           std::to_string(s.period) + "." + std::to_string(s.gap) +
           "." + std::to_string(s.ramp);
}

/** Register every acquire the points will make (SweepRunner's
 * plan: per-point acquire counts, largest window per key). */
void
planCache(TraceCache &cache, const std::vector<ExperimentPoint> &pts)
{
    for (const ExperimentPoint &p : pts) {
        std::vector<std::pair<std::string, std::uint64_t>> needs;
        needs.emplace_back("trace/" + p.traceKey(),
                           p.standardRecords());
        for (const auto &n : p.extraTraceNeeds)
            needs.push_back(n);
        std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
            per_key;
        for (const auto &[key, units] : needs) {
            auto &[u, acquires] = per_key[key];
            u = std::max(u, units);
            ++acquires;
        }
        for (const auto &[key, ua] : per_key)
            cache.plan(key, ua.first, ua.second);
        const std::uint64_t warm = p.warmupWindow();
        if (!p.inBandWarmup && artifactWarmup(p, warm)) {
            cache.plan(warmKey(p, warm), warm);
            if (p.cfg.pod.sampling.enabled) {
                const SampleSchedule s = computeSampleSchedule(
                    p.cfg.pod.sampling, measureRecords(p.scale));
                cache.plan(spanKey(p, warm, s), s.spanRecords());
            }
        }
    }
}

/** Acquire (or build) one identity's arena inside mem.acquire. */
std::shared_ptr<const MaterializedTrace>
acquireArena(SpanLog &log, TraceCache &cache, std::size_t idx,
             const std::string &key, WorkloadKind wk,
             unsigned page_bytes, std::uint64_t seed,
             std::uint64_t records)
{
    return traced(log, "mem.acquire", idx, "", [&](int) {
        return std::static_pointer_cast<const MaterializedTrace>(
            cache.acquire(key, records, [&](std::uint64_t units) {
                const int g = log.open("workload.generate", idx);
                log.at(g).identity = key;
                log.at(g).units = units;
                auto built = std::make_shared<MaterializedTrace>();
                materializeTrace(makeWorkload(wk, page_bytes, seed),
                                 units, *built);
                log.close(g);
                return built;
            }));
    });
}

/** runPoint's standard path, one span per layer call. */
PointResult
runStandard(SpanLog &log, TraceCache &cache, std::size_t idx,
            const ExperimentPoint &point)
{
    PointResult out;
    const std::string &d = point.cfg.design;
    const std::uint64_t warm = point.warmupWindow();
    const std::uint64_t measure = measureRecords(point.scale);

    auto arena = acquireArena(log, cache, idx,
                              "trace/" + point.traceKey(),
                              point.workload, point.cfg.pageBytes,
                              point.traceSeed(), warm + measure);
    ReplayTraceSource replay(arena);

    auto exp = traced(log, "dramcache.construct", idx, d, [&](int h) {
        log.at(h).units = 1;
        return std::make_unique<Experiment>(point.cfg, replay);
    });

    std::shared_ptr<const WarmupArtifact> warm_art;
    if (artifactWarmup(point, warm)) {
        warm_art = traced(log, "cache.acquire", idx, "", [&](int) {
            return std::static_pointer_cast<const WarmupArtifact>(
                cache.acquire(
                    warmKey(point, warm), warm,
                    [&](std::uint64_t) -> TraceCache::EntryPtr {
                        const int b = log.open("cache.hierarchy", idx);
                        log.at(b).units = warm;
                        auto a = PodSystem::buildWarmupArtifact(
                            *arena, point.cfg.pod.hierarchy, warm);
                        log.close(b);
                        return a;
                    }));
        });
        traced(log, "dramcache.warm", idx, d, [&](int h) {
            exp->pod().applyWarmup(*warm_art);
            log.at(h).units = warm_art->paddr.size();
            return 0;
        });
        replay.seekTo(warm);
    } else if (warm > 0) {
        traced(log, "sim.inband_warmup", idx, d, [&](int h) {
            exp->run(warm, 0);
            log.at(h).units = warm;
            return 0;
        });
    }

    if (point.cfg.pod.sampling.enabled) {
        const SampleSchedule sched =
            computeSampleSchedule(point.cfg.pod.sampling, measure);
        FPC_ASSERT(warm_art != nullptr);
        auto span_art = traced(log, "sim.span.acquire", idx, "", [&](int) {
            return std::static_pointer_cast<const SampleSpanArtifact>(
                cache.acquire(
                    spanKey(point, warm, sched), sched.spanRecords(),
                    [&](std::uint64_t) -> TraceCache::EntryPtr {
                        const int b = log.open("sim.span_build", idx);
                        log.at(b).units = sched.spanRecords();
                        auto a = PodSystem::buildSampleSpanArtifact(
                            *arena, point.cfg.pod.hierarchy, *warm_art,
                            warm, sched);
                        log.close(b);
                        return a;
                    }));
        });
        out.metrics = traced(log, "sim.sampled_measure", idx, d,
                             [&](int h) {
                                 const SampledRun sr =
                                     exp->pod().runSampled(measure,
                                                           *span_art);
                                 log.at(h).units =
                                     sr.metrics.traceRecords;
                                 return sr.metrics;
                             });
    } else {
        out.metrics = traced(log, "sim.measure", idx, d, [&](int h) {
            RunMetrics m = exp->run(0, measure);
            log.at(h).units = m.traceRecords;
            return m;
        });
    }

    traced(log, "sim.harvest", idx, d, [&](int) {
        if (FootprintCache *fc = exp->footprintCache()) {
            fc->finalizeResidency();
            out.hasFootprint = true;
            out.covered = fc->coveredBlocks();
            out.underpred = fc->underpredictedBlocks();
            out.overpred = fc->overpredictedBlocks();
            out.trigMisses = fc->triggeringMisses();
            out.singletonBypasses = fc->singletonBypasses();
            out.densityPages = fc->densityHistogram().totalSamples();
        }
        return 0;
    });
    return out;
}

/** runColocationPoint, one span per layer call. */
PointResult
runColocation(SpanLog &log, TraceCache &cache, std::size_t idx,
              const ExperimentPoint &point)
{
    PointResult out;
    const std::string &d = point.cfg.design;
    const std::vector<TenantSpec> tenants = decodeTenantMix(point);
    const std::uint64_t warm = point.warmupWindow();
    const std::uint64_t measure = measureRecords(point.scale);

    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<unsigned> cores;
    for (const TenantSpec &spec : tenants) {
        auto arena = acquireArena(
            log, cache, idx,
            "trace/" + traceIdentityKey(spec.workload,
                                        point.cfg.pageBytes,
                                        point.baseSeed),
            spec.workload, point.cfg.pageBytes,
            traceIdentitySeed(spec.workload, point.cfg.pageBytes,
                              point.baseSeed),
            warm + measure);
        sources.push_back(std::make_unique<ReplayTraceSource>(arena));
        cores.push_back(spec.cores);
    }
    auto mix = traced(log, "tenant.mix_build", idx, d, [&](int h) {
        log.at(h).units = 1;
        return std::make_unique<TenantMixSource>(std::move(sources),
                                                 cores);
    });

    Experiment::Config cfg = point.cfg;
    cfg.pod.numTenants = static_cast<unsigned>(tenants.size());
    auto exp = traced(log, "dramcache.construct", idx, d, [&](int h) {
        log.at(h).units = 1;
        return std::make_unique<Experiment>(cfg, *mix);
    });
    if (warm > 0) {
        traced(log, "sim.inband_warmup", idx, d, [&](int h) {
            exp->run(warm, 0);
            log.at(h).units = warm;
            return 0;
        });
    }
    out.metrics = traced(log, "sim.measure", idx, d, [&](int h) {
        RunMetrics m = exp->run(0, measure);
        log.at(h).units = m.traceRecords;
        return m;
    });
    return out;
}

PointResult
runDecomposed(SpanLog &log, TraceCache &cache, std::size_t idx,
              const ExperimentPoint &point)
{
    const int h = log.open("point", idx, point.cfg.design);
    PointResult r;
    if (point.custom && point.inBandWarmup &&
        point.cfg.params.getU64("tenant.count", 0) > 0) {
        r = runColocation(log, cache, idx, point);
    } else if (!point.custom) {
        r = runStandard(log, cache, idx, point);
    } else {
        throw std::runtime_error("no layer decomposition for the run "
                                 "function of " + point.key());
    }
    log.close(h);
    return r;
}

// ------------------------------------------------------- isolated

/** Memory system that answers every access after a fixed delay, so
 * the pod's dispatch loop and hierarchy run without a DRAM cache. */
class StubMemory : public MemorySystem
{
  public:
    MemSystemResult
    access(Cycle now, const MemRequest &) override
    {
        ++accesses_;
        return {now + 100, false};
    }
    void writeback(Cycle, Addr) override {}
    std::string designName() const override { return "stub"; }
    std::uint64_t demandAccesses() const override { return accesses_; }
    std::uint64_t demandHits() const override { return 0; }

  private:
    std::uint64_t accesses_ = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Median of @p reps timings of @p fn (seconds). */
template <typename Fn>
double
medianSeconds(unsigned reps, Fn &&fn)
{
    std::vector<double> s;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        s.push_back(secondsSince(t0));
    }
    return median(std::move(s));
}

/** Keeps the drain loop's record reads from being optimized away. */
volatile std::uint64_t g_sink = 0;

/** Drain @p src core by core through acquire/skip. */
std::uint64_t
drain(TraceSource &src, unsigned cores)
{
    std::uint64_t n = 0;
    std::uint64_t sink = 0;
    for (bool any = true; any;) {
        any = false;
        for (unsigned c = 0; c < cores; ++c) {
            TraceRecord *span = nullptr;
            const std::size_t got = src.acquire(c, span);
            for (std::size_t i = 0; i < got; ++i)
                sink += span[i].req.paddr;
            src.skip(got);
            n += got;
            any |= got > 0;
        }
    }
    g_sink = sink;
    return n;
}

/** DRAM timing over the post-L2 stream: ns per access and row-hit
 * ratio for one DRAM configuration. */
std::pair<double, double>
dramReplay(const DramSystem::Config &cfg, const WarmupArtifact &a,
           unsigned reps)
{
    double row_hit = 0.0;
    const double s = medianSeconds(reps, [&]() {
        DramSystem dram(cfg);
        Cycle when = 0;
        for (std::size_t i = 0; i < a.paddr.size(); ++i) {
            dram.access(when, a.paddr[i],
                        a.kind[i] != WarmupArtifact::kRead);
            when += 8;
        }
        const double hits = static_cast<double>(dram.totalRowHits());
        row_hit = hits / std::max(1.0, hits + dram.totalActivates());
    });
    return {s * 1e9 / std::max<std::size_t>(1, a.paddr.size()),
            row_hit};
}

/** Time each layer alone over @p point's trace identity. */
std::string
isolatedLayers(const ExperimentPoint &point,
               const std::vector<std::string> &designs)
{
    constexpr unsigned kReps = 3;
    const std::uint64_t warm = std::max<std::uint64_t>(
        point.warmupWindow(), 1);
    const std::uint64_t measure = measureRecords(point.scale);
    const std::uint64_t records = warm + measure;
    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(point.workload, point.cfg.pageBytes,
                                  point.traceSeed()),
                     records, *arena);
    std::shared_ptr<const MaterializedTrace> shared = arena;
    const PodConfig pod = point.cfg.pod;

    std::string out = "{\n";
    const double replay_s = medianSeconds(kReps, [&]() {
        ReplayTraceSource src(shared);
        drain(src, pod.numCores);
    });
    appendFmt(out, "  \"mem.replay_ns_per_rec\": %.6f,\n",
              replay_s * 1e9 / records);

    const double mix_s = medianSeconds(kReps, [&]() {
        std::vector<std::unique_ptr<TraceSource>> srcs;
        srcs.push_back(std::make_unique<ReplayTraceSource>(shared));
        srcs.push_back(std::make_unique<ReplayTraceSource>(shared));
        TenantMixSource mix(std::move(srcs),
                            {pod.numCores / 2, pod.numCores / 2});
        drain(mix, pod.numCores);
    });
    appendFmt(out, "  \"tenant.mix_drain_ns_per_rec\": %.6f,\n",
              mix_s * 1e9 / (2.0 * records));

    // Hierarchy-only pass over warmup + measure; its post-L2 stream
    // feeds the DRAM replays.
    std::shared_ptr<const WarmupArtifact> full;
    const double hier_s = medianSeconds(kReps, [&]() {
        full = PodSystem::buildWarmupArtifact(*arena, pod.hierarchy,
                                              records);
    });
    appendFmt(out, "  \"cache.hierarchy_ns_per_rec\": %.6f,\n",
              hier_s * 1e9 / records);
    appendFmt(out, "  \"cache.post_l2_ops_per_rec\": %.6f,\n",
              static_cast<double>(full->paddr.size()) / records);

    const auto [stk_ns, stk_hit] =
        dramReplay(DramSystem::Config::stackedPod(), *full, kReps);
    const auto [off_ns, off_hit] =
        dramReplay(DramSystem::Config::offchipPod(), *full, kReps);
    appendFmt(out, "  \"dram.stacked_ns_per_access\": %.6f,\n", stk_ns);
    appendFmt(out, "  \"dram.offchip_ns_per_access\": %.6f,\n", off_ns);
    appendFmt(out, "  \"dram.stacked_row_hit_ratio\": %.6f,\n", stk_hit);
    appendFmt(out, "  \"dram.offchip_row_hit_ratio\": %.6f,\n", off_hit);

    // Dispatch loop + hierarchy over a stub memory system, timed
    // over the measure window after an untimed functional warmup.
    std::vector<double> stub_runs;
    for (unsigned i = 0; i < kReps; ++i) {
        ReplayTraceSource src(shared);
        StubMemory stub;
        DramSystem offchip(DramSystem::Config::offchipPod());
        PodSystem sys(pod, src, stub, nullptr, offchip);
        sys.run(warm, 0);
        const auto t0 = Clock::now();
        sys.run(0, measure);
        stub_runs.push_back(secondsSince(t0));
    }
    const double stub_s = median(std::move(stub_runs));
    appendFmt(out, "  \"sim.dispatch_ns_per_rec\": %.6f,\n",
              stub_s * 1e9 / measure);

    // Each design's memory system replaying the warmup op stream.
    auto warm_art =
        PodSystem::buildWarmupArtifact(*arena, pod.hierarchy, warm);
    for (const std::string &d : designs) {
        Experiment::Config cfg = point.cfg;
        cfg.design = d;
        // Time only applyWarmup, not the construction around it.
        std::vector<double> warm_s;
        for (unsigned i = 0; i < kReps; ++i) {
            ReplayTraceSource src(shared);
            Experiment exp(cfg, src);
            const auto t0 = Clock::now();
            exp.pod().applyWarmup(*warm_art);
            warm_s.push_back(secondsSince(t0));
        }
        appendFmt(out, "  \"dramcache.%s.warm_ns_per_op\": %.6f,\n",
                  d.c_str(),
                  median(std::move(warm_s)) * 1e9 /
                      std::max<std::size_t>(1, warm_art->paddr.size()));
    }
    appendFmt(out,
              "  \"records\": %" PRIu64 ", \"warm_records\": %" PRIu64
              ", \"measure_records\": %" PRIu64 ",\n",
              records, warm, measure);
    out += "  \"identity\": \"";
    appendJsonEscaped(out, point.traceKey());
    out += "\"\n}\n";
    return out;
}

std::string
renderSpans(const std::vector<ExperimentPoint> &batch,
            const std::vector<SpanLog> &logs)
{
    std::string out = "{\"spans\": [";
    bool first = true;
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans()) {
            out += first ? "\n" : ",\n";
            first = false;
            appendFmt(out,
                      "{\"id\": %d, \"parent\": %d, \"point\": %zu, "
                      "\"name\": \"%s\", \"start_ns\": %" PRId64
                      ", \"end_ns\": %" PRId64 ", \"units\": %" PRIu64
                      ", \"design\": \"",
                      s.id, s.parent, s.point, s.name, s.startNs,
                      s.endNs, s.units);
            appendJsonEscaped(out, s.design);
            out += "\", \"identity\": \"";
            appendJsonEscaped(out, s.identity);
            out += "\", \"key\": \"";
            appendJsonEscaped(out, batch[s.point].key());
            out += "\"}";
        }
    }
    out += "\n]}\n";
    return out;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --filter PAT[,PAT...] [--report FILE] "
                 "[--spans FILE] [--isolated FILE]\n  %s\n",
                 argv0, kCommonFlagsUsage);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts;
    std::string filter, report_path, spans_path, isolated_path;
    for (int i = 1; i < argc; ++i) {
        if (parseCommonFlag(opts, argc, argv, i))
            continue;
        const bool has_value = i + 1 < argc;
        if (!std::strcmp(argv[i], "--filter") && has_value) {
            filter = argv[++i];
        } else if (!std::strcmp(argv[i], "--report") && has_value) {
            report_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--spans") && has_value) {
            spans_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--isolated") && has_value) {
            isolated_path = argv[++i];
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (!checkWorkloadFilter(opts))
        return 2;

    ExperimentRegistry &reg = ExperimentRegistry::instance();
    fpcbench::registerAllExperiments(reg);
    std::vector<ExperimentRun> runs;
    std::vector<ExperimentPoint> batch;
    for (const ExperimentDef &def : reg.all()) {
        if (!matchesFilter(def.name, filter))
            continue;
        ExperimentRun run;
        run.name = def.name;
        run.title = def.title;
        run.points = def.build(opts);
        batch.insert(batch.end(), run.points.begin(), run.points.end());
        runs.push_back(std::move(run));
    }
    if (batch.empty()) {
        std::fprintf(stderr, "no point matches --filter '%s'\n",
                     filter.c_str());
        return 1;
    }

    if (!report_path.empty() || !spans_path.empty()) {
        TraceCache cache(opts.traceCacheConfig().budgetBytes);
        planCache(cache, batch);
        std::vector<PointResult> results(batch.size());
        const unsigned workers = std::min<std::size_t>(
            opts.effectiveJobs(), batch.size());
        const Clock::time_point epoch = Clock::now();
        std::atomic<int> ids{0};
        std::vector<SpanLog> logs;
        for (unsigned w = 0; w < workers; ++w)
            logs.emplace_back(epoch, ids);
        std::atomic<std::size_t> cursor{0};
        std::atomic<bool> failed{false};
        auto work = [&](SpanLog &log) {
            for (;;) {
                const std::size_t i = cursor.fetch_add(1);
                if (i >= batch.size())
                    return;
                try {
                    results[i] = runDecomposed(log, cache, i, batch[i]);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "FAILED: %s: %s\n",
                                 batch[i].key().c_str(), e.what());
                    results[i].failed = true;
                    results[i].error = e.what();
                    failed = true;
                }
            }
        };
        std::vector<std::thread> pool;
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(work, std::ref(logs[w]));
        work(logs[0]);
        for (std::thread &t : pool)
            t.join();

        std::size_t cursor_out = 0;
        for (ExperimentRun &run : runs) {
            run.results.assign(results.begin() + cursor_out,
                               results.begin() + cursor_out +
                                   run.points.size());
            cursor_out += run.points.size();
        }
        if (!report_path.empty() &&
            !writeTextFile(report_path, renderSweepJson(opts, runs)))
            return 1;
        if (!spans_path.empty() &&
            !writeTextFile(spans_path, renderSpans(batch, logs)))
            return 1;
        if (failed)
            return 3;
    }

    if (!isolated_path.empty()) {
        std::vector<std::string> designs;
        for (const ExperimentPoint &p : batch) {
            if (std::find(designs.begin(), designs.end(),
                          p.cfg.design) == designs.end())
                designs.push_back(p.cfg.design);
        }
        ExperimentPoint first = batch.front();
        first.cfg.params = DesignParams{};
        if (!writeTextFile(isolated_path,
                           isolatedLayers(first, designs)))
            return 1;
    }
    return 0;
}
