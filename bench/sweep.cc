/**
 * @file
 * Unified sweep CLI: runs any subset of the registered paper
 * experiments as one globally-sharded batch and merges the
 * results into a single BENCH_*-shaped JSON report.
 *
 *   sweep --list
 *   sweep --filter fig06 --jobs 8 --quick --out results.json
 *   sweep --filter fig0,table --workload WebSearch
 *
 * --filter takes comma-separated substrings matched against
 * experiment names (empty = all). Points from every selected
 * experiment go into ONE work queue, so a wide shard pool stays
 * busy even while a long-tailed experiment drains. The exit code
 * is nonzero if any selected experiment is missing from the
 * merged report (the CI sweep-smoke completeness gate).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "experiments/experiments.hh"
#include "telemetry/heatmap.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_events.hh"

using namespace fpcbench;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--list] [--filter PAT[,PAT...]]\n"
                 "       %*s %s\n"
                 "       %*s [--out FILE] [--no-report]\n",
                 argv0, static_cast<int>(std::strlen(argv0)), "",
                 fpc::kCommonFlagsUsage,
                 static_cast<int>(std::strlen(argv0)), "");
}

/** Append @p value to @p values if not already present. */
template <typename T>
void
noteAxisValue(std::vector<T> &values, const T &value)
{
    for (const T &v : values) {
        if (v == value)
            return;
    }
    values.push_back(value);
}

/** Join axis values with commas, e.g. "64,128,256,512MB". */
template <typename T, typename Fmt>
std::string
joinAxis(const std::vector<T> &values, Fmt &&fmt)
{
    std::string out;
    for (const T &v : values) {
        if (!out.empty())
            out += ",";
        out += fmt(v);
    }
    return out;
}

/**
 * One experiment's listing line: name, point count and the axis
 * values its builder expands to, so users can size a run before
 * launching it. Tab-separated with the name first (CI parses
 * that field).
 */
void
printListing(const fpc::ExperimentDef &def,
             const SweepOptions &opts)
{
    const std::vector<ExperimentPoint> points = def.build(opts);
    std::vector<std::string> workloads, designs;
    std::vector<std::uint64_t> caps;
    std::vector<unsigned> pages;
    for (const ExperimentPoint &p : points) {
        noteAxisValue(workloads,
                      std::string(workloadName(p.workload)));
        noteAxisValue(designs, p.cfg.design);
        noteAxisValue(caps, p.cfg.capacityMb);
        noteAxisValue(pages, p.cfg.pageBytes);
    }
    std::printf("%s\t%3zu pts", def.name.c_str(), points.size());
    if (!points.empty()) {
        std::printf(
            "\t%zu workload(s) designs=%s caps=%sMB pages=%sB",
            workloads.size(),
            joinAxis(designs,
                     [](const std::string &d) { return d; })
                .c_str(),
            joinAxis(caps,
                     [](std::uint64_t mb) {
                         return std::to_string(mb);
                     })
                .c_str(),
            joinAxis(pages,
                     [](unsigned pb) {
                         return std::to_string(pb);
                     })
                .c_str());
    }
    std::printf("\t%s\n", def.title.c_str());
}

/** Comma-separated substring match against an experiment name. */
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
        const std::string pat =
            filter.substr(start, comma - start);
        if (!pat.empty() && name.find(pat) != std::string::npos)
            return true;
        start = comma + 1;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts;
    std::string out_path;
    std::string filter;
    bool list = false;
    bool report = true;

    for (int i = 1; i < argc; ++i) {
        try {
            if (parseCommonFlag(opts, argc, argv, i))
                continue;
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--filter") &&
                   i + 1 < argc) {
            filter = argv[++i];
        } else if (!std::strcmp(argv[i], "--list")) {
            list = true;
        } else if (!std::strcmp(argv[i], "--no-report")) {
            report = false;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (!checkWorkloadFilter(opts))
        return 2;
    if (opts.resilience.resume && opts.resilience.journalDir.empty()) {
        std::fprintf(stderr, "--resume requires --journal DIR\n");
        return 2;
    }

    if (!opts.faultPlan.empty() &&
        !fpc::FaultInjector::instance().configure(opts.faultPlan,
                                                  opts.seed))
        return 2;

    ExperimentRegistry &reg = ExperimentRegistry::instance();
    registerAllExperiments(reg);

    if (list) {
        for (const ExperimentDef &def : reg.all())
            printListing(def, opts);
        return 0;
    }

    // Expand every selected experiment, then shard the
    // concatenation as one batch; each point carries the sweep's
    // telemetry and sampling settings in its PodConfig.
    std::vector<ExperimentRun> runs;
    std::vector<ExperimentPoint> batch;
    for (const ExperimentDef &def : reg.all()) {
        if (!matchesFilter(def.name, filter))
            continue;
        ExperimentRun run;
        run.name = def.name;
        run.title = def.title;
        run.points = def.build(opts);
        for (ExperimentPoint &p : run.points) {
            applySweepOptions(p, opts);
            batch.push_back(p);
        }
        runs.push_back(std::move(run));
    }
    if (runs.empty()) {
        std::fprintf(stderr,
                     "no experiment matches --filter '%s'\n",
                     filter.c_str());
        return 1;
    }

    SweepRunner runner(opts.jobs, opts.cache);
    std::printf("sweep: %zu experiment(s), %zu point(s), "
                "%u job(s), scale %.2f, seed %llu, "
                "trace cache %lluMB\n",
                runs.size(), batch.size(), runner.jobs(),
                opts.scale,
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(
                    opts.cache.budgetBytes >> 20));

    std::unique_ptr<fpc::SpanTracer> tracer;
    if (!opts.traceOut.empty())
        tracer = std::make_unique<fpc::SpanTracer>();
    opts.resilience.tracer = tracer.get();

    const auto t0 = std::chrono::steady_clock::now();
    SweepOutcome outcome;
    try {
        outcome = runner.runResilient(batch, opts.resilience);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ERROR: %s\n", e.what());
        return 1;
    }
    const std::vector<PointResult> &all = outcome.results;
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // Scatter results back to their experiments (batch order is
    // runs order, points order within each run).
    std::size_t cursor = 0;
    for (ExperimentRun &run : runs) {
        run.results.assign(all.begin() + cursor,
                           all.begin() + cursor +
                               run.points.size());
        cursor += run.points.size();
    }

    if (report) {
        for (const ExperimentRun &run : runs) {
            // Reporters assume every point carries valid metrics
            // (ratios against baselines, positional indexing);
            // an experiment with a failed point keeps its data in
            // the merged JSON but skips the derived table.
            bool any_failed = false;
            for (const PointResult &r : run.results)
                any_failed |= r.failed;
            if (any_failed) {
                std::printf("\n[%s skipped: experiment has "
                            "failed point(s)]\n",
                            run.name.c_str());
                continue;
            }
            const ExperimentDef *def = reg.find(run.name);
            def->report(opts, run.points, run.results);
        }
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!all[i].failed)
            continue;
        std::fprintf(stderr,
                     "FAILED: %s after %u attempt(s) in %.1fs: "
                     "%s\n",
                     batch[i].key().c_str(), all[i].attempts,
                     all[i].elapsedSeconds,
                     all[i].error.c_str());
    }

    std::printf("\nsweep: %zu point(s) in %.1fs (%u jobs): "
                "%zu executed, %zu reused, %zu from journal, "
                "%zu failed\n",
                batch.size(), seconds, runner.jobs(),
                outcome.executed, outcome.reused,
                outcome.journaled, outcome.failed);

    if (opts.time) {
        std::fputs(renderTimingReport(runs, outcome.cache,
                                      outcome.scheduler)
                       .c_str(),
                   stdout);
        if (!opts.timeOut.empty()) {
            const std::string timing_json =
                renderTimingJson(opts, runs, outcome.cache,
                                 outcome.scheduler);
            if (!writeTextFile(opts.timeOut, timing_json))
                return 1;
            std::printf("wrote %s\n", opts.timeOut.c_str());
        }
    }

    // Telemetry artifacts are standalone files: the merged report
    // below stays byte-identical whether or not they were asked
    // for (--histograms is the one report-changing flag).
    if (!opts.timeseriesOut.empty()) {
        std::vector<fpc::PointSeries> series;
        for (const ExperimentRun &run : runs) {
            for (std::size_t i = 0; i < run.points.size(); ++i) {
                if (run.results[i].failed ||
                    run.results[i].intervals.empty())
                    continue;
                fpc::PointSeries s;
                s.key = run.points[i].key();
                s.workload =
                    workloadName(run.points[i].workload);
                s.intervals = run.results[i].intervals;
                s.probeNames = run.results[i].probeNames;
                s.probeTotals =
                    run.results[i].metrics.probeValues;
                series.push_back(std::move(s));
            }
        }
        const std::string ts_json = fpc::renderTimeseriesJson(
            opts.scale, opts.seed, opts.effectiveIntervalRecords(),
            series);
        if (!writeTextFile(opts.timeseriesOut, ts_json))
            return 1;
        std::printf("wrote %s (%zu point series)\n",
                    opts.timeseriesOut.c_str(), series.size());
    }
    if (!opts.heatmapOut.empty()) {
        std::vector<fpc::HeatmapPoint> cells;
        for (const ExperimentRun &run : runs) {
            for (std::size_t i = 0; i < run.points.size(); ++i) {
                if (run.results[i].failed ||
                    !run.results[i].heatmap.valid)
                    continue;
                fpc::HeatmapPoint h;
                h.key = run.points[i].key();
                h.workload =
                    workloadName(run.points[i].workload);
                h.design = run.points[i].cfg.design;
                h.data = run.results[i].heatmap;
                cells.push_back(std::move(h));
            }
        }
        const std::string hm_json = fpc::renderHeatmapJson(
            opts.scale, opts.seed, cells);
        if (!writeTextFile(opts.heatmapOut, hm_json))
            return 1;
        std::printf("wrote %s (%zu point heatmaps)\n",
                    opts.heatmapOut.c_str(), cells.size());
    }
    if (tracer) {
        if (!writeTextFile(opts.traceOut, tracer->render()))
            return 1;
        std::printf("wrote %s (%zu trace events)\n",
                    opts.traceOut.c_str(), tracer->eventCount());
    }

    const std::string json = renderSweepJson(opts, runs);
    if (!out_path.empty()) {
        if (!writeTextFile(out_path, json))
            return 1;
        std::printf("wrote %s\n", out_path.c_str());
    }

    // Completeness gate: every selected experiment must appear in
    // the merged report.
    int missing = 0;
    for (const ExperimentRun &run : runs) {
        if (!sweepJsonHasExperiment(json, run.name)) {
            std::fprintf(stderr,
                         "ERROR: experiment %s missing from the "
                         "merged report\n",
                         run.name.c_str());
            ++missing;
        }
    }
    if (missing)
        return 1;
    // Graceful degradation: completed results (and the report)
    // were preserved above, but a sweep with terminal point
    // failures must not look green to callers.
    return outcome.failed ? 3 : 0;
}
