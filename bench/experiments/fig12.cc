/**
 * @file
 * Figure 12: hot-page analysis (the CHOP discussion of §6.7).
 * Minimum size of an ideal, perfectly-replaced 4KB-page cache
 * needed to capture a given fraction of all LLC accesses.
 *
 * Expected shape (paper): scale-out datasets have no compact hot
 * set — capturing 80% of accesses needs caches beyond practical
 * stacked capacities (vs Multiprogrammed, which is compact).
 */

#include <cstdio>
#include <optional>

#include "dram/system.hh"
#include "experiments/experiments.hh"
#include "mem/materialized_trace.hh"
#include "sim/pod_system.hh"
#include "workload/analysis.hh"

namespace fpcbench {

namespace {

const double kFractions[] = {0.2, 0.4, 0.6, 0.8};

/**
 * LLC-filtered access counting: the pod runs with a counting
 * "memory system" below the L2 instead of a DRAM organization.
 * Its window (arenaRecords) is a prefix of the identity's
 * standard records, so it replays the arena the identity's
 * standard points share, and alone plans only what it reads.
 */
PointResult
runHotPages(const ExperimentPoint &point)
{
    const std::uint64_t records = point.arenaRecords;
    std::optional<TraceCache> own_cache;
    PointResult out;
    PhaseTimer phase(point);
    ReplayTraceSource trace(acquireTraceArena(
        pointCache(point, own_cache), point.workload,
        point.cfg.pageBytes, point.baseSeed, records,
        point.cfg.pod.deadline, &out.timing.generatedTrace));
    out.timing.replayedTrace = true;
    out.timing.traceSeconds = phase.lap("trace");
    AccessCountingMemory mem(4096);
    DramSystem off(DramSystem::Config::offchipPod());
    PodConfig pod_cfg;
    // The bespoke pod still honors the sweep's telemetry flags
    // (every quick-grid point must conserve interval sums) and
    // the attempt's deadline.
    pod_cfg.telemetry = point.cfg.pod.telemetry;
    pod_cfg.deadline = point.cfg.pod.deadline;
    PodSystem pod(pod_cfg, trace, mem, nullptr, off);
    phase.lap("construct");
    // The whole bespoke run is its measured window.
    out.metrics = pod.run(0, records);
    out.timing.measureSeconds = phase.lap("measure");
    out.intervals = pod.intervals();
    if (const TelemetryProbe *probe = pod.probe())
        appendProbeExtras(*probe, out.extra);
    for (double f : kFractions) {
        out.extra.emplace_back(
            "ideal_mb_" + std::to_string(
                              static_cast<int>(100 * f)),
            mem.idealCacheSizeMb(f));
    }
    out.extra.emplace_back(
        "distinct_4kb_pages",
        static_cast<double>(mem.distinctPages()));
    return out;
}

} // namespace

void
registerFig12(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig12";
    def.title = "ideal hot-page cache size";

    def.expand = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            ExperimentPoint p;
            p.workload = wk;
            p.label = std::string(workloadName(wk)) +
                      "/hotpages/4096B";
            p.custom = runHotPages;
            p.arenaRecords =
                static_cast<std::uint64_t>(12e6 * opts.scale);
            // No warmup: only the trace arena is planned.
            p.inBandWarmup = true;
            points.push_back(std::move(p));
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nFigure 12: ideal cache size (MB) to cover "
                    "a fraction of accesses (4KB pages)\n");
        std::printf("  %-16s %8s %8s %8s %8s\n", "workload",
                    "20%", "40%", "60%", "80%");
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::printf("  %-16s",
                        workloadName(points[i].workload));
            double distinct = 0;
            for (const auto &[name, value] : results[i].extra) {
                if (name == "distinct_4kb_pages")
                    distinct = value;
                else if (name.rfind("ideal_mb_", 0) == 0)
                    std::printf(" %8.1f", value);
            }
            std::printf("   (%.0f distinct 4KB pages)\n",
                        distinct);
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
