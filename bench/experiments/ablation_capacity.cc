/**
 * @file
 * §6.5 ablation: the singleton-page capacity optimization.
 * Miss ratio with and without singleton bypass across
 * capacities, plus the singleton population (share of one-block
 * pages, §3.2: more than a quarter on average).
 *
 * Expected shape (paper): ~10% average miss-rate reduction,
 * mattering most at small capacities.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::uint64_t kCaps[] = {64, 256};

} // namespace

void
registerAblationCapacity(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "ablation_capacity";
    def.title = "singleton optimization ablation";

    // Per workload, per capacity: singleton bypass off, then on.
    def.expand = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            for (std::uint64_t mb : kCaps) {
                for (bool enabled : {false, true}) {
                    ExperimentPoint p;
                    p.workload = wk;
                    p.cfg.design = "footprint";
                    p.cfg.capacityMb = mb;
                    p.cfg.singletonOptimization = enabled;
                    points.push_back(std::move(p));
                }
            }
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nSingleton optimization ablation (miss "
                    "ratio %%)\n");
        std::printf("  %-16s %-6s %8s %8s %9s %10s\n", "workload",
                    "size", "off", "on", "delta", "1-blk pages");
        for (std::size_t i = 0; i + 2 <= results.size(); i += 2) {
            const double off = results[i].metrics.missRatio();
            const double on = results[i + 1].metrics.missRatio();
            // Share of one-block pages among ended residencies.
            double singles = 0, pages = 0;
            for (std::size_t d = 0;
                 d < results[i].densityBuckets.size(); ++d) {
                pages += results[i].densityBuckets[d];
                if (d == 1)
                    singles = results[i].densityBuckets[d];
            }
            std::printf(
                "  %-16s %4lluMB %7.1f%% %7.1f%% %+8.1f%% "
                "%9.1f%%\n",
                workloadName(points[i].workload),
                static_cast<unsigned long long>(
                    points[i].cfg.capacityMb),
                100.0 * off, 100.0 * on,
                off > 0 ? 100.0 * (on - off) / off : 0.0,
                pages ? 100.0 * singles / pages : 0.0);
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
