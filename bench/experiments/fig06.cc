/**
 * @file
 * Figure 6: performance improvement over the no-DRAM-cache
 * baseline for block-based, page-based, Footprint and Ideal
 * organizations at 64..512MB, per workload plus the geomean
 * (Data Serving is reported by fig07, as in the paper, but is
 * included in the geomean here).
 *
 * Expected shape (paper): block gives a solid boost at 64MB but
 * plateaus; page starts negative and recovers with capacity;
 * Footprint improves steadily and wins at most points; the
 * average Footprint improvement at 512MB is ~57%, about 82% of
 * Ideal.
 */

#include <cstdio>

#include "common/stats.hh"
#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::vector<std::string> kDesigns = {
    "block", "page", "footprint", "ideal"};

} // namespace

void
registerFig06(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig06";
    def.title = "performance improvement over baseline";

    // Per workload: baseline, then capacity x {block, page,
    // footprint, ideal}.
    def.expand = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            ExperimentPoint base;
            base.workload = wk;
            base.cfg.design = "baseline";
            points.push_back(base);
            SweepSpec grid;
            grid.workloads = {wk};
            grid.designs = kDesigns;
            grid.capacitiesMb = kPaperCapacities;
            for (ExperimentPoint &p : grid.expand())
                points.push_back(std::move(p));
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        const std::size_t caps = kPaperCapacities.size();
        const std::size_t stride = 1 + caps * 4;

        // speedup[design][capacity] per workload, for geomean;
        // sized from the capacity axis, not a fixed 4.
        std::vector<std::vector<std::vector<double>>> speedups;

        for (std::size_t w = 0; w * stride < results.size();
             ++w) {
            const std::size_t o = w * stride;
            const double base_ipc = results[o].metrics.ipc();

            std::printf("\n%s (performance improvement over "
                        "baseline, %%)\n",
                        workloadName(points[o].workload));
            std::printf("  %-6s %8s %8s %8s %8s\n", "size",
                        "block", "page", "fprint", "ideal");
            std::vector<std::vector<double>> sp(
                4, std::vector<double>(caps, 0.0));
            std::size_t i = o + 1;
            for (std::size_t c = 0; c < caps; ++c) {
                double imp[4];
                for (int d = 0; d < 4; ++d) {
                    sp[d][c] =
                        results[i].metrics.ipc() / base_ipc;
                    imp[d] = 100.0 * (sp[d][c] - 1.0);
                    ++i;
                }
                std::printf("  %4lluMB %+7.1f%% %+7.1f%% "
                            "%+7.1f%% %+7.1f%%\n",
                            static_cast<unsigned long long>(
                                kPaperCapacities[c]),
                            imp[0], imp[1], imp[2], imp[3]);
            }
            speedups.push_back(std::move(sp));
        }

        if (speedups.size() > 1) {
            std::printf("\nGeomean (performance improvement over "
                        "baseline, %%)\n");
            std::printf("  %-6s %8s %8s %8s %8s\n", "size",
                        "block", "page", "fprint", "ideal");
            for (std::size_t c = 0; c < caps; ++c) {
                std::printf("  %4lluMB",
                            static_cast<unsigned long long>(
                                kPaperCapacities[c]));
                for (int d = 0; d < 4; ++d) {
                    std::vector<double> v;
                    for (const auto &sp : speedups)
                        v.push_back(sp[d][c]);
                    std::printf(" %+7.1f%%",
                                100.0 * (geomean(v) - 1.0));
                }
                std::printf("\n");
            }
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
