/**
 * @file
 * Figure 8: predictor accuracy vs page size (1KB/2KB/4KB) at
 * 256MB with 16K FHT entries: covered, underpredicted and
 * overpredicted blocks as a fraction of demanded blocks.
 *
 * Expected shape (paper): covered + under = 100%; overpredictions
 * are an extra bar on top; 1-2KB pages predict best.
 */

#include <algorithm>
#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

void
registerFig08(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig08";
    def.title = "predictor accuracy by page size";

    def.expand = [](const SweepOptions &opts) {
        SweepSpec spec;
        spec.workloads = opts.workloads();
        spec.designs = {"footprint"};
        spec.capacitiesMb = {256};
        spec.pageBytes = {1024, 2048, 4096};
        return spec.expand();
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nFigure 8: predictor accuracy by page size "
                    "(256MB, 16K FHT)\n");
        std::printf("  %-16s %6s %10s %10s %10s\n", "workload",
                    "page", "covered", "underpred", "overpred");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const PointResult &r = results[i];
            // Zero demanded blocks prints as zeros rather than a
            // dropped row, which would shift the workload labels.
            const double demanded = std::max(
                1.0,
                static_cast<double>(r.covered + r.underpred));
            std::printf(
                "  %-16s %5uB %9.1f%% %9.1f%% %9.1f%%\n",
                i % 3 == 0 ? workloadName(points[i].workload)
                           : "",
                points[i].cfg.pageBytes,
                100.0 * r.covered / demanded,
                100.0 * r.underpred / demanded,
                100.0 * r.overpred / demanded);
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
