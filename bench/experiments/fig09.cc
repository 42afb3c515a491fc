/**
 * @file
 * Figure 9: Footprint Cache hit-ratio sensitivity to the number
 * of FHT entries (256MB cache, 2KB pages).
 *
 * Expected shape (paper): flat from ~8K entries up (the history
 * is instruction-based, so its working set is small); visible
 * drops only at the smallest tables.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::vector<std::uint32_t> kFhtSizes = {
    1024, 2048, 4096, 8192, 16384, 65536};

} // namespace

void
registerFig09(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig09";
    def.title = "hit ratio vs FHT entries";

    def.expand = [](const SweepOptions &opts) {
        SweepSpec spec;
        spec.workloads = opts.workloads();
        spec.designs = {"footprint"};
        spec.capacitiesMb = {256};
        spec.fhtEntries = kFhtSizes;
        return spec.expand();
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nFigure 9: hit ratio (%%) vs FHT entries "
                    "(256MB, 2KB pages)\n");
        std::printf("  %-16s", "workload");
        for (std::uint32_t s : kFhtSizes)
            std::printf(" %7u", s);
        std::printf("\n");
        const std::size_t stride = kFhtSizes.size();
        for (std::size_t w = 0; w * stride < results.size();
             ++w) {
            std::printf("  %-16s",
                        workloadName(points[w * stride].workload));
            for (std::size_t s = 0; s < stride; ++s) {
                std::printf(
                    " %6.1f%%",
                    100.0 * (1.0 - results[w * stride + s]
                                       .metrics.missRatio()));
            }
            std::printf("\n");
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
