/**
 * @file
 * Figure 5: (a) DRAM-cache miss ratio and (b) off-chip bandwidth
 * normalized to the no-cache baseline, for the block-based,
 * Footprint and page-based organizations across 64..512MB.
 *
 * Expected shape (paper): page <= footprint << block on miss
 * ratio; block ~= footprint << page on off-chip traffic (page up
 * to ~9x baseline at small capacities).
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::vector<std::string> kDesigns = {
    "page", "footprint", "block"};

} // namespace

void
registerFig05(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig05";
    def.title = "miss ratio and off-chip bandwidth";

    // Per workload: baseline (traffic normalization), then
    // capacity x {page, footprint, block}.
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
        const std::size_t stride =
            1 + kPaperCapacities.size() * 3;
        for (std::size_t w = 0; w * stride < results.size();
             ++w) {
            const std::size_t o = w * stride;
            const double base_bytes = static_cast<double>(
                results[o].metrics.offchipBytes);
            const double base_cycles = static_cast<double>(
                results[o].metrics.cycles);

            std::printf("\n%s (Fig. 5a miss ratio %% | Fig. 5b "
                        "off-chip BW vs baseline)\n",
                        workloadName(points[o].workload));
            std::printf("  %-6s %8s %8s %8s | %8s %8s %8s\n",
                        "size", "page", "fprint", "block", "page",
                        "fprint", "block");
            std::size_t i = o + 1;
            for (std::uint64_t mb : kPaperCapacities) {
                double miss[3], bw[3];
                for (int d = 0; d < 3; ++d) {
                    const RunMetrics &m = results[i].metrics;
                    miss[d] = 100.0 * m.missRatio();
                    // Traffic per cycle, normalized to baseline
                    // traffic per cycle.
                    const double tpc =
                        static_cast<double>(m.offchipBytes) /
                        static_cast<double>(m.cycles);
                    bw[d] = tpc / (base_bytes / base_cycles);
                    ++i;
                }
                std::printf("  %4lluMB %8.1f %8.1f %8.1f | %8.2f "
                            "%8.2f %8.2f\n",
                            static_cast<unsigned long long>(mb),
                            miss[0], miss[1], miss[2], bw[0],
                            bw[1], bw[2]);
            }
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
