/**
 * @file
 * Figure 7: performance improvement for Data Serving, the
 * bandwidth monster plotted on its own scale in the paper.
 * Always runs Data Serving regardless of --workload.
 *
 * Expected shape (paper): page-based strongly negative at 64MB,
 * recovering with capacity; Footprint large and positive
 * throughout; Ideal around +312%.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::vector<std::string> kDesigns = {
    "block", "page", "footprint", "ideal"};

} // namespace

void
registerFig07(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig07";
    def.title = "Data Serving performance improvement";

    def.expand = [](const SweepOptions &) {
        ExperimentPoint base;
        base.workload = WorkloadKind::DataServing;
        base.cfg.design = "baseline";
        std::vector<ExperimentPoint> points = {base};
        SweepSpec grid;
        grid.workloads = {WorkloadKind::DataServing};
        grid.designs = kDesigns;
        grid.capacitiesMb = kPaperCapacities;
        for (ExperimentPoint &p : grid.expand())
            points.push_back(std::move(p));
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &,
                    const std::vector<PointResult> &results) {
        const double b = results[0].metrics.ipc();
        std::printf("\nData Serving (performance improvement "
                    "over baseline, %%)\n");
        std::printf("  %-6s %9s %9s %9s %9s\n", "size", "block",
                    "page", "fprint", "ideal");
        std::size_t i = 1;
        for (std::uint64_t mb : kPaperCapacities) {
            std::printf("  %4lluMB",
                        static_cast<unsigned long long>(mb));
            for (int d = 0; d < 4; ++d) {
                std::printf(
                    " %+8.1f%%",
                    100.0 * (results[i].metrics.ipc() / b - 1.0));
                ++i;
            }
            std::printf("\n");
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
