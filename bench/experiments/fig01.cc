/**
 * @file
 * Figure 1: the opportunity study. Performance improvement over
 * the 2D baseline for (a) die-stacked main memory with 8x the
 * bandwidth and (b) the same plus halved DRAM latency.
 *
 * Expected shape (paper): both bars positive everywhere; latency
 * adds on top of bandwidth; Data Serving is off the chart.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

void
registerFig01(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig01";
    def.title = "die-stacked main-memory opportunity";

    // Per workload: baseline, then High-BW (Ideal organization;
    // two stacked DDR3-3200 channels give exactly 8x the
    // 12.8GB/s 2D baseline), then High-BW & Low-Lat.
    def.expand = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            ExperimentPoint base;
            base.workload = wk;
            base.cfg.design = "baseline";
            points.push_back(base);

            ExperimentPoint hb = base;
            hb.cfg.design = "ideal";
            hb.cfg.stackedChannels = 2;
            points.push_back(hb);

            ExperimentPoint hbll = hb;
            hbll.cfg.stackedLowLatency = true;
            points.push_back(hbll);
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf(
            "\nFigure 1: die-stacked main-memory opportunity\n");
        std::printf("  %-16s %12s %22s\n", "workload", "High-BW",
                    "High-BW & Low-Lat");
        for (std::size_t i = 0; i + 3 <= results.size(); i += 3) {
            const double b = results[i].metrics.ipc();
            std::printf(
                "  %-16s %+11.1f%% %+21.1f%%\n",
                workloadName(points[i].workload),
                100.0 * (results[i + 1].metrics.ipc() / b - 1.0),
                100.0 * (results[i + 2].metrics.ipc() / b - 1.0));
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
