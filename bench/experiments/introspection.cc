/**
 * @file
 * Introspection comparison: fill accuracy and overfetch across
 * every cache organization on paired same-trace points (256MB,
 * 2KB pages), in the spirit of the paper's Figure 8 accuracy
 * breakdown but generalized beyond the footprint predictor.
 *
 * Every point pins design probes plus 1-in-8 miss-attribution set
 * sampling, so the table below works without any CLI flag; the
 * sweep-level --miss-attribution / --design-probes / --heatmap-out
 * flags only ever widen what these points already collect.
 *
 * Expected shape: footprint's accuracy tracks Figure 8's covered
 * share (overfetch = overpredictions); page overfetches the most
 * (whole-page fills); block/baseline/ideal fetch only demanded
 * blocks (accuracy 1.0); banshee's frequency filter keeps its
 * whole-page overfetch below page's; alloy's MAP-I accuracy is
 * its predictor hit rate.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::vector<std::string> kDesigns = {
    "baseline", "block", "page",  "footprint",
    "ideal",    "alloy", "banshee"};

/** Extra by name, or @p fallback when the point lacks it (e.g.
 * sampled-mode runs disable introspection entirely). */
double
extraOf(const PointResult &r, const char *name, double fallback)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return value;
    }
    return fallback;
}

} // namespace

void
registerIntrospection(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "introspection";
    def.title = "fill accuracy / overfetch / miss attribution "
                "by design";

    def.expand = [](const SweepOptions &opts) {
        SweepSpec spec;
        spec.workloads = opts.workloads();
        spec.designs = kDesigns;
        spec.capacitiesMb = {256};
        spec.base.pod.telemetry.designProbes = true;
        spec.base.pod.telemetry.missAttributionStride = 8;
        return spec.expand();
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nIntrospection: fill accuracy, overfetch "
                    "and 3C miss attribution (256MB, 2KB)\n");
        std::printf("  %-16s %-10s %9s %9s %7s %7s %7s\n",
                    "workload", "design", "accuracy",
                    "overfetch", "comp", "cap", "conf");
        const std::size_t stride = kDesigns.size();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const PointResult &r = results[i];
            std::printf(
                "  %-16s %-10s %8.1f%% %8.1f%% %6.1f%% %6.1f%% "
                "%6.1f%%\n",
                i % stride == 0 ? workloadName(points[i].workload)
                                : "",
                points[i].cfg.design.c_str(),
                100.0 * extraOf(r, "introspect_accuracy", 1.0),
                100.0 * extraOf(r, "introspect_overfetch", 0.0),
                100.0 * extraOf(r, "attr_compulsory", 0.0),
                100.0 * extraOf(r, "attr_capacity", 0.0),
                100.0 * extraOf(r, "attr_conflict", 0.0));
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
