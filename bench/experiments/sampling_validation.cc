/**
 * @file
 * Sampled-simulation validation: every registered design runs the
 * same trace twice — once exact (the full measurement window
 * timed end to end) and once sampled (PodSystem::runSampled's
 * fast-forward / timed-interval alternation). The twins pin their
 * sampling configs, so a global --sample-mode sweep cannot
 * un-pair them; scripts/check_sampling.py consumes the merged
 * JSON and enforces that the exact value lands inside the sampled
 * 95% CI for ≥90% of the paired metrics, and that the sampled
 * measure phase is ≥5x faster (from the --time-out breakdown).
 *
 * Expected shape: sampled IPC/miss-ratio means track the exact
 * values within a few percent with CIs that cover them; the
 * error-vs-CI table below makes coverage visible at a glance.
 */

#include <cmath>
#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

/** Same seven organizations as the frontier experiment. */
const char *kValidationDesigns[] = {"baseline", "block",  "page",
                                    "footprint", "ideal", "alloy",
                                    "banshee"};
constexpr std::size_t kNumValidationDesigns =
    sizeof(kValidationDesigns) / sizeof(kValidationDesigns[0]);

/** Exact / sampled twins per design. */
constexpr std::size_t kPointsPerWorkload =
    2 * kNumValidationDesigns;

double
findExtra(const PointResult &r, const char *name)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return value;
    }
    return 0.0;
}

} // namespace

void
registerSamplingValidation(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "sampling_validation";
    def.title = "exact vs sampled measurement: error within the "
                "reported 95% CI";

    // Per workload: all designs at the default capacity and page
    // size, each as an exact/sampled pair replaying the same
    // trace (the identity ignores the label suffix), so any
    // disagreement is measurement scheme, not workload noise.
    def.build = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            for (const char *d : kValidationDesigns) {
                ExperimentPoint exact;
                exact.experiment = "sampling_validation";
                exact.workload = wk;
                exact.cfg.design = d;
                exact.scale = opts.scale;
                exact.baseSeed = opts.seed;
                exact.label =
                    standardLabel(wk, exact.cfg) + "/exact";
                exact.pinSampling = true;

                ExperimentPoint sampled = exact;
                sampled.label =
                    standardLabel(wk, sampled.cfg) + "/sampled";
                sampled.cfg.pod.sampling = opts.sampling;
                sampled.cfg.pod.sampling.enabled = true;

                points.push_back(std::move(exact));
                points.push_back(std::move(sampled));
            }
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        for (std::size_t w = 0;
             w * kPointsPerWorkload < results.size(); ++w) {
            const std::size_t o = w * kPointsPerWorkload;
            std::printf("\n%s (sampling validation: exact vs "
                        "sampled IPC, error vs 95%% CI)\n",
                        workloadName(points[o].workload));
            std::printf("  %-10s %9s %9s %9s %9s %5s %3s\n",
                        "design", "exact", "mean", "|err|",
                        "ci95", "ivals", "ok");
            for (std::size_t d = 0; d < kNumValidationDesigns;
                 ++d) {
                const PointResult &exact = results[o + 2 * d];
                const PointResult &sampled =
                    results[o + 2 * d + 1];
                const double exact_ipc = exact.metrics.ipc();
                const double mean =
                    findExtra(sampled, "ipc_mean");
                const double ci =
                    findExtra(sampled, "ipc_ci95");
                const double err =
                    std::fabs(mean - exact_ipc);
                std::printf(
                    "  %-10s %9.4f %9.4f %9.4f %9.4f %5.0f %3s"
                    "\n",
                    points[o + 2 * d].cfg.design.c_str(),
                    exact_ipc, mean, err, ci,
                    findExtra(sampled, "sampled_intervals"),
                    err <= ci ? "yes" : "NO");
            }
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
