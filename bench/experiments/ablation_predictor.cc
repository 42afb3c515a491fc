/**
 * @file
 * §3.1 ablation: predictor indexing and fetch-policy design
 * space. Compares sub-blocked (no prediction), offset-only,
 * PC-only and PC&offset indexing, plus Replace vs Union
 * training, at 256MB.
 *
 * Expected shape (paper/[34]): PC&offset dominates; PC-only
 * breaks under data-structure misalignment; sub-blocked has
 * maximal underprediction (lowest hit ratio).
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

struct Variant
{
    const char *name;
    FetchPolicy fetch;
    PredictorIndex index;
    FhtTrain train;
};

const Variant kVariants[] = {
    {"sub-blocked", FetchPolicy::DemandOnly,
     PredictorIndex::PcOffset, FhtTrain::Replace},
    {"offset-only", FetchPolicy::Predictor,
     PredictorIndex::OffsetOnly, FhtTrain::Replace},
    {"pc-only", FetchPolicy::Predictor, PredictorIndex::PcOnly,
     FhtTrain::Replace},
    {"pc+offset", FetchPolicy::Predictor,
     PredictorIndex::PcOffset, FhtTrain::Replace},
    {"pc+offset/union", FetchPolicy::Predictor,
     PredictorIndex::PcOffset, FhtTrain::Union},
};

constexpr std::size_t kNumVariants =
    sizeof(kVariants) / sizeof(kVariants[0]);

} // namespace

void
registerAblationPredictor(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "ablation_predictor";
    def.title = "predictor indexing and fetch-policy ablation";

    def.expand = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            for (const Variant &v : kVariants) {
                ExperimentPoint p;
                p.workload = wk;
                p.cfg.design = "footprint";
                p.cfg.capacityMb = 256;
                p.cfg.footprintFetch = v.fetch;
                p.cfg.predictorIndex = v.index;
                p.cfg.fhtTrain = v.train;
                p.cfg.singletonOptimization = false;
                points.push_back(std::move(p));
            }
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nPredictor ablation (256MB): miss ratio %% "
                    "| off-chip bytes/access\n");
        std::printf("  %-16s", "workload");
        for (const Variant &v : kVariants)
            std::printf(" %17s", v.name);
        std::printf("\n");

        for (std::size_t w = 0;
             w * kNumVariants < results.size(); ++w) {
            std::printf(
                "  %-16s",
                workloadName(points[w * kNumVariants].workload));
            for (std::size_t v = 0; v < kNumVariants; ++v) {
                const RunMetrics &m =
                    results[w * kNumVariants + v].metrics;
                std::printf("    %5.1f%% | %5.1fB",
                            100.0 * m.missRatio(),
                            static_cast<double>(m.offchipBytes) /
                                m.demandAccesses);
            }
            std::printf("\n");
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
