/**
 * @file
 * Table 1 (measured version): block-based vs page-based vs
 * Footprint on the qualitative axes of the paper, backed by
 * numbers from one 256MB Web Search run: SRAM metadata storage,
 * hit ratio, and off-chip/stacked traffic per access.
 */

#include <cstdio>

#include "dramcache/missmap.hh"
#include "dramcache/page_tag_array.hh"
#include "experiments/experiments.hh"

namespace fpcbench {

void
registerTable1(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "table1";
    def.title = "design comparison at 256MB (Web Search)";

    def.expand = [](const SweepOptions &) {
        SweepSpec spec;
        spec.workloads = {WorkloadKind::WebSearch};
        spec.designs = {"block", "page",
                        "footprint"};
        spec.capacitiesMb = {256};
        return spec.expand();
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &,
                    const std::vector<PointResult> &results) {
        // SRAM storage (Table 4 formulas).
        PageTagArray::Config tcfg;
        tcfg.capacityBytes = 256ULL << 20;
        PageTagArray tags(tcfg);
        const double fp_mb = tags.storageBits(40, true, true) /
                             (8.0 * 1024 * 1024);
        const double pg_mb = tags.storageBits(40, false, false) /
                             (8.0 * 1024 * 1024);
        MissMap mm(missMapConfig(256));
        const double mm_mb =
            mm.storageBits(40) / (8.0 * 1024 * 1024);

        std::printf("\nTable 1 (measured, 256MB, Web Search)\n");
        std::printf("  %-28s %10s %10s %10s\n", "property",
                    "block", "page", "fprint");
        std::printf("  %-28s %9.2fM %9.2fM %9.2fM\n",
                    "SRAM metadata (MB)", mm_mb, pg_mb, fp_mb);
        std::printf(
            "  %-28s %9.1f%% %9.1f%% %9.1f%%\n", "hit ratio",
            100.0 * (1 - results[0].metrics.missRatio()),
            100.0 * (1 - results[1].metrics.missRatio()),
            100.0 * (1 - results[2].metrics.missRatio()));
        auto traffic = [](const PointResult &r) {
            return static_cast<double>(r.metrics.offchipBytes) /
                   r.metrics.demandAccesses;
        };
        std::printf("  %-28s %9.1fB %9.1fB %9.1fB\n",
                    "off-chip bytes per access",
                    traffic(results[0]), traffic(results[1]),
                    traffic(results[2]));
        auto stacked_traffic = [](const PointResult &r) {
            return static_cast<double>(r.metrics.stackedBytes) /
                   r.metrics.demandAccesses;
        };
        std::printf("  %-28s %9.1fB %9.1fB %9.1fB\n",
                    "stacked bytes per access",
                    stacked_traffic(results[0]),
                    stacked_traffic(results[1]),
                    stacked_traffic(results[2]));
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
