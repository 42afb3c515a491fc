/**
 * @file
 * Tables 2, 3 and 4: the configuration tables, regenerated from
 * the implementation. Table 4's tag/MissMap storage is computed
 * from the structures' own storageBits() and printed next to the
 * paper's values. A zero-point experiment: nothing to simulate,
 * the reporter derives everything from the structures.
 */

#include <cstdio>

#include "dram/timing.hh"
#include "dramcache/block_state.hh"
#include "dramcache/fht.hh"
#include "dramcache/missmap.hh"
#include "dramcache/page_tag_array.hh"
#include "dramcache/singleton_table.hh"
#include "experiments/experiments.hh"

namespace fpcbench {

void
registerTable4(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "table4";
    def.title = "configuration tables (2, 3, 4)";

    def.expand = [](const SweepOptions &) {
        return std::vector<ExperimentPoint>{};
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &,
                    const std::vector<PointResult> &) {
        std::printf("\nTable 2: block state encoding\n");
        std::printf("  dirty valid  state\n");
        for (int d = 0; d <= 1; ++d) {
            for (int v = 0; v <= 1; ++v) {
                BlockState s = encodeBlockState(d, v);
                const char *name =
                    s == BlockState::NotPresent
                        ? "not in the cache"
                    : s == BlockState::ValidCleanPredicted
                        ? "valid, clean, not demanded yet"
                    : s == BlockState::ValidCleanDemanded
                        ? "valid, clean, was demanded"
                        : "valid, dirty, was demanded";
                std::printf("    %d     %d    %s\n", d, v, name);
            }
        }

        std::printf("\nTable 3: key architectural parameters\n");
        DramTimingParams off =
            DramTimingParams::ddr3_1600_offchip();
        DramTimingParams stk =
            DramTimingParams::ddr3_3200_stacked();
        std::printf("  off-chip: DDR3-1600, %.1f GB/s/channel, "
                    "%u banks, %uB rows\n",
                    off.peakBandwidthGBps(), off.numBanks,
                    off.rowBytes);
        std::printf("  stacked : DDR3-3200, %.1f GB/s/channel "
                    "x4, %u banks, %uB rows\n",
                    stk.peakBandwidthGBps(), stk.numBanks,
                    stk.rowBytes);
        std::printf("  stacked tCAS-tRCD-tRP-tRAS (CPU cycles): "
                    "%llu-%llu-%llu-%llu\n",
                    (unsigned long long)stk.tCAS,
                    (unsigned long long)stk.tRCD,
                    (unsigned long long)stk.tRP,
                    (unsigned long long)stk.tRAS);

        std::printf("\nTable 4: metadata storage and latency "
                    "(computed vs paper)\n");
        std::printf("  %-6s | %-22s | %-22s | %-22s\n", "size",
                    "footprint tags", "page tags", "missmap");
        const double paper_fp[] = {0.40, 0.80, 1.58, 3.12};
        const double paper_pg[] = {0.22, 0.44, 0.86, 1.69};
        const double paper_mm[] = {1.95, 1.95, 1.95, 2.92};
        const std::uint64_t sizes[] = {64, 128, 256, 512};
        for (int i = 0; i < 4; ++i) {
            PageTagArray::Config cfg;
            cfg.capacityBytes = sizes[i] << 20;
            PageTagArray tags(cfg);
            const double fp = tags.storageBits(40, true, true) /
                              8.0 / (1 << 20);
            const double pg =
                tags.storageBits(40, false, false) / 8.0 /
                (1 << 20);
            MissMap mm(missMapConfig(sizes[i]));
            const double mmb =
                mm.storageBits(40) / 8.0 / (1 << 20);
            std::printf(
                "  %4lluMB | %.2fMB/%llucyc (%.2f) | "
                "%.2fMB/%llucyc (%.2f) | %.2fMB/%llucyc "
                "(%.2f)\n",
                (unsigned long long)sizes[i], fp,
                (unsigned long long)tagLatencyCycles(
                    "footprint", sizes[i]),
                paper_fp[i], pg,
                (unsigned long long)tagLatencyCycles(
                    "page", sizes[i]),
                paper_pg[i], mmb,
                (unsigned long long)missMapLatencyCycles(
                    sizes[i]),
                paper_mm[i]);
        }

        FootprintHistoryTable::Config fht_cfg;
        FootprintHistoryTable fht(fht_cfg);
        SingletonTable::Config st_cfg;
        SingletonTable st(st_cfg);
        std::printf(
            "\n  FHT: 16K entries = %.0fKB (paper: 144KB); "
            "ST: 512 entries = %.1fKB (paper: ~3KB)\n",
            fht.storageBits(32) / 8.0 / 1024,
            st.storageBits(40) / 8.0 / 1024);
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
