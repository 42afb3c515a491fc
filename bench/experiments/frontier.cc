/**
 * @file
 * Cross-design frontier: the paper's three-way trade-off — hit
 * ratio, access latency, off-chip bandwidth — measured for all
 * seven registered organizations (the paper's five plus the
 * Alloy-style and Banshee-style competitors) on paired points:
 * every design at one capacity replays the *same* trace per
 * workload, so differences are design, not workload noise.
 *
 * Expected shape: alloy has the lowest average hit latency but
 * the worst cache hit ratio (direct-mapped, block-granular);
 * banshee has the lowest off-chip fill traffic but pays latency
 * on tag-buffer misses; footprint sits near the ideal corner on
 * all three axes — the paper's "have it all" claim.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

/** The five paper organizations plus the two competitors. */
const char *kFrontierDesigns[] = {"baseline", "block",  "page",
                                  "footprint", "ideal", "alloy",
                                  "banshee"};
constexpr std::size_t kNumFrontierDesigns =
    sizeof(kFrontierDesigns) / sizeof(kFrontierDesigns[0]);

/**
 * Standard point run plus the frontier's three axes as named
 * extras, so they land verbatim in the merged JSON.
 */
PointResult
runFrontierPoint(const ExperimentPoint &point)
{
    ExperimentPoint p = point;
    p.custom = nullptr;
    PointResult r = runPoint(p);
    const RunMetrics &m = r.metrics;
    r.extra.emplace_back("hit_ratio", 1.0 - m.missRatio());
    r.extra.emplace_back("avg_access_latency_cycles",
                         m.avgAccessLatencyCycles());
    r.extra.emplace_back("offchip_gbps",
                         m.offchipBandwidthGBps());
    r.extra.emplace_back(
        "offchip_bytes_per_instr",
        m.instructions
            ? static_cast<double>(m.offchipBytes) / m.instructions
            : 0.0);
    return r;
}

} // namespace

void
registerFrontier(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "frontier";
    def.title = "hit ratio / latency / bandwidth frontier across "
                "all designs";

    // Per workload: all seven designs at the default 256MB and
    // page size, same trace (the seed derives from workload and
    // page size only).
    def.expand = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        for (WorkloadKind wk : opts.workloads()) {
            for (const char *d : kFrontierDesigns) {
                ExperimentPoint p;
                p.workload = wk;
                p.cfg.design = d;
                p.custom = runFrontierPoint;
                points.push_back(std::move(p));
            }
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        const std::size_t stride = kNumFrontierDesigns;
        for (std::size_t w = 0; w * stride < results.size();
             ++w) {
            const std::size_t o = w * stride;
            const double base_ipc = results[o].metrics.ipc();
            std::printf("\n%s (frontier, 256MB: hit ratio / avg "
                        "access latency / off-chip traffic)\n",
                        workloadName(points[o].workload));
            std::printf("  %-10s %8s %10s %9s %8s %10s\n",
                        "design", "hit%", "lat(cyc)", "offGB/s",
                        "IPC", "vs base");
            for (std::size_t d = 0; d < stride; ++d) {
                const RunMetrics &m = results[o + d].metrics;
                std::printf(
                    "  %-10s %7.1f%% %10.1f %9.2f %8.3f",
                    points[o + d].cfg.design.c_str(),
                    100.0 * (1.0 - m.missRatio()),
                    m.avgAccessLatencyCycles(),
                    m.offchipBandwidthGBps(), m.ipc());
                if (d > 0 && base_ipc > 0.0) {
                    std::printf(" %+9.1f%%",
                                100.0 * (m.ipc() / base_ipc -
                                         1.0));
                }
                std::printf("\n");
            }
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
