/**
 * @file
 * Colocation interference matrix: what does sharing the stacked
 * DRAM cache cost each tenant?
 *
 * For three workload pairs and every registered organization, the
 * experiment runs each workload *solo* (alone on its half of the
 * pod — same core share as in the pair, so any delta is cache and
 * bandwidth contention, not core count) and *paired* with its
 * antagonist, then reports the per-tenant hit-ratio, latency and
 * off-chip-traffic deltas. A policy slice repeats the first pair
 * under the static set-partition and footprint-quota policies,
 * across all designs, to show what isolation buys back.
 *
 * Every tenant replays the solo trace identity of its workload
 * through the shared arena; solo and paired points of one
 * workload therefore consume the *same* stream, preserving the
 * paired-comparison property across the matrix.
 */

#include <cstdio>

#include "experiments/experiments.hh"
#include "tenant/colocation.hh"

namespace fpcbench {

namespace {

/** All seven organizations, presentation order. */
const char *kColocationDesigns[] = {"baseline", "block", "page",
                                    "footprint", "ideal",
                                    "alloy",     "banshee"};

/** The interference pairs (workload + antagonist). */
const WorkloadKind kPairs[][2] = {
    {WorkloadKind::WebSearch, WorkloadKind::DataServing},
    {WorkloadKind::WebSearch, WorkloadKind::MapReduce},
    {WorkloadKind::DataServing, WorkloadKind::MapReduce},
};
constexpr std::size_t kNumPairs =
    sizeof(kPairs) / sizeof(kPairs[0]);

/** The solo workloads the pairs draw from, deduplicated. */
const WorkloadKind kSolos[] = {WorkloadKind::WebSearch,
                               WorkloadKind::DataServing,
                               WorkloadKind::MapReduce};

/** Policies of the isolation slice (first pair only). */
const char *kPolicySlice[] = {"setpart", "quota"};

} // namespace

void
registerColocation(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "colocation";
    def.title = "multi-tenant interference matrix: solo vs "
                "paired tenants across designs and policies";

    def.build = [](const SweepOptions &opts) {
        std::vector<ExperimentPoint> points;
        auto add = [&](const std::vector<TenantSpec> &mix,
                       const char *design,
                       const char *policy) {
            ExperimentPoint p = makeColocationPoint(
                mix, design, policy, opts.scale, opts.seed);
            points.push_back(std::move(p));
        };
        for (const char *d : kColocationDesigns) {
            // Solo baselines: one tenant on half the pod.
            for (WorkloadKind wk : kSolos) {
                if (!opts.selects(wk))
                    continue;
                add({{wk, 8, 0.0}}, d, "shared");
            }
            // Pairwise interference, fully shared cache.
            for (std::size_t pr = 0; pr < kNumPairs; ++pr) {
                if (!opts.selects(kPairs[pr][0]) ||
                    !opts.selects(kPairs[pr][1]))
                    continue;
                add({{kPairs[pr][0], 8, 0.0},
                     {kPairs[pr][1], 8, 0.0}},
                    d, "shared");
            }
            // Isolation slice: first pair under each policy.
            for (const char *policy : kPolicySlice) {
                if (!opts.selects(kPairs[0][0]) ||
                    !opts.selects(kPairs[0][1]))
                    continue;
                add({{kPairs[0][0], 8, 0.0},
                     {kPairs[0][1], 8, 0.0}},
                    d, policy);
            }
        }
        return points;
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        // Solo hit ratios / latencies by (workload, design), for
        // the paired-vs-solo deltas.
        struct Solo
        {
            double hit = 0.0, lat = 0.0;
            std::uint64_t offchip = 0;
            bool valid = false;
        };
        auto soloOf =
            [&](const std::string &design,
                WorkloadKind wk) -> Solo {
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (points[i].cfg.design != design)
                    continue;
                const RunMetrics &m = results[i].metrics;
                if (m.tenants.size() != 1 ||
                    points[i].workload != wk)
                    continue;
                const TenantMetrics &tm = m.tenants[0];
                return {tm.hitRatio(),
                        tm.avgAccessLatencyCycles(),
                        tm.offchipBytes, true};
            }
            return {};
        };

        std::printf("\ncolocation interference matrix "
                    "(per-tenant: hit ratio, avg access latency, "
                    "off-chip bytes; deltas vs solo)\n");
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RunMetrics &m = results[i].metrics;
            if (m.tenants.size() < 2)
                continue;
            std::printf("  %s\n", points[i].label.c_str());
            const auto tenants = decodeTenantMix(points[i]);
            for (std::size_t t = 0; t < m.tenants.size(); ++t) {
                const TenantMetrics &tm = m.tenants[t];
                const Solo solo = soloOf(
                    points[i].cfg.design, tenants[t].workload);
                std::printf("    t%zu %-14s hit %6.1f%%",
                            t, workloadName(tenants[t].workload),
                            100.0 * tm.hitRatio());
                if (solo.valid) {
                    std::printf(" (%+5.1f)",
                                100.0 * (tm.hitRatio() -
                                         solo.hit));
                }
                std::printf(" lat %8.1f",
                            tm.avgAccessLatencyCycles());
                if (solo.valid && solo.lat > 0.0) {
                    std::printf(
                        " (%+6.1f%%)",
                        100.0 *
                            (tm.avgAccessLatencyCycles() /
                                 solo.lat -
                             1.0));
                }
                std::printf(" offchip %8.1f MB\n",
                            static_cast<double>(tm.offchipBytes) /
                                (1 << 20));
            }
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
