/**
 * @file
 * Colocation quickstart: co-schedule two workloads on one pod —
 * Web Search on cores 0-7, Data Serving on cores 8-15 — sharing
 * a 256MB Footprint Cache, and print what the contention costs
 * each tenant. Run it once fully shared and once with a static
 * set partition to see what isolation buys back.
 *
 * Usage: colocation [design] [policy] [scale]
 *   design  any DesignRegistry name   (default footprint)
 *   policy  shared | setpart | quota  (default shared)
 *   scale   run-window scale          (default 0.25)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "tenant/colocation.hh"
#include "workload/spec.hh"

int
main(int argc, char **argv)
{
    using namespace fpc;

    const std::string design = argc > 1 ? argv[1] : "footprint";
    const std::string policy = argc > 2 ? argv[2] : "shared";
    const double scale = argc > 3 ? std::atof(argv[3]) : 0.25;

    // 1. Describe the mix: two tenants, eight cores each. Under
    //    setpart and quota each tenant gets half of the cache.
    const std::vector<TenantSpec> tenants = {
        {WorkloadKind::WebSearch, 8},
        {WorkloadKind::DataServing, 8},
    };

    // 2. Build the colocation point (the mix and the policy ride
    //    in the DesignParams bag, so any registered design can
    //    honor them) and run it: warmup from the mix's
    //    artifact, then measurement.
    ExperimentPoint point = makeColocationPoint(
        tenants, design, policy, scale, /*seed=*/42);
    const PointResult result = runColocationPoint(point);

    // 3. Report the per-tenant slices next to the aggregate.
    const RunMetrics &m = result.metrics;
    std::printf("mix        : %s\n", point.label.c_str());
    std::printf("aggregate  : IPC %.3f, hit ratio %.1f%%, "
                "off-chip %.1f MB\n",
                m.ipc(), 100.0 * (1.0 - m.missRatio()),
                m.offchipBytes / 1048576.0);
    for (std::size_t t = 0; t < m.tenants.size(); ++t) {
        const TenantMetrics &tm = m.tenants[t];
        std::printf(
            "tenant %zu   : %-12s hit %5.1f%%  avg lat %7.1f "
            "cyc  off-chip %6.1f MB  (%llu accesses)\n",
            t, workloadName(tenants[t].workload),
            100.0 * tm.hitRatio(), tm.avgAccessLatencyCycles(),
            tm.offchipBytes / 1048576.0,
            static_cast<unsigned long long>(tm.demandAccesses));
    }
    return 0;
}
