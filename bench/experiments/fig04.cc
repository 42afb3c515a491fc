/**
 * @file
 * Figure 4: page access density (demanded 64B blocks per 2KB
 * page) as a function of cache capacity, per workload, measured
 * on a page-based cache at eviction/end-of-run.
 *
 * Expected shape (paper): density grows with capacity; scale-out
 * workloads trend bimodal; Multiprogrammed shows no regular
 * trend; singletons are a large share of low-density pages.
 */

#include <cstdio>

#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

/** Figure 4's buckets: 1, 2-3, 4-7, 8-15, 16-31, 32 blocks. */
const char *kBucketNames[] = {"1",    "2-3",   "4-7",
                              "8-15", "16-31", "32"};

unsigned
bucketOf(unsigned density)
{
    if (density <= 1)
        return 0;
    if (density <= 3)
        return 1;
    if (density <= 7)
        return 2;
    if (density <= 15)
        return 3;
    if (density <= 31)
        return 4;
    return 5;
}

} // namespace

void
registerFig04(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig04";
    def.title = "page access density vs capacity";

    // Density is a property of residency, measured on the
    // page-based organization (every block fetched, the demanded
    // vector tracks what cores touch).
    def.expand = [](const SweepOptions &opts) {
        SweepSpec spec;
        spec.workloads = opts.workloads();
        spec.designs = {"page"};
        spec.capacitiesMb = kPaperCapacities;
        return spec.expand();
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        const std::size_t stride = kPaperCapacities.size();
        for (std::size_t w = 0; w * stride < results.size();
             ++w) {
            std::printf("\n%s (fraction of pages by demanded "
                        "blocks)\n",
                        workloadName(points[w * stride].workload));
            std::printf("  %-6s", "size");
            for (const char *b : kBucketNames)
                std::printf(" %7s", b);
            std::printf("\n");

            for (std::size_t c = 0; c < stride; ++c) {
                const PointResult &r = results[w * stride + c];
                double frac[6] = {0, 0, 0, 0, 0, 0};
                double total = 0;
                // Bucket 0 of the histogram is density 0 (pages
                // with no demanded block — bypassed here); fold
                // into "1".
                for (std::size_t d = 0;
                     d < r.densityBuckets.size(); ++d) {
                    const double n = static_cast<double>(
                        r.densityBuckets[d]);
                    if (n == 0)
                        continue;
                    frac[bucketOf(static_cast<unsigned>(d))] += n;
                    total += n;
                }
                std::printf(
                    "  %4lluMB",
                    static_cast<unsigned long long>(
                        points[w * stride + c].cfg.capacityMb));
                for (double f : frac)
                    std::printf(" %6.1f%%",
                                total ? 100.0 * f / total : 0.0);
                std::printf("\n");
            }
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
