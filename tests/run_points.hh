/**
 * @file
 * Test helper: run a batch through SweepRunner::runResilient with
 * default options (no retries, no journal, no deadline) and fail
 * the calling test, naming the point key and error, for every
 * point that did not complete.
 */

#ifndef FPC_TESTS_RUN_POINTS_HH
#define FPC_TESTS_RUN_POINTS_HH

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace fpc {

/** Result i corresponds to points[i]; @p cache, when given,
 * receives the run's trace-cache counters. */
inline std::vector<PointResult>
runPoints(const SweepRunner &runner,
          const std::vector<ExperimentPoint> &points,
          TraceCacheStats *cache = nullptr)
{
    SweepOutcome out =
        runner.runResilient(points, ResilienceOptions{});
    if (cache)
        *cache = out.cache;
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_FALSE(out.results[i].failed)
            << "sweep point " << points[i].key()
            << " failed: " << out.results[i].error;
    }
    return std::move(out.results);
}

} // namespace fpc

#endif // FPC_TESTS_RUN_POINTS_HH
