/**
 * @file
 * Wall-clock helper shared by the sweep's phase timers, the
 * sampled run's split and the engine perf harness.
 */

#ifndef FPC_COMMON_WALL_CLOCK_HH
#define FPC_COMMON_WALL_CLOCK_HH

#include <chrono>

namespace fpc {

/** Wall seconds elapsed since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace fpc

#endif // FPC_COMMON_WALL_CLOCK_HH
