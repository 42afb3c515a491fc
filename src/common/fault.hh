/**
 * @file
 * Deterministic fault injection for the sweep resilience layer.
 *
 * Multi-hour sweeps on shared runners die to transient causes —
 * allocation pressure during a trace build, a flaky filesystem, a
 * wedged point — and every recovery path the runner grows for them
 * (retry with backoff, checkpoint/resume, deadline cancellation,
 * structured failure records) is code that production accidents
 * would otherwise be the first to execute. The FaultInjector makes
 * those paths testable: a plan of rules keyed by *site* (a named
 * hook such as "trace-build" or "point") and key substring injects
 * failures deterministically, so tests and the CI fault-smoke job
 * exercise exactly the same code a dying runner would.
 *
 * Determinism: a rule's percentage gate hashes (site, key, seed) —
 * never thread schedule or wall clock — and transient rules count
 * attempts per key, so the same plan over the same sweep fails the
 * same builds in the same order regardless of --jobs.
 *
 * Zero cost when disabled: every hook is guarded by one relaxed
 * atomic load (FaultInjector::active()), and hooks live only at
 * cold sites (per point, per artifact build, per file write) —
 * never inside the per-record simulation loops.
 */

#ifndef FPC_COMMON_FAULT_HH
#define FPC_COMMON_FAULT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace fpc {

/**
 * A failure worth retrying: the cause is expected to clear on a
 * later attempt (allocation pressure, transient file-IO trouble,
 * an injected transient fault). The sweep runner retries these
 * with exponential backoff; any other exception is terminal for
 * the point.
 */
class TransientError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Thrown at a cooperative cancellation check once the point's
 * attempt deadline has passed. Terminal: retrying a point that
 * already burned its deadline would just burn another.
 */
class PointCancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Process-wide fault plan (see file comment).
 *
 * Plan grammar — entries separated by ';' or ',':
 *
 *   site[@keysub[%pct]]:kind[:times[:skip]]
 *
 *   site    hook name ("point", "point-done", "trace-build",
 *           "warmup-build", "warmup-restore", "report-write",
 *           "journal-write")
 *   keysub  substring the hook key must contain (empty = any)
 *   pct     deterministic per-key percentage gate (default 100)
 *   kind    transient | permanent | crash (default transient)
 *   times   failures injected per key (transient; default 1)
 *   skip    matches to let pass before acting (crash-after-N)
 *
 * Examples:
 *   trace-build@WebSearch:transient:1   every WebSearch arena
 *       build fails once, then succeeds on retry
 *   point@fig06/Media:permanent         those points always fail
 *   point-done:crash:1:3                _Exit(3) when the 4th
 *       point completes (kill-mid-run tests)
 */
class FaultInjector
{
  public:
    enum class Kind { Transient, Permanent, Crash };

    static FaultInjector &instance();

    /**
     * Install @p plan (replacing any previous one) and activate
     * the hooks. Empty plan deactivates. Returns false and prints
     * to stderr on a parse error, leaving the injector inactive.
     */
    bool configure(const std::string &plan,
                   std::uint64_t seed = 0);

    /** Deactivate and forget the plan and all per-key state. */
    void reset();

    /** True when a non-empty plan is installed (hook guard). */
    static bool
    active()
    {
        return active_.load(std::memory_order_relaxed);
    }

    /**
     * The hook body: throws TransientError / std::runtime_error
     * (or terminates via _Exit(3) for crash rules) when a rule
     * matches @p site and @p key. Call through faultPoint().
     */
    void check(const char *site, const std::string &key);

    /** Process exit code of an injected crash. */
    static constexpr int kCrashExitCode = 3;

  private:
    struct Rule
    {
        std::string site;
        std::string keySub;
        Kind kind = Kind::Transient;
        unsigned times = 1;
        unsigned skip = 0;
        unsigned pct = 100;
    };

    FaultInjector() = default;

    static std::atomic<bool> active_;

    std::mutex mutex_;
    std::vector<Rule> rules_;
    std::uint64_t seed_ = 0;

    /** Matches seen per (rule index, key). */
    std::unordered_map<std::string, unsigned> seen_;
};

/** Fault hook: zero-cost unless a plan is active. */
inline void
faultPoint(const char *site, const std::string &key)
{
    if (FaultInjector::active())
        FaultInjector::instance().check(site, key);
}

/**
 * Wall-clock limit of one attempt at a point. kNoDeadline (the
 * clock's maximum) means the attempt may run forever.
 */
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/**
 * Cooperative cancellation check for the simulation loops: cheap
 * enough for batch boundaries (one predicted compare when no
 * deadline is set, one clock read when one is), throws once
 * @p deadline has passed.
 */
inline void
throwIfCancelled(Deadline deadline)
{
    if (deadline != kNoDeadline &&
        std::chrono::steady_clock::now() >= deadline)
        throw PointCancelledError("point deadline exceeded");
}

} // namespace fpc

#endif // FPC_COMMON_FAULT_HH
