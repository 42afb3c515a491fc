/**
 * @file
 * Experiment registry: every figure/table/ablation target declares
 * itself as a named entry — a builder that expands the experiment
 * into ExperimentPoints and a reporter that renders the collected
 * results as the paper-shaped table. The `sweep` CLI and the tests
 * drive entries through the same SweepRunner; nothing about a
 * point's seed or result depends on registration order
 * (tests/test_sweep.cc).
 */

#ifndef FPC_SIM_REGISTRY_HH
#define FPC_SIM_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace fpc {

/** One registered experiment. */
struct ExperimentDef
{
    /** Registry key ("fig06", "table1", "ablation_capacity"). */
    std::string name;

    /** One-line human title, echoed in reports. */
    std::string title;

    /** Expand the experiment into points for these options. */
    std::function<std::vector<ExperimentPoint>(
        const SweepOptions &)>
        build;

    /**
     * Print the paper-shaped table. Results are positional:
     * results[i] belongs to points[i], in the order build()
     * emitted them.
     */
    std::function<void(const SweepOptions &,
                       const std::vector<ExperimentPoint> &,
                       const std::vector<PointResult> &)>
        report;
};

/**
 * Name → ExperimentDef, preserving registration order for
 * listings. Instantiable so tests can build registries with
 * arbitrary orderings; the process-wide instance() is what the
 * CLIs populate via registerAllExperiments().
 */
class ExperimentRegistry
{
  public:
    ExperimentRegistry() = default;

    /** The process-wide registry. */
    static ExperimentRegistry &instance();

    /** Add an entry; throws on a duplicate name. */
    void add(ExperimentDef def);

    /** Entry by name; nullptr when absent. */
    const ExperimentDef *find(const std::string &name) const;

    /** All names, in registration order. */
    std::vector<std::string> names() const;

    const std::vector<ExperimentDef> &all() const
    {
        return defs_;
    }

    bool empty() const { return defs_.empty(); }

  private:
    std::vector<ExperimentDef> defs_;
};

} // namespace fpc

#endif // FPC_SIM_REGISTRY_HH
