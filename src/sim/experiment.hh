/**
 * @file
 * Experiment harness: resolves a design name through the
 * DesignRegistry, wires the DRAM systems and the organization's
 * MemorySystem with the Table 3/4 parameters, builds the pod,
 * runs the trace, and returns the measured metrics.
 */

#ifndef FPC_SIM_EXPERIMENT_HH
#define FPC_SIM_EXPERIMENT_HH

#include <memory>
#include <string>

#include "dram/system.hh"
#include "dramcache/block_cache.hh"
#include "dramcache/design_registry.hh"
#include "dramcache/footprint_cache.hh"
#include "mem/trace.hh"
#include "sim/pod_system.hh"

namespace fpc {

/** One fully-wired experiment instance. */
class Experiment
{
  public:
    /**
     * The design-facing knobs (design name, capacity, page size,
     * predictor options, per-design params) come from the
     * DesignConfig base; the pod and DRAM-study overrides live
     * here.
     */
    struct Config : DesignConfig
    {
        PodConfig pod;

        /** Override stacked channel count (0 = default 4). */
        unsigned stackedChannels = 0;

        /** Halve stacked latencies (Figure 1 study). */
        bool stackedLowLatency = false;

        /** Every field, base and nested structs included: the
         * sweep runner simulates equal configs once. */
        bool operator==(const Config &) const = default;
    };

    /**
     * @throws std::runtime_error when the design name is not in
     * the DesignRegistry.
     */
    Experiment(const Config &config, TraceSource &trace);

    /** Run with the given warmup/measurement windows. */
    RunMetrics run(std::uint64_t warmup_refs,
                   std::uint64_t measure_refs);

    /** The footprint/page cache, when the design has one. */
    FootprintCache *footprintCache()
    {
        return instance_.footprint;
    }

    /** The block cache, when the design is block-based. */
    BlockCache *blockCache() { return instance_.block; }

    DramSystem *stacked() { return stacked_.get(); }
    DramSystem &offchip() { return *offchip_; }
    PodSystem &pod() { return *pod_; }
    MemorySystem &memory() { return *instance_.memory; }
    const Config &config() const { return config_; }

  private:
    Config config_;
    std::unique_ptr<DramSystem> stacked_;
    std::unique_ptr<DramSystem> offchip_;
    DesignInstance instance_;
    std::unique_ptr<PodSystem> pod_;
};

} // namespace fpc

#endif // FPC_SIM_EXPERIMENT_HH
