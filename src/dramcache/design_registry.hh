/**
 * @file
 * Design registry: the open organization layer of the simulator.
 *
 * Every memory-system organization — the paper's five plus any
 * competitor design — self-registers under a string key with a
 * factory that wires its MemorySystem, tag/metadata structures and
 * Table-4-style latency parameters, plus the stacked-DRAM
 * organization it needs (row-buffer policy, interleaving). The
 * experiment harness, the sweep axes and the figure benches all
 * refer to designs by name, so a new organization dropped into
 * src/dramcache/ shows up in every existing grid without touching
 * the harness (mirroring ExperimentRegistry for figures/tables).
 */

#ifndef FPC_DRAMCACHE_DESIGN_REGISTRY_HH
#define FPC_DRAMCACHE_DESIGN_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dram/system.hh"
#include "dramcache/footprint_cache.hh"
#include "dramcache/interface.hh"
#include "dramcache/missmap.hh"

namespace fpc {

/**
 * Per-design parameter bag: ordered string key/value pairs with
 * typed getters. The tenant mix and partition policy (tenant.*,
 * see partition.hh) ride here so the shared DesignConfig stays
 * free of them; the entries also suffix the sweep point label,
 * keeping labels unique across parameter variants. Keys are kept sorted so two
 * bags with the same contents render identically.
 */
class DesignParams
{
  public:
    /** Set @p key to @p value (inserted sorted; overwrites). */
    void set(const std::string &key, const std::string &value);

    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;

    bool empty() const { return kv_.empty(); }

    bool operator==(const DesignParams &) const = default;

    /** All entries, sorted by key. */
    const std::vector<std::pair<std::string, std::string>> &
    entries() const
    {
        return kv_;
    }

  private:
    const std::string *find(const std::string &key) const;

    std::vector<std::pair<std::string, std::string>> kv_;
};

/**
 * Design-facing slice of an experiment configuration: everything
 * a factory needs to size and wire one organization. The paper's
 * cross-design knobs (capacity, page size, predictor options)
 * stay typed because the figure grids sweep them; the tenant
 * mix and partition policy ride in the params bag.
 */
struct DesignConfig
{
    /** Registry key of the organization ("footprint", ...). */
    std::string design = "footprint";

    std::uint64_t capacityMb = 256;
    unsigned pageBytes = 2048;
    std::uint32_t fhtEntries = 16 * 1024;
    bool singletonOptimization = true;
    PredictorIndex predictorIndex = PredictorIndex::PcOffset;
    FhtTrain fhtTrain = FhtTrain::Replace;
    FetchPolicy footprintFetch = FetchPolicy::Predictor;

    /** Per-design parameter bag ("tenant.policy", ...). */
    DesignParams params;

    std::uint64_t capacityBytes() const { return capacityMb << 20; }

    bool operator==(const DesignConfig &) const = default;
};

/**
 * A built organization: the owned MemorySystem plus an optional
 * typed view for harness code that reads design-specific detail
 * (footprint accuracy stats).
 */
struct DesignInstance
{
    std::unique_ptr<MemorySystem> memory;

    /** Non-owning view; set when the design is footprint/page. */
    FootprintCache *footprint = nullptr;
};

/** One registered organization. */
struct DesignDef
{
    /** Registry key ("baseline", "footprint", "alloy", ...). */
    std::string name;

    /** One-line summary, echoed by listings and docs. */
    std::string title;

    /**
     * False for organizations without a die-stacked DRAM (the
     * 2D baseline); the harness then skips building one and
     * shrinks capacity-scaled warmup windows.
     */
    bool usesStackedDram = true;

    /**
     * Adjust the stacked-DRAM configuration before construction
     * (row-buffer policy, interleave granularity). Called with
     * the page-interleaved open-page default; may be null.
     */
    std::function<void(const DesignConfig &,
                       DramSystem::Config &)>
        configureStacked;

    /**
     * Build the wired organization. @p stacked is null iff
     * usesStackedDram is false.
     */
    std::function<DesignInstance(const DesignConfig &,
                                 DramSystem *stacked,
                                 DramSystem &offchip)>
        build;
};

/**
 * Name → DesignDef, preserving registration order for listings.
 * Instantiable so tests can build private registries; the
 * process-wide instance() comes pre-populated with every built-in
 * organization (registerAllDesigns).
 */
class DesignRegistry
{
  public:
    DesignRegistry() = default;

    /** The process-wide registry (built-ins registered). */
    static DesignRegistry &instance();

    /** Add an entry; throws std::runtime_error on a duplicate. */
    void add(DesignDef def);

    /** Entry by name; nullptr when absent. */
    const DesignDef *find(const std::string &name) const;

    /**
     * Entry by name; throws std::runtime_error naming the known
     * designs when absent.
     */
    const DesignDef &at(const std::string &name) const;

    /** All names, in registration order. */
    std::vector<std::string> names() const;

    const std::vector<DesignDef> &all() const { return defs_; }

    bool empty() const { return defs_.empty(); }

  private:
    std::vector<DesignDef> defs_;
};

/** The paper's five organizations (§5.2, §6.3). */
void registerPaperDesigns(DesignRegistry &reg);

/** Alloy-style direct-mapped TAD cache (alloy_cache.cc). */
void registerAlloyDesign(DesignRegistry &reg);

/** Banshee-style bandwidth-aware cache (banshee_cache.cc). */
void registerBansheeDesign(DesignRegistry &reg);

/** Every built-in organization, in presentation order. */
void registerAllDesigns(DesignRegistry &reg);

/** Table 4 lookup: SRAM tag latency for page-organized designs. */
Cycle tagLatencyCycles(const std::string &design,
                       std::uint64_t capacity_mb);

/** Table 4 lookup: MissMap parameters per capacity. */
MissMap::Config missMapConfig(std::uint64_t capacity_mb);

/** Table 4 lookup: MissMap access latency. */
Cycle missMapLatencyCycles(std::uint64_t capacity_mb);

} // namespace fpc

#endif // FPC_DRAMCACHE_DESIGN_REGISTRY_HH
