/** @file Design registry and the paper's five organizations. */

#include "dramcache/design_registry.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "dramcache/block_cache.hh"
#include "dramcache/simple_memories.hh"
#include "tenant/partition.hh"

namespace fpc {

void
DesignParams::set(const std::string &key, const std::string &value)
{
    auto it = std::lower_bound(
        kv_.begin(), kv_.end(), key,
        [](const auto &kv, const std::string &k) {
            return kv.first < k;
        });
    if (it != kv_.end() && it->first == key)
        it->second = value;
    else
        kv_.insert(it, {key, value});
}

const std::string *
DesignParams::find(const std::string &key) const
{
    auto it = std::lower_bound(
        kv_.begin(), kv_.end(), key,
        [](const auto &kv, const std::string &k) {
            return kv.first < k;
        });
    if (it != kv_.end() && it->first == key)
        return &it->second;
    return nullptr;
}

std::string
DesignParams::getString(const std::string &key,
                        const std::string &fallback) const
{
    const std::string *v = find(key);
    return v ? *v : fallback;
}

std::uint64_t
DesignParams::getU64(const std::string &key,
                     std::uint64_t fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    char *end = nullptr;
    const std::uint64_t parsed =
        std::strtoull(v->c_str(), &end, 0);
    // Reject partial parses ("64K") and non-numbers ("four"):
    // a silently-wrong structure size is worse than no knob.
    if (v->empty() || end != v->c_str() + v->size())
        throw std::runtime_error("design param '" + key +
                                 "' is not an integer: " + *v);
    return parsed;
}

DesignRegistry &
DesignRegistry::instance()
{
    static DesignRegistry registry = [] {
        DesignRegistry reg;
        registerAllDesigns(reg);
        return reg;
    }();
    return registry;
}

void
DesignRegistry::add(DesignDef def)
{
    if (find(def.name))
        throw std::runtime_error("duplicate design: " + def.name);
    defs_.push_back(std::move(def));
}

const DesignDef *
DesignRegistry::find(const std::string &name) const
{
    for (const DesignDef &def : defs_) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

const DesignDef &
DesignRegistry::at(const std::string &name) const
{
    if (const DesignDef *def = find(name))
        return *def;
    std::string known;
    for (const DesignDef &def : defs_) {
        if (!known.empty())
            known += ", ";
        known += def.name;
    }
    throw std::runtime_error("unknown design '" + name +
                             "' (known: " + known + ")");
}

std::vector<std::string>
DesignRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(defs_.size());
    for (const DesignDef &def : defs_)
        out.push_back(def.name);
    return out;
}

Cycle
tagLatencyCycles(const std::string &design,
                 std::uint64_t capacity_mb)
{
    // Table 4. Unlisted capacities interpolate conservatively.
    if (design == "footprint") {
        if (capacity_mb <= 64)
            return 4;
        if (capacity_mb <= 128)
            return 6;
        if (capacity_mb <= 256)
            return 9;
        return 11;
    }
    if (design == "page") {
        if (capacity_mb <= 64)
            return 4;
        if (capacity_mb <= 128)
            return 5;
        if (capacity_mb <= 256)
            return 6;
        return 9;
    }
    return 0;
}

MissMap::Config
missMapConfig(std::uint64_t capacity_mb)
{
    MissMap::Config cfg;
    if (capacity_mb >= 512) {
        // §5.2: MissMap grown by 50% for 512MB caches.
        cfg.entries = 288 * 1024;
        cfg.assoc = 36;
    } else {
        cfg.entries = 192 * 1024;
        cfg.assoc = 24;
    }
    return cfg;
}

Cycle
missMapLatencyCycles(std::uint64_t capacity_mb)
{
    return capacity_mb >= 512 ? 11 : 9;
}

namespace {

/** Page/footprint factory, parameterized by the fetch policy. */
DesignInstance
buildPageOrganized(const DesignConfig &cfg, DramSystem *stacked,
                   DramSystem &offchip, bool footprint)
{
    FootprintCache::Config fc;
    fc.tags.capacityBytes = cfg.capacityBytes();
    fc.tags.pageBytes = cfg.pageBytes;
    fc.tags.tenants = TenantPartitionParams::fromParams(cfg.params);
    fc.fht.entries = cfg.fhtEntries;
    fc.fht.index = cfg.predictorIndex;
    fc.fht.train = cfg.fhtTrain;
    fc.tagLatencyCycles =
        tagLatencyCycles(cfg.design, cfg.capacityMb);
    if (footprint) {
        fc.fetch = cfg.footprintFetch;
        fc.singletonOptimization = cfg.singletonOptimization;
        fc.name = "footprint";
    } else {
        fc.fetch = FetchPolicy::FullPage;
        fc.singletonOptimization = false;
        fc.name = "page";
    }
    DesignInstance inst;
    auto cache =
        std::make_unique<FootprintCache>(fc, *stacked, offchip);
    inst.footprint = cache.get();
    inst.memory = std::move(cache);
    return inst;
}

} // namespace

void
registerPaperDesigns(DesignRegistry &reg)
{
    {
        DesignDef def;
        def.name = "baseline";
        def.title = "2D baseline: off-chip DRAM only, no cache";
        def.usesStackedDram = false;
        def.build = [](const DesignConfig &, DramSystem *,
                       DramSystem &offchip) {
            DesignInstance inst;
            inst.memory = std::make_unique<NoCacheMemory>(offchip);
            return inst;
        };
        reg.add(std::move(def));
    }
    {
        DesignDef def;
        def.name = "block";
        def.title = "Loh-Hill block cache: tags-in-DRAM rows, "
                    "MissMap miss filter";
        // §5.2: close-page policy and 64B channel interleaving
        // (sets scatter across rows).
        def.configureStacked = [](const DesignConfig &,
                                  DramSystem::Config &stk) {
            stk.timing.policy = PagePolicy::Closed;
            stk.interleaveBytes = kBlockBytes;
        };
        def.build = [](const DesignConfig &cfg,
                       DramSystem *stacked, DramSystem &offchip) {
            BlockCache::Config bc;
            bc.capacityBytes = cfg.capacityBytes();
            bc.missMap = missMapConfig(cfg.capacityMb);
            bc.missMapLatencyCycles =
                missMapLatencyCycles(cfg.capacityMb);
            bc.tenants =
                TenantPartitionParams::fromParams(cfg.params);
            DesignInstance inst;
            inst.memory = std::make_unique<BlockCache>(
                bc, *stacked, offchip);
            return inst;
        };
        reg.add(std::move(def));
    }
    {
        DesignDef def;
        def.name = "page";
        def.title = "page-based cache: SRAM page tags, whole-page "
                    "fills";
        def.build = [](const DesignConfig &cfg,
                       DramSystem *stacked, DramSystem &offchip) {
            return buildPageOrganized(cfg, stacked, offchip,
                                      false);
        };
        reg.add(std::move(def));
    }
    {
        DesignDef def;
        def.name = "footprint";
        def.title = "Footprint Cache: page frames, predicted-"
                    "footprint fills, singleton bypass";
        def.build = [](const DesignConfig &cfg,
                       DramSystem *stacked, DramSystem &offchip) {
            return buildPageOrganized(cfg, stacked, offchip,
                                      true);
        };
        reg.add(std::move(def));
    }
    {
        DesignDef def;
        def.name = "ideal";
        def.title = "ideal die-stacked main memory: never misses, "
                    "no tag overheads";
        def.build = [](const DesignConfig &cfg,
                       DramSystem *stacked, DramSystem &offchip) {
            (void)offchip;
            DesignInstance inst;
            inst.memory = std::make_unique<IdealCache>(
                *stacked, cfg.capacityBytes());
            return inst;
        };
        reg.add(std::move(def));
    }
}

void
registerAllDesigns(DesignRegistry &reg)
{
    registerPaperDesigns(reg);
    registerAlloyDesign(reg);
    registerBansheeDesign(reg);
}

} // namespace fpc
