/** @file Colocation harness (see colocation.hh). */

#include "tenant/colocation.hh"

#include <optional>
#include <stdexcept>

#include "common/logging.hh"
#include "mem/materialized_trace.hh"
#include "tenant/mix_source.hh"

namespace fpc {

void
encodeTenantMix(Experiment::Config &cfg,
                const std::vector<TenantSpec> &tenants,
                const std::string &policy)
{
    FPC_ASSERT(!tenants.empty());
    cfg.params.set("tenant.count",
                   std::to_string(tenants.size()));
    cfg.params.set("tenant.policy", policy);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const std::string idx = std::to_string(t);
        cfg.params.set("tenant.wl" + idx,
                       workloadName(tenants[t].workload));
        cfg.params.set("tenant.cores" + idx,
                       std::to_string(tenants[t].cores));
        if (tenants[t].cacheQuota > 0.0) {
            cfg.params.set("tenant.quota" + idx,
                           std::to_string(
                               tenants[t].cacheQuota));
        }
    }
}

std::vector<TenantSpec>
decodeTenantMix(const ExperimentPoint &point)
{
    const DesignParams &params = point.cfg.params;
    const std::uint64_t count = params.getU64("tenant.count", 0);
    if (count == 0) {
        throw std::runtime_error(
            "colocation point without tenant.count: " +
            point.key());
    }
    std::vector<TenantSpec> tenants;
    for (std::uint64_t t = 0; t < count; ++t) {
        const std::string idx = std::to_string(t);
        TenantSpec spec;
        const std::string wl =
            params.getString("tenant.wl" + idx, "");
        if (!workloadFromName(wl, spec.workload)) {
            throw std::runtime_error(
                "bad tenant.wl" + idx + " '" + wl +
                "' in point " + point.key());
        }
        spec.cores = static_cast<unsigned>(
            params.getU64("tenant.cores" + idx, 0));
        if (spec.cores == 0) {
            throw std::runtime_error("bad tenant.cores" + idx +
                                     " in point " + point.key());
        }
        spec.cacheQuota =
            params.getDouble("tenant.quota" + idx, 0.0);
        tenants.push_back(spec);
    }
    return tenants;
}

std::string
mixIdentity(const ExperimentPoint &point)
{
    std::string id = "mix";
    for (const TenantSpec &t : decodeTenantMix(point)) {
        id.append(":").append(traceIdentityKey(
            t.workload, point.cfg.pageBytes, point.baseSeed));
        id.append("@").append(std::to_string(t.cores));
    }
    return id;
}

ExperimentPoint
makeColocationPoint(const std::vector<TenantSpec> &tenants,
                    const std::string &design,
                    const std::string &policy, double scale,
                    std::uint64_t base_seed)
{
    ExperimentPoint p;
    p.experiment = "colocation";
    // The point's primary workload is tenant 0's: its identity
    // drives the default trace plan and the per-point JSON
    // workload field; the other tenants ride in extraTraceNeeds.
    p.workload = tenants.front().workload;
    p.cfg.design = design;
    p.scale = scale;
    p.baseSeed = base_seed;
    encodeTenantMix(p.cfg, tenants, policy);
    p.custom = runColocationPoint;
    p.inBandWarmup = true;

    std::string mix_name;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (t)
            mix_name += "+";
        mix_name += workloadName(tenants[t].workload);
    }
    p.label = mix_name + "/" + design + "/" +
              std::to_string(p.cfg.capacityMb) + "MB/" +
              std::to_string(p.cfg.pageBytes) + "B/" + policy;
    if (tenants.size() == 1)
        p.label += "/solo";

    const std::uint64_t per_tenant = p.standardRecords();
    for (std::size_t t = 1; t < tenants.size(); ++t) {
        p.extraTraceNeeds.emplace_back(
            traceArenaKey(tenants[t].workload, p.cfg.pageBytes,
                          p.baseSeed),
            per_tenant);
    }
    const std::uint64_t warm = p.warmupWindow();
    p.extraTraceNeeds.emplace_back(
        warmupArtifactKey(mixIdentity(p), warm, p.cfg.pod), warm);
    return p;
}

PointResult
runColocationPoint(const ExperimentPoint &point)
{
    PointResult out;
    const std::vector<TenantSpec> tenants =
        decodeTenantMix(point);
    const std::uint64_t warm = point.warmupWindow();
    const std::uint64_t measure = measureRecords(point.scale);

    // Upper bound on any one tenant's consumption: a tenant
    // whose cores never stall could in principle drain almost
    // the whole window alone, so each stream must hold it all.
    const std::uint64_t per_tenant = warm + measure;

    std::optional<TraceCache> own_cache;
    TraceCache &cache = pointCache(point, own_cache);
    PhaseTimer phase(point);
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<unsigned> cores;
    for (const TenantSpec &spec : tenants) {
        sources.push_back(std::make_unique<ReplayTraceSource>(
            acquireTraceArena(cache, spec.workload,
                              point.cfg.pageBytes, point.baseSeed,
                              per_tenant, point.cfg.pod.deadline,
                              &out.timing.generatedTrace)));
        cores.push_back(spec.cores);
    }
    out.timing.replayedTrace = true;
    TenantMixSource mix(std::move(sources), cores);
    out.timing.traceSeconds = phase.lap("trace");

    Experiment::Config cfg = point.cfg;
    cfg.pod.numTenants = static_cast<unsigned>(tenants.size());
    Experiment exp(cfg, mix);
    phase.lap("construct");

    // The mix's hierarchy pass depends on neither the design nor
    // the partition policy (policies act only inside the
    // DRAM-cache designs; replayOps reads each op's tenant from
    // its address), so every point of the mix and window shares
    // one artifact. A miss builds it over this point's still
    // unread mix, recording where each tenant's stream stopped;
    // every point then resumes its streams there (a no-op after
    // its own build). Dead cores need no restoring: the measured
    // loop re-polls every core and retires the dry ones.
    const auto warm_artifact = warmFromArtifact(
        point, mixIdentity(point), warm, cache, exp.pod(),
        out.timing, [&] {
            auto art = PodSystem::buildWarmupArtifact(
                mix, point.cfg.pod.hierarchy, warm,
                point.cfg.pod.deadline);
            for (unsigned t = 0; t < tenants.size(); ++t)
                art->tenantCursors.push_back(mix.consumedRecords(t));
            return art;
        });
    mix.resumeAt(warm_artifact->tenantCursors);
    out.timing.warmupSeconds = phase.lap("warmup");

    out.metrics = exp.run(0, measure);
    out.timing.measureSeconds = phase.lap("measure");

    // Telemetry harvest, mirroring runPoint: intervals carry the
    // per-tenant deltas of every epoch, and the probe summary
    // lands in the extras.
    out.intervals = exp.pod().intervals();
    if (const TelemetryProbe *probe = exp.pod().probe())
        appendProbeExtras(*probe, out.extra);

    FPC_ASSERT(out.metrics.tenants.size() == tenants.size());
    return out;
}

} // namespace fpc
