/**
 * @file
 * Colocation harness: build and run multi-tenant sweep points.
 *
 * A colocation point co-schedules N TenantSpecs on one pod. The
 * mix rides inside the point's DesignParams bag (tenant.count,
 * tenant.wl<i>, tenant.cores<i>, plus the partitioning-policy
 * keys partition.hh defines), so a point stays a plain, copyable
 * value the SweepRunner can shard like any other, and the policy
 * is visible to every design through the same bag.
 *
 * Trace reuse: each tenant replays the *solo* trace identity of
 * its workload (traceIdentityKey of workload/pageBytes/baseSeed)
 * through the shared materialized-trace arena, so one generation
 * serves the workload's solo points, every mix containing it and
 * every design — and a solo colocation run is simply a mix of
 * one tenant on its core share.
 *
 * Warmup reuse: the mix's post-L2 stream is as design-independent
 * as a solo trace's (warmup dispatch is round-robin, the
 * hierarchy takes no input from the memory system, and partition
 * policies act only inside the DRAM-cache designs), so a point
 * warms like a standard one, from a WarmupArtifact shared by
 * every design and policy of its mix and warm window
 * (mixIdentity). The artifact also holds each tenant's stream
 * cursor after the window, where the measured window resumes.
 *
 * Determinism: record-to-core dispatch is decided by the pod's
 * loops, per-tenant streams are identity-seeded, and the point
 * runs single-threaded — results are bit-identical across
 * --jobs counts and trace-cache budgets.
 */

#ifndef FPC_TENANT_COLOCATION_HH
#define FPC_TENANT_COLOCATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "tenant/tenant.hh"
#include "workload/spec.hh"

namespace fpc {

/** One co-scheduled tenant. */
struct TenantSpec
{
    /** Workload preset driving this tenant's cores. */
    WorkloadKind workload = WorkloadKind::WebSearch;

    /** Core share: contiguous cores owned by this tenant. */
    unsigned cores = 8;

    /**
     * Optional cache quota as a capacity fraction (used when the
     * point selects tenant.policy=quota; 0 = policy default,
     * which splits capacity share-proportionally).
     */
    double cacheQuota = 0.0;
};

/**
 * Encode @p tenants and @p policy ("shared", "setpart", "quota")
 * into @p cfg's params bag. The experiment's design/capacity/page
 * knobs stay untouched.
 */
void encodeTenantMix(Experiment::Config &cfg,
                     const std::vector<TenantSpec> &tenants,
                     const std::string &policy = "shared");

/**
 * Decode the tenant.wl<i>/tenant.cores<i> keys of @p point back
 * into TenantSpecs.
 * @throws std::runtime_error on a missing or unknown workload.
 */
std::vector<TenantSpec>
decodeTenantMix(const ExperimentPoint &point);

/**
 * The stream identity of @p point's mix ("mix", then each
 * tenant's trace identity and core count, in tenant order): what
 * warmupArtifactKey() keys the mix's WarmupArtifact by, with the
 * warm window and hierarchy. Design and policy are not part of
 * it.
 */
std::string mixIdentity(const ExperimentPoint &point);

/**
 * Build one "colocation" point: mix label (ending in @p policy,
 * or "/solo"), custom run function and extraTraceNeeds (the
 * other tenants' arenas and the mix warmup artifact) wired.
 * @p scale and @p base_seed are taken up front because the other
 * tenants' extraTraceNeeds are sized and keyed from them; when the
 * colocation experiment's ExperimentDef::build() later sets
 * experiment, scale and baseSeed, it writes the same values.
 */
ExperimentPoint
makeColocationPoint(const std::vector<TenantSpec> &tenants,
                    const std::string &design,
                    const std::string &policy, double scale,
                    std::uint64_t base_seed);

/**
 * Run a colocation point: acquire each tenant's arena from the
 * point's TraceCache (a cache of this call's own when it has
 * none), mix them onto the pod via TenantMixSource, warm from the
 * mix's shared artifact (warmFromArtifact, building it on a miss),
 * start each tenant's stream at the artifact's cursor, measure,
 * and return aggregate metrics with RunMetrics::tenants filled.
 */
PointResult runColocationPoint(const ExperimentPoint &point);

} // namespace fpc

#endif // FPC_TENANT_COLOCATION_HH
