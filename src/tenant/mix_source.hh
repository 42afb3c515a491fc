/**
 * @file
 * Tenant-mix trace layer: co-schedules N per-tenant trace streams
 * on one pod by mapping contiguous core groups to tenants.
 *
 * Each tenant brings its own TraceSource — in the sweep, a
 * ReplayTraceSource over the shared materialized arena of its
 * solo trace identity, so paired and solo points replay the same
 * stream.
 * The mix serves core c from the stream of the tenant owning c
 * and stamps every record with the tenant's identity: the address
 * is offset into the tenant's disjoint address space
 * (paddr |= tenantAddrBase(t)) and MemRequest::tenantId is set.
 * Both transforms are idempotent (the base bits are disjoint from
 * any generated address), which lets partially-consumed spans be
 * re-exposed by the inner sources' staging buffers and
 * re-stamped without harm.
 *
 * Cores the mix does not own (a solo tenant on half the pod)
 * simply see an exhausted stream; the pod engine retires them.
 * The stream is NOT core-agnostic — a span acquired for one core
 * must not feed another tenant's cores — so coreAgnostic() is
 * false and the timing loop dispatches per record.
 */

#ifndef FPC_TENANT_MIX_SOURCE_HH
#define FPC_TENANT_MIX_SOURCE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/trace.hh"
#include "tenant/tenant.hh"

namespace fpc {

/** Core-group multiplexer over per-tenant trace streams. */
class TenantMixSource : public TraceSource
{
  public:
    /**
     * @param sources one stream per tenant (owned).
     * @param cores_per_tenant contiguous core counts: tenant 0
     *        owns cores [0, cores[0]), tenant 1 the next group,
     *        and so on. The total may be less than the pod's core
     *        count; the remaining cores stay idle.
     */
    TenantMixSource(
        std::vector<std::unique_ptr<TraceSource>> sources,
        const std::vector<unsigned> &cores_per_tenant);

    bool next(unsigned core_id, TraceRecord &out) override;
    std::size_t acquire(unsigned core_id,
                        TraceRecord *&span) override;
    void skip(std::size_t n) override;
    bool coreAgnostic() const override { return false; }

    /** Records consumed from tenant @p tenant's stream. */
    std::uint64_t
    consumedRecords(unsigned tenant) const
    {
        return consumed_[tenant];
    }

    /**
     * Move tenant t's stream forward until consumedRecords(t) is
     * @p cursors[t], discarding the records in between: where a
     * pod warmed from a mix's WarmupArtifact resumes
     * (WarmupArtifact::tenantCursors).
     */
    void resumeAt(const std::vector<std::uint64_t> &cursors);

  private:
    static constexpr unsigned kNoTenant = ~0u;

    /** Tenant owning @p core_id, or kNoTenant. */
    unsigned
    tenantOfCore(unsigned core_id) const
    {
        return core_id < core_tenant_.size()
                   ? core_tenant_[core_id]
                   : kNoTenant;
    }

    /** Stamp tenant identity into one record (idempotent). */
    void
    stamp(TraceRecord &rec, unsigned tenant) const
    {
        rec.req.paddr |= tenantAddrBase(tenant);
        rec.req.tenantId = static_cast<std::uint16_t>(tenant);
    }

    std::vector<std::unique_ptr<TraceSource>> sources_;
    std::vector<unsigned> core_tenant_;
    std::vector<std::uint64_t> consumed_;
    /** Tenant whose span the last acquire() exposed. */
    unsigned acquired_tenant_ = kNoTenant;
};

} // namespace fpc

#endif // FPC_TENANT_MIX_SOURCE_HH
