/**
 * @file
 * Multi-tenant colocation: the tenant address-space layout.
 *
 * A pod that co-schedules N workloads gives each tenant a disjoint
 * physical address space: tenant t's trace addresses carry t in the
 * bits at kTenantAddrShift and above. Two properties follow, both
 * load-bearing:
 *
 *  - tenants never alias each other's data, yet still contend for
 *    DRAM-cache sets, MissMap segments and DRAM banks exactly as
 *    co-scheduled workloads do (set-index functions mask or fold
 *    the tenant bits, so a solo tenant behaves bit-identically to
 *    the single-tenant simulator);
 *  - any address observed anywhere below the L2 — a demand miss,
 *    an LLC writeback, a dirty-page eviction reconstructed from a
 *    tag — identifies its owning tenant, which is what lets the
 *    off-chip DRAM attribute every byte moved to a tenant without
 *    threading ids through each design's eviction paths.
 *
 * The per-tenant metric slice, TenantMetrics, lives with the pod
 * counters in common/counters.hh.
 *
 * The tenant id additionally rides MemRequest::tenantId through
 * the CacheHierarchy into every MemorySystem, so per-access
 * attribution (hits, latency) never re-derives it from the
 * address on the hot path.
 */

#ifndef FPC_TENANT_TENANT_HH
#define FPC_TENANT_TENANT_HH

#include <cstdint>

#include "common/counters.hh"
#include "common/types.hh"

namespace fpc {

/**
 * Address bit where the tenant id starts: 16TB per tenant, far
 * above any synthetic workload's footprint (= 16GB) and far below
 * the 64-bit ceiling for any sane tenant count.
 */
constexpr unsigned kTenantAddrShift = 44;

/** Base address of tenant @p tenant's address space. */
constexpr Addr
tenantAddrBase(std::uint32_t tenant)
{
    return static_cast<Addr>(tenant) << kTenantAddrShift;
}

/** Owning tenant of a physical address. */
constexpr std::uint32_t
tenantOfAddr(Addr addr)
{
    return static_cast<std::uint32_t>(addr >> kTenantAddrShift);
}

/**
 * Owning tenant of a page id (an address already shifted right
 * by @p page_shift): the page-granular designs' equivalent of
 * tenantOfAddr.
 */
constexpr std::uint32_t
tenantOfPageId(Addr page_id, unsigned page_shift)
{
    return static_cast<std::uint32_t>(
        page_id >> (kTenantAddrShift - page_shift));
}

} // namespace fpc

#endif // FPC_TENANT_TENANT_HH
