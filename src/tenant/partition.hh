/**
 * @file
 * DRAM-cache partitioning policies for co-scheduled tenants.
 *
 * Three policies, selectable per design through the DesignParams
 * bag and implemented by every cacheful organization (footprint,
 * page, block, alloy, banshee; the baseline and ideal designs have
 * nothing to partition):
 *
 *  - shared (default): tenants contend for every set and frame,
 *    exactly like the single-tenant simulator;
 *  - setpart: a static partition of the cache *sets* — tenant t
 *    indexes only its contiguous range of sets (an equal split),
 *    so tenants cannot evict each other at the cost of a smaller
 *    effective capacity each;
 *  - quota: a per-tenant *footprint quota* on allocation units
 *    (frames for page-granular designs, blocks/TADs for
 *    block-granular ones), 1/N of them each. Indexing stays fully
 *    shared; a tenant at its quota may only allocate by replacing
 *    one of its own units, otherwise the allocation bypasses the
 *    cache and is served off chip.
 *
 * Bag vocabulary (DesignConfig::params):
 *   tenant.count   = N        number of tenants (default 1)
 *   tenant.policy  = shared | setpart | quota
 *
 * Every decision depends only on architectural state, never on
 * cycle time, so Functional and Timed simulation stay bit-equal.
 */

#ifndef FPC_TENANT_PARTITION_HH
#define FPC_TENANT_PARTITION_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "tenant/tenant.hh"

namespace fpc {

class DesignParams;

/** The partitioning policy of one design instance. */
enum class TenantPolicy : std::uint8_t
{
    Shared,
    SetPartition,
    Quota,
};

/**
 * Static set partition: maps a hash unit (a page id or a block
 * number, both of which carry the tenant bits up high) to a set
 * in the owning tenant's contiguous range.
 */
struct SetPartitionSpec
{
    bool enabled = false;

    /** unit >> tenantShift == tenant index of the unit. */
    unsigned tenantShift = 0;

    /** Per-tenant {first set, set count}; counts are >= 1. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;

    std::uint64_t
    setOf(std::uint64_t unit) const
    {
        std::uint64_t t = unit >> tenantShift;
        if (t >= ranges.size())
            t = ranges.size() - 1;
        const auto &[base, count] = ranges[t];
        return base + unit % count;
    }
};

/**
 * Per-tenant occupancy quota over a design's allocation units.
 * The design mirrors its occupancy through charge()/release() at
 * every unit valid-flip and consults mayFill() before allocating.
 */
class TenantQuota
{
  public:
    TenantQuota() = default;

    explicit TenantQuota(std::vector<std::uint64_t> limits)
        : limit_(std::move(limits)), held_(limit_.size(), 0)
    {
    }

    bool enabled() const { return !limit_.empty(); }

    /**
     * May tenant @p tenant allocate one more unit, given that the
     * allocation would displace @p victim_tenant's unit (when
     * @p victim_valid)? Replacing one's own unit is always
     * allowed — occupancy does not grow.
     */
    bool
    mayFill(std::uint32_t tenant, bool victim_valid,
            std::uint32_t victim_tenant) const
    {
        if (!enabled())
            return true;
        if (held_[index(tenant)] < limit_[index(tenant)])
            return true;
        return victim_valid &&
               index(victim_tenant) == index(tenant);
    }

    void
    charge(std::uint32_t tenant)
    {
        if (enabled())
            ++held_[index(tenant)];
    }

    void
    release(std::uint32_t tenant)
    {
        if (!enabled())
            return;
        FPC_ASSERT(held_[index(tenant)] > 0);
        --held_[index(tenant)];
    }

    std::uint64_t
    held(std::uint32_t tenant) const
    {
        return enabled() ? held_[index(tenant)] : 0;
    }

    std::uint64_t
    limit(std::uint32_t tenant) const
    {
        return enabled() ? limit_[index(tenant)] : 0;
    }

  private:
    /** Clamp out-of-range ids (single-tenant traces are id 0). */
    std::size_t
    index(std::uint32_t tenant) const
    {
        return tenant < limit_.size() ? tenant
                                      : limit_.size() - 1;
    }

    std::vector<std::uint64_t> limit_;
    std::vector<std::uint64_t> held_;
};

/**
 * Parsed tenant.* knobs of one design configuration. Each design
 * derives its own SetPartitionSpec/TenantQuota from these at
 * construction, once its set and unit counts are known.
 */
struct TenantPartitionParams
{
    TenantPolicy policy = TenantPolicy::Shared;
    unsigned tenants = 1;

    /** Anything to do? Shared or single-tenant means no. */
    bool
    active() const
    {
        return tenants > 1 && policy != TenantPolicy::Shared;
    }

    /**
     * Parse the tenant.* keys of @p params.
     * @throws std::runtime_error on a zero tenant count or an
     * unknown policy name.
     */
    static TenantPartitionParams
    fromParams(const DesignParams &params);

    /**
     * Split @p total_sets into equal per-tenant ranges, the last
     * one taking the remainder. @p unit_byte_shift is
     * log2 of the hash unit's size in bytes (page shift for page
     * ids, kBlockShift for block numbers). Disabled spec when the
     * policy is not SetPartition.
     */
    SetPartitionSpec setPartition(std::uint64_t total_sets,
                                  unsigned unit_byte_shift) const;

    /**
     * Per-tenant unit limits over @p total_units allocation
     * units (ceil of 1/N of them, at least one unit each).
     * Disabled quota when the policy is not Quota.
     */
    TenantQuota quota(std::uint64_t total_units) const;
};

} // namespace fpc

#endif // FPC_TENANT_PARTITION_HH
