/** @file Tenant partitioning policies (see partition.hh). */

#include "tenant/partition.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dramcache/design_registry.hh"

namespace fpc {

TenantPartitionParams
TenantPartitionParams::fromParams(const DesignParams &params)
{
    TenantPartitionParams out;
    out.tenants = static_cast<unsigned>(
        params.getU64("tenant.count", 1));
    if (out.tenants == 0)
        throw std::runtime_error("tenant.count must be >= 1");

    const std::string policy =
        params.getString("tenant.policy", "shared");
    if (policy == "shared") {
        out.policy = TenantPolicy::Shared;
    } else if (policy == "setpart") {
        out.policy = TenantPolicy::SetPartition;
    } else if (policy == "quota") {
        out.policy = TenantPolicy::Quota;
    } else {
        throw std::runtime_error(
            "unknown tenant.policy '" + policy +
            "' (known: shared, setpart, quota)");
    }
    return out;
}

SetPartitionSpec
TenantPartitionParams::setPartition(std::uint64_t total_sets,
                                    unsigned unit_byte_shift) const
{
    SetPartitionSpec spec;
    if (!active() || policy != TenantPolicy::SetPartition)
        return spec;
    FPC_ASSERT(total_sets >= tenants);
    FPC_ASSERT(unit_byte_shift < kTenantAddrShift);
    spec.enabled = true;
    spec.tenantShift = kTenantAddrShift - unit_byte_shift;

    // Equal split (the floor of the double quotient); the last
    // tenant absorbs the remainder. total_sets >= tenants, so
    // each range holds at least one set.
    const auto share = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(total_sets) / tenants));
    std::uint64_t base = 0;
    for (unsigned t = 0; t < tenants; ++t) {
        const std::uint64_t count =
            t + 1 == tenants ? total_sets - base : share;
        FPC_ASSERT(count >= 1);
        spec.ranges.emplace_back(base, count);
        base += count;
    }
    FPC_ASSERT(base == total_sets);
    return spec;
}

TenantQuota
TenantPartitionParams::quota(std::uint64_t total_units) const
{
    if (!active() || policy != TenantPolicy::Quota)
        return TenantQuota{};
    // A limit is ceil(units x fraction), with the fraction 1/N
    // rounded to a double first (not ceil(units / N)).
    const double fraction = 1.0 / tenants;
    const std::uint64_t limit = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(total_units) * fraction));
    return TenantQuota{std::vector<std::uint64_t>(
        tenants, std::max<std::uint64_t>(limit, 1))};
}

} // namespace fpc
