/** @file Tenant-mix trace layer (see mix_source.hh). */

#include "tenant/mix_source.hh"

#include "common/logging.hh"

namespace fpc {

TenantMixSource::TenantMixSource(
    std::vector<std::unique_ptr<TraceSource>> sources,
    const std::vector<unsigned> &cores_per_tenant)
    : sources_(std::move(sources)),
      consumed_(sources_.size(), 0)
{
    FPC_ASSERT(!sources_.empty());
    FPC_ASSERT(sources_.size() == cores_per_tenant.size());
    for (unsigned t = 0; t < cores_per_tenant.size(); ++t) {
        FPC_ASSERT(cores_per_tenant[t] > 0);
        core_tenant_.insert(core_tenant_.end(),
                            cores_per_tenant[t], t);
    }
}

bool
TenantMixSource::next(unsigned core_id, TraceRecord &out)
{
    const unsigned t = tenantOfCore(core_id);
    if (t == kNoTenant)
        return false;
    if (!sources_[t]->next(core_id, out))
        return false;
    stamp(out, t);
    ++consumed_[t];
    return true;
}

std::size_t
TenantMixSource::acquire(unsigned core_id, TraceRecord *&span)
{
    const unsigned t = tenantOfCore(core_id);
    span = nullptr;
    if (t == kNoTenant)
        return 0;
    const std::size_t n = sources_[t]->acquire(core_id, span);
    // Stamping mutates only the inner source's private staging
    // buffer and is idempotent, so re-exposed span tails are safe.
    for (std::size_t i = 0; i < n; ++i)
        stamp(span[i], t);
    acquired_tenant_ = n > 0 ? t : kNoTenant;
    return n;
}

void
TenantMixSource::skip(std::size_t n)
{
    if (n == 0)
        return;
    FPC_ASSERT(acquired_tenant_ != kNoTenant);
    sources_[acquired_tenant_]->skip(n);
    consumed_[acquired_tenant_] += n;
}

void
TenantMixSource::resumeAt(const std::vector<std::uint64_t> &cursors)
{
    FPC_ASSERT(cursors.size() == sources_.size());
    for (std::size_t t = 0; t < sources_.size(); ++t) {
        FPC_ASSERT(cursors[t] >= consumed_[t]);
        sources_[t]->fastForward(cursors[t] - consumed_[t]);
        consumed_[t] = cursors[t];
    }
}

} // namespace fpc
