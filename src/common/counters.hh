/**
 * @file
 * The counter schema: the pod's eleven integer counters
 * (PodCounters) and the seven per-tenant ones (TenantMetrics),
 * declared once. Each block carries one constexpr table of
 * {name, &member} entries; window deltas, interval sums, identity
 * and conservation checks, the journal lines, the timeseries
 * columns and the report's counter keys all loop over it. Adding
 * a counter is one field, one table entry and its source in
 * PodSystem::capture(). Table names are the report's JSON keys;
 * table order is journal order, so a new entry bumps the journal
 * magic.
 */

#ifndef FPC_COMMON_COUNTERS_HH
#define FPC_COMMON_COUNTERS_HH

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/types.hh"

namespace fpc {

/** One named field of struct T. */
template <typename T, typename V = std::uint64_t>
struct CounterField
{
    const char *name;
    V T::*member;
};

/** into += from, field by field over @p fields. */
template <typename Fields, typename Out, typename In>
void
addFields(const Fields &fields, Out &into, const In &from)
{
    for (const auto &f : fields)
        into.*f.member += from.*f.member;
}

/** out = end - start, field by field over @p fields. */
template <typename Fields, typename Out, typename In>
void
subtractFields(const Fields &fields, Out &out, const In &end,
               const In &start)
{
    for (const auto &f : fields)
        out.*f.member = end.*f.member - start.*f.member;
}

/** "name: a != b" for every field of @p fields in which @p a and
 * @p b differ; empty when they agree. */
template <typename Fields, typename A, typename B>
std::string
fieldDiff(const Fields &fields, const A &a, const B &b)
{
    std::ostringstream os;
    os.precision(17);
    const char *sep = "";
    for (const auto &f : fields) {
        if (a.*f.member != b.*f.member) {
            os << sep << f.name << ": " << a.*f.member
               << " != " << b.*f.member;
            sep = ", ";
        }
    }
    return os.str();
}

/** The pod's counters over one window (or running totals).
 * Integer deltas telescope: a window's interval deltas sum, bit
 * for bit, to its aggregate. */
struct PodCounters
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    std::uint64_t traceRecords = 0;

    std::uint64_t llcMisses = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;

    /**
     * Summed memory-system latency of the demand accesses (issue
     * at the memory system to critical block back at the L2), in
     * cycles. Divided by demandAccesses this is the average
     * DRAM-cache access latency the frontier experiment plots.
     */
    std::uint64_t memLatencyCycles = 0;

    std::uint64_t offchipBytes = 0;
    std::uint64_t stackedBytes = 0;
    std::uint64_t offchipActs = 0;
    std::uint64_t stackedActs = 0;

    static constexpr std::array<CounterField<PodCounters>, 11>
        kCounters{{
            {"instructions", &PodCounters::instructions},
            {"cycles", &PodCounters::cycles},
            {"trace_records", &PodCounters::traceRecords},
            {"llc_misses", &PodCounters::llcMisses},
            {"demand_accesses", &PodCounters::demandAccesses},
            {"demand_hits", &PodCounters::demandHits},
            {"mem_latency_cycles", &PodCounters::memLatencyCycles},
            {"offchip_bytes", &PodCounters::offchipBytes},
            {"stacked_bytes", &PodCounters::stackedBytes},
            {"offchip_acts", &PodCounters::offchipActs},
            {"stacked_acts", &PodCounters::stackedActs},
        }};

    /** Aggregate instructions per cycle (the paper's metric). */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }

    /** Block-granularity DRAM cache miss ratio. */
    double
    missRatio() const
    {
        return demandAccesses
                   ? static_cast<double>(demandAccesses -
                                         demandHits) /
                         demandAccesses
                   : 0.0;
    }

    /** Average memory-system latency per demand access. */
    double
    avgAccessLatencyCycles() const
    {
        return demandAccesses
                   ? static_cast<double>(memLatencyCycles) /
                         demandAccesses
                   : 0.0;
    }

    /** Average off-chip bandwidth in GB/s at 3GHz. */
    double
    offchipBandwidthGBps(double cpu_ghz = 3.0) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(offchipBytes) /
               (static_cast<double>(cycles) / cpu_ghz);
    }
};

/** Per-tenant slice of one window: each field sums bit-exactly
 * over the tenants to the same-named PodCounters field. Cycles are
 * shared, so not sliced. */
struct TenantMetrics
{
    std::uint64_t traceRecords = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;

    /** Summed memory-system latency of this tenant's demand
     * accesses over the window (cycles). */
    std::uint64_t memLatencyCycles = 0;

    /** Off-chip bytes moved on behalf of this tenant's addresses
     * (demand fetches, fills, writebacks, dirty evictions). */
    std::uint64_t offchipBytes = 0;

    static constexpr std::array<CounterField<TenantMetrics>, 7>
        kCounters{{
            {"trace_records", &TenantMetrics::traceRecords},
            {"instructions", &TenantMetrics::instructions},
            {"llc_misses", &TenantMetrics::llcMisses},
            {"demand_accesses", &TenantMetrics::demandAccesses},
            {"demand_hits", &TenantMetrics::demandHits},
            {"mem_latency_cycles",
             &TenantMetrics::memLatencyCycles},
            {"offchip_bytes", &TenantMetrics::offchipBytes},
        }};

    bool operator==(const TenantMetrics &) const = default;

    /** Block-granularity DRAM-cache hit ratio of this tenant. */
    double
    hitRatio() const
    {
        return demandAccesses ? static_cast<double>(demandHits) /
                                    demandAccesses
                              : 0.0;
    }

    /** Average memory-system latency per demand access. */
    double
    avgAccessLatencyCycles() const
    {
        return demandAccesses
                   ? static_cast<double>(memLatencyCycles) /
                         demandAccesses
                   : 0.0;
    }
};

} // namespace fpc

#endif // FPC_COMMON_COUNTERS_HH
