/** @file Columnar time-series renderer (see timeseries.hh). */

#include "telemetry/timeseries.hh"

#include "common/json.hh"

namespace fpc {

namespace {

/** One integer column: `"name": [v0, v1, ...]` over the epochs,
 * at @p indent. */
template <typename Get>
void
appendColumn(std::string &out, const char *indent, const char *name,
             const std::vector<IntervalSample> &intervals,
             bool first, Get get)
{
    if (!first)
        out += ",\n";
    appendFmt(out, "%s\"%s\": [", indent, name);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        if (i)
            out += ", ";
        appendFmt(out, "%llu",
                  static_cast<unsigned long long>(
                      get(intervals[i])));
    }
    out += ']';
}

constexpr const char *kIndent = "        ";
constexpr const char *kTenantIndent = "          ";

} // namespace

std::string
renderTimeseriesJson(double scale, std::uint64_t seed,
                     std::uint64_t interval_records,
                     const std::vector<PointSeries> &points)
{
    std::string out;
    out += "{\n";
    out += "  \"bench\": \"sweep_timeseries\",\n";
    appendFmt(out, "  \"scale\": %.3f,\n", scale);
    appendFmt(out, "  \"seed\": %llu,\n",
              static_cast<unsigned long long>(seed));
    appendFmt(out, "  \"interval_records\": %llu,\n",
              static_cast<unsigned long long>(interval_records));
    out += "  \"points\": [\n";

    bool first_point = true;
    for (const PointSeries &p : points) {
        if (p.intervals.empty())
            continue;
        if (!first_point)
            out += ",\n";
        first_point = false;

        out += "    {\n      \"key\": \"";
        appendJsonEscaped(out, p.key);
        out += "\",\n      \"workload\": \"";
        appendJsonEscaped(out, p.workload);
        out += "\",\n";
        appendFmt(out, "      \"intervals\": %llu,\n",
                  static_cast<unsigned long long>(
                      p.intervals.size()));
        out += "      \"columns\": {\n";

        // The trace-records column predates the counter table:
        // it is named "records" and leads; the rest follow in
        // table order.
        const auto &iv = p.intervals;
        appendColumn(out, kIndent, "records", iv, true,
                     [](const IntervalSample &s) {
                         return s.traceRecords;
                     });
        for (const auto &f : PodCounters::kCounters) {
            if (f.member == &PodCounters::traceRecords)
                continue;
            appendColumn(out, kIndent, f.name, iv, false,
                         [&f](const IntervalSample &s) {
                             return s.*f.member;
                         });
        }
        // Probe columns (introspection on): one per registered
        // counter, by name; absent intervals (none in practice —
        // the pod sizes every delta identically) read as 0.
        for (std::size_t c = 0; c < p.probeNames.size(); ++c) {
            appendColumn(out, kIndent, p.probeNames[c].c_str(),
                         iv, false,
                         [c](const IntervalSample &s) {
                             return c < s.probeValues.size()
                                        ? s.probeValues[c]
                                        : 0;
                         });
        }
        out += "\n      }";
        if (!p.probeNames.empty()) {
            out += ",\n      \"probe_totals\": {";
            for (std::size_t c = 0; c < p.probeNames.size();
                 ++c) {
                if (c)
                    out += ", ";
                out += "\"";
                appendJsonEscaped(out, p.probeNames[c]);
                appendFmt(
                    out, "\": %llu",
                    static_cast<unsigned long long>(
                        c < p.probeTotals.size()
                            ? p.probeTotals[c]
                            : 0));
            }
            out += "}";
        }

        // Tenant columns: every interval of a point carries the
        // same tenant count (the pod's), so index 0 is
        // representative.
        const std::size_t num_tenants =
            iv.front().tenants.size();
        if (num_tenants > 0) {
            out += ",\n      \"tenants\": [\n";
            for (std::size_t t = 0; t < num_tenants; ++t) {
                if (t)
                    out += ",\n";
                appendFmt(out,
                          "        {\"tenant\": %llu, "
                          "\"columns\": {\n",
                          static_cast<unsigned long long>(t));
                bool first = true;
                for (const auto &f : TenantMetrics::kCounters) {
                    appendColumn(out, kTenantIndent, f.name, iv,
                                 first,
                                 [&f, t](const IntervalSample &s) {
                                     return s.tenants[t].*f.member;
                                 });
                    first = false;
                }
                out += "\n        }}";
            }
            out += "\n      ]";
        }
        out += "\n    }";
    }

    out += "\n  ]\n}\n";
    return out;
}

} // namespace fpc
