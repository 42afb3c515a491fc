/**
 * @file
 * Telemetry layer tests: interval-stream conservation (every
 * integer field sums bit-exactly to the aggregate metrics, solo
 * and per-tenant, for every registered design), epoch determinism
 * across sweep job counts, log2-histogram percentile math, Chrome
 * trace-event well-formedness, journal round-trips of interval
 * streams, and merged-report byte-identity when telemetry is off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_events.hh"
#include "tenant/colocation.hh"

#include "run_points.hh"

namespace fpc {
namespace {

/** Every registered cache organization (the frontier set). */
const char *kAllDesigns[] = {"baseline", "block",  "page",
                             "footprint", "ideal", "alloy",
                             "banshee"};

ExperimentPoint
telemetryPoint(const char *design, WorkloadKind wk,
               std::uint64_t interval_records, bool histograms)
{
    ExperimentPoint p;
    p.experiment = "unit";
    p.workload = wk;
    p.cfg.design = design;
    p.cfg.capacityMb = 64;
    p.scale = 0.02;
    p.label = standardLabel(wk, p.cfg);
    p.cfg.pod.telemetry.intervalRecords = interval_records;
    p.cfg.pod.telemetry.histograms = histograms;
    return p;
}

/** Sum every interval counter and require bit-exact agreement
 * with the aggregate measured metrics. */
void
expectIntervalsConserve(const PointResult &r,
                        const std::string &key)
{
    ASSERT_FALSE(r.intervals.empty()) << key;
    RunMetrics sum;
    sum.tenants.resize(r.metrics.tenants.size());
    for (const IntervalSample &s : r.intervals) {
        addFields(PodCounters::kCounters, sum, s);
        ASSERT_EQ(s.tenants.size(), sum.tenants.size()) << key;
        for (std::size_t t = 0; t < s.tenants.size(); ++t) {
            addFields(TenantMetrics::kCounters, sum.tenants[t],
                      s.tenants[t]);
        }
    }
    const RunMetrics &m = r.metrics;
    EXPECT_EQ(fieldDiff(PodCounters::kCounters, sum, m), "") << key;
    for (std::size_t t = 0; t < m.tenants.size(); ++t) {
        EXPECT_EQ(fieldDiff(TenantMetrics::kCounters,
                            sum.tenants[t], m.tenants[t]),
                  "")
            << key << " tenant " << t;
    }
}

TEST(Intervals, ConserveAcrossAllDesigns)
{
    for (const char *design : kAllDesigns) {
        ExperimentPoint p = telemetryPoint(
            design, WorkloadKind::WebSearch, 20000, false);
        const PointResult r = runPoint(p);
        EXPECT_GE(r.intervals.size(), 2u) << design;
        expectIntervalsConserve(r, p.key());
    }
}

TEST(Intervals, ConserveForColocationMix)
{
    std::vector<TenantSpec> tenants(2);
    tenants[0].workload = WorkloadKind::WebSearch;
    tenants[0].cores = 8;
    tenants[1].workload = WorkloadKind::DataServing;
    tenants[1].cores = 8;
    ExperimentPoint p = makeColocationPoint(
        tenants, "footprint", "shared", 0.02, 42);
    p.cfg.pod.telemetry.intervalRecords = 20000;
    const PointResult r = p.custom(p);
    ASSERT_EQ(r.metrics.tenants.size(), 2u);
    expectIntervalsConserve(r, p.key());
}

TEST(Intervals, DeterministicAcrossJobCounts)
{
    std::vector<ExperimentPoint> points;
    for (WorkloadKind wk :
         {WorkloadKind::WebSearch, WorkloadKind::MapReduce}) {
        points.push_back(
            telemetryPoint("footprint", wk, 10000, false));
        points.push_back(
            telemetryPoint("block", wk, 10000, false));
    }
    const std::vector<PointResult> serial =
        runPoints(SweepRunner(1), points);
    const std::vector<PointResult> sharded =
        runPoints(SweepRunner(8), points);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string key = points[i].key();
        ASSERT_EQ(serial[i].intervals.size(),
                  sharded[i].intervals.size())
            << key;
        for (std::size_t e = 0; e < serial[i].intervals.size();
             ++e) {
            const IntervalSample &a = serial[i].intervals[e];
            const IntervalSample &b = sharded[i].intervals[e];
            EXPECT_EQ(fieldDiff(PodCounters::kCounters, a, b), "")
                << key << " interval " << e;
        }
    }
}

TEST(Intervals, TelemetryDoesNotPerturbMetricsOrReport)
{
    // Same batch three ways: telemetry off, intervals on, and
    // intervals+histograms on. The measured metrics must be
    // bit-identical in all three; the merged report must be
    // byte-identical between off and intervals-on (intervals go
    // to the standalone artifact only). --histograms is the one
    // flag allowed to change report bytes (percentile extras).
    std::vector<ExperimentPoint> off, ts, hist;
    for (const char *design : {"footprint", "block"}) {
        off.push_back(telemetryPoint(
            design, WorkloadKind::WebSearch, 0, false));
        ts.push_back(telemetryPoint(
            design, WorkloadKind::WebSearch, 15000, false));
        hist.push_back(telemetryPoint(
            design, WorkloadKind::WebSearch, 15000, true));
    }
    const std::vector<PointResult> r_off =
        runPoints(SweepRunner(2), off);
    const std::vector<PointResult> r_ts =
        runPoints(SweepRunner(2), ts);
    const std::vector<PointResult> r_hist =
        runPoints(SweepRunner(2), hist);

    for (std::size_t i = 0; i < off.size(); ++i) {
        const RunMetrics &a = r_off[i].metrics;
        for (const RunMetrics *b :
             {&r_ts[i].metrics, &r_hist[i].metrics}) {
            EXPECT_EQ(fieldDiff(PodCounters::kCounters, a, *b), "")
                << off[i].key();
        }
        EXPECT_TRUE(r_off[i].intervals.empty());
        EXPECT_FALSE(r_ts[i].intervals.empty());
    }

    SweepOptions opts;
    opts.scale = 0.02;
    const std::string json_off = renderSweepJson(
        opts, {ExperimentRun{"unit", "t", off, r_off}});
    const std::string json_ts = renderSweepJson(
        opts, {ExperimentRun{"unit", "t", ts, r_ts}});
    EXPECT_EQ(json_off, json_ts);

    const std::string json_hist = renderSweepJson(
        opts, {ExperimentRun{"unit", "t", hist, r_hist}});
    EXPECT_NE(json_hist, json_off);
    EXPECT_NE(json_hist.find("lat_p95"), std::string::npos);
    EXPECT_NE(json_hist.find("bankocc_p50"), std::string::npos);
    EXPECT_NE(json_hist.find("mlp_p99"), std::string::npos);
}

TEST(Intervals, JournalRoundTripsIntervalStream)
{
    ExperimentPoint p = telemetryPoint(
        "footprint", WorkloadKind::WebSearch, 20000, false);
    const PointResult r = runPoint(p);
    ASSERT_FALSE(r.intervals.empty());

    const std::string text = SweepJournal::serialize(p, r);
    std::string key;
    JournalEntry entry;
    ASSERT_TRUE(SweepJournal::parse(text, key, entry));
    EXPECT_EQ(key, p.key());
    ASSERT_EQ(entry.result.intervals.size(), r.intervals.size());
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const IntervalSample &a = r.intervals[i];
        const IntervalSample &b = entry.result.intervals[i];
        EXPECT_EQ(fieldDiff(PodCounters::kCounters, a, b), "")
            << "interval " << i;
        EXPECT_EQ(a.tenants, b.tenants);
    }

    // A truncated intervals section is corruption, not data.
    const std::string cut =
        text.substr(0, text.find("\nintervals") + 12);
    EXPECT_FALSE(SweepJournal::parse(cut, key, entry));
}

TEST(Intervals, TimeseriesJsonCarriesEveryEpoch)
{
    ExperimentPoint p = telemetryPoint(
        "footprint", WorkloadKind::WebSearch, 20000, false);
    const PointResult r = runPoint(p);
    ASSERT_FALSE(r.intervals.empty());

    PointSeries s;
    s.key = p.key();
    s.workload = "WebSearch";
    s.intervals = r.intervals;
    const std::string json =
        renderTimeseriesJson(0.02, 42, 20000, {s});
    EXPECT_NE(json.find("\"bench\": \"sweep_timeseries\""),
              std::string::npos);
    EXPECT_NE(json.find("\"interval_records\": 20000"),
              std::string::npos);
    EXPECT_NE(json.find(p.key()), std::string::npos);
    EXPECT_NE(json.find("\"demand_accesses\""),
              std::string::npos);

    // Points with no intervals are skipped, not emitted empty.
    PointSeries empty;
    empty.key = "unit/empty";
    const std::string json2 =
        renderTimeseriesJson(0.02, 42, 20000, {empty, s});
    EXPECT_EQ(json2.find("unit/empty"), std::string::npos);
    EXPECT_NE(json2.find(p.key()), std::string::npos);
}

TEST(Log2HistogramTest, BucketMappingAndBounds)
{
    Log2Histogram h;
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(4);
    EXPECT_EQ(h.bucket(0), 1u); // value 0
    EXPECT_EQ(h.bucket(1), 1u); // value 1
    EXPECT_EQ(h.bucket(2), 2u); // values 2, 3
    EXPECT_EQ(h.bucket(3), 1u); // value 4
    EXPECT_EQ(h.totalSamples(), 5u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 4u);

    EXPECT_EQ(Log2Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketHigh(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketLow(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketHigh(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketLow(5), 16u);
    EXPECT_EQ(Log2Histogram::bucketHigh(5), 31u);
    EXPECT_EQ(Log2Histogram::bucketHigh(64),
              ~std::uint64_t{0});
}

TEST(Log2HistogramTest, PercentileMath)
{
    Log2Histogram empty;
    EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);

    // One distinct value: every percentile collapses to it (the
    // bucket bounds clamp to the observed [min, max]).
    Log2Histogram single;
    single.sample(7, 1000);
    EXPECT_DOUBLE_EQ(single.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(single.percentile(50.0), 7.0);
    EXPECT_DOUBLE_EQ(single.percentile(99.0), 7.0);
    EXPECT_DOUBLE_EQ(single.percentile(100.0), 7.0);

    // 99 samples of 1 and one outlier: the median sits on the
    // dominant value, the tail reaches the outlier.
    Log2Histogram skew;
    skew.sample(1, 99);
    skew.sample(1024, 1);
    EXPECT_DOUBLE_EQ(skew.percentile(50.0), 1.0);
    EXPECT_DOUBLE_EQ(skew.percentile(99.0), 1.0);
    EXPECT_DOUBLE_EQ(skew.percentile(99.5), 1024.0);
    EXPECT_DOUBLE_EQ(skew.percentile(100.0), 1024.0);

    // Percentiles never leave the observed range.
    Log2Histogram wide;
    wide.sample(100, 1);
    wide.sample(120, 1);
    const double p95 = wide.percentile(95.0);
    EXPECT_GE(p95, 100.0);
    EXPECT_LE(p95, 120.0);
}

TEST(SpanTracerTest, RendersWellFormedTraceEvents)
{
    SpanTracer tracer;
    const std::uint64_t t0 = tracer.nowUs();
    tracer.span("phase", "measure:unit/a", t0, t0 + 5,
                {{"attempt", "1"}});
    tracer.instant("cache", "build", {{"key", "trace/x"}});
    tracer.span("point", "quote\"and\nnewline", t0, t0 + 1);
    EXPECT_EQ(tracer.eventCount(), 3u);

    const std::string json = tracer.render();
    EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"attempt\": \"1\""),
              std::string::npos);

    // Control characters survive only in escaped form.
    EXPECT_NE(json.find("quote\\\"and\\nnewline"),
              std::string::npos);

    // Structural sanity without a JSON parser: brackets balance,
    // strings never contain a raw newline, and the document is
    // one object (newlines between events are legal whitespace).
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            ASSERT_NE(c, '\n');
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(SpanTracerTest, ThreadsGetDistinctLanes)
{
    SpanTracer tracer;
    auto emit = [&tracer] {
        const std::uint64_t t = tracer.nowUs();
        tracer.span("phase", "work", t, t + 1);
    };
    std::thread a(emit), b(emit);
    a.join();
    b.join();
    const std::string json = tracer.render();
    EXPECT_NE(json.find("worker-0"), std::string::npos);
    EXPECT_NE(json.find("worker-1"), std::string::npos);
}

} // namespace
} // namespace fpc
