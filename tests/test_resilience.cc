/**
 * @file
 * Fault-tolerant sweep execution: deterministic fault injection,
 * bounded retry with attempt accounting, structured failure
 * records, checkpoint journal round-trip and corruption handling,
 * crash-then-resume byte-identity, and deadline cancellation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

#include "run_points.hh"

using namespace fpc;

namespace {

/** Every test leaves the process-wide injector inactive. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

/** Fresh scratch directory under the system temp dir. */
std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("fpc_resilience_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** A custom point whose run function is @p fn. */
ExperimentPoint
customPoint(const std::string &label,
            std::function<PointResult(const ExperimentPoint &)> fn)
{
    ExperimentPoint p;
    p.experiment = "unit";
    p.label = label;
    p.scale = 0.01;
    p.custom = std::move(fn);
    return p;
}

PointResult
resultWithExtra(double value)
{
    PointResult r;
    r.metrics.instructions = 1000;
    r.metrics.cycles = 500;
    r.extra.emplace_back("value", value);
    return r;
}

/** Two tiny real points (64/128MB WebSearch grid). */
std::vector<ExperimentPoint>
tinyRealPoints(double scale = 0.02)
{
    SweepSpec spec;
    spec.experiment = "tiny";
    spec.workloads = {WorkloadKind::WebSearch};
    spec.capacitiesMb = {64, 128};
    spec.scale = scale;
    return spec.expand();
}

std::string
renderOne(const std::vector<ExperimentPoint> &points,
          const std::vector<PointResult> &results)
{
    ExperimentRun run;
    run.name = points.empty() ? "empty" : points[0].experiment;
    run.title = "t";
    run.points = points;
    run.results = results;
    return renderSweepJson(SweepOptions{}, {run});
}

TEST_F(ResilienceTest, PlanParsesAndRejects)
{
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_FALSE(FaultInjector::active());
    EXPECT_TRUE(fi.configure("trace-build@Web%50:transient:2:1;"
                             "point:permanent,point-done:crash"));
    EXPECT_TRUE(FaultInjector::active());
    fi.reset();
    EXPECT_FALSE(FaultInjector::active());

    EXPECT_FALSE(fi.configure("point:bogus-kind"));
    EXPECT_FALSE(FaultInjector::active());
    EXPECT_FALSE(fi.configure(":transient"));
    EXPECT_FALSE(fi.configure("point:transient:abc"));
    EXPECT_FALSE(fi.configure("point@k%101:transient"));
    EXPECT_FALSE(fi.configure("a:b:c:d:e"));

    // Empty plan: valid, inactive.
    EXPECT_TRUE(fi.configure(""));
    EXPECT_FALSE(FaultInjector::active());
}

TEST_F(ResilienceTest, TransientRuleFiresPerKeyThenClears)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("site-a@match:transient:2"));

    // First two matches throw, the third passes; an unrelated
    // key has its own counter and an unrelated site never fires.
    EXPECT_THROW(fi.check("site-a", "key-match-1"),
                 TransientError);
    EXPECT_THROW(fi.check("site-a", "key-match-1"),
                 TransientError);
    EXPECT_NO_THROW(fi.check("site-a", "key-match-1"));
    EXPECT_THROW(fi.check("site-a", "key-match-2"),
                 TransientError);
    EXPECT_NO_THROW(fi.check("site-a", "no-hit"));
    EXPECT_NO_THROW(fi.check("site-b", "key-match-1"));
}

TEST_F(ResilienceTest, PercentageGateIsDeterministicPerKey)
{
    FaultInjector &fi = FaultInjector::instance();
    // Record which of 100 keys fire, then re-configure with the
    // same seed and expect the identical subset: the gate hashes
    // (site, key, seed), never call order or schedule.
    std::vector<bool> fired(100, false);
    ASSERT_TRUE(fi.configure("s@key%40:permanent", 7));
    unsigned count = 0;
    for (unsigned k = 0; k < 100; ++k) {
        try {
            fi.check("s", "key" + std::to_string(k));
        } catch (const std::runtime_error &) {
            fired[k] = true;
            ++count;
        }
    }
    // ~40 of 100 keys; the hash won't hit exactly 40.
    EXPECT_GT(count, 15u);
    EXPECT_LT(count, 70u);

    ASSERT_TRUE(fi.configure("s@key%40:permanent", 7));
    for (unsigned k = 99; k < 100; --k) { // reverse order
        bool threw = false;
        try {
            fi.check("s", "key" + std::to_string(k));
        } catch (const std::runtime_error &) {
            threw = true;
        }
        EXPECT_EQ(threw, fired[k]) << "key" << k;
    }
}

TEST_F(ResilienceTest, TransientRetrySucceedsAndCountsAttempts)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    std::vector<ExperimentPoint> points;
    points.push_back(customPoint(
        "flaky", [calls](const ExperimentPoint &) {
            if (calls->fetch_add(1) < 2)
                throw TransientError("flaky build");
            return resultWithExtra(1.5);
        }));

    SweepRunner runner(1);
    ResilienceOptions res;
    res.retries = 3;
    res.backoffMs = 1;
    const SweepOutcome out = runner.runResilient(points, res);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_FALSE(out.results[0].failed);
    EXPECT_EQ(out.results[0].attempts, 3u);
    EXPECT_EQ(out.failed, 0u);
    EXPECT_EQ(out.executed, 1u);

    // The retried point advertises its attempts in the JSON; a
    // first-try point must not (clean-run byte-identity).
    const std::string json =
        renderOne(points, out.results);
    EXPECT_NE(json.find("\"attempts\": 3"), std::string::npos);

    std::vector<PointResult> clean(1);
    clean[0] = resultWithExtra(1.5);
    EXPECT_EQ(renderOne(points, clean).find("attempts"),
              std::string::npos);
}

TEST_F(ResilienceTest, RetriesExhaustedBecomesFailureRecord)
{
    std::vector<ExperimentPoint> points;
    points.push_back(
        customPoint("always", [](const ExperimentPoint &)
                        -> PointResult {
            throw TransientError("never clears");
        }));
    points.push_back(customPoint(
        "fine", [](const ExperimentPoint &) {
            return resultWithExtra(2.0);
        }));

    SweepRunner runner(1);
    ResilienceOptions res;
    res.retries = 2;
    res.backoffMs = 1;
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.failed, 1u);
    EXPECT_TRUE(out.results[0].failed);
    EXPECT_EQ(out.results[0].attempts, 3u); // 1 + 2 retries
    EXPECT_NE(out.results[0].error.find("never clears"),
              std::string::npos);
    // Graceful degradation: the healthy neighbour's result is
    // preserved alongside the failure record.
    EXPECT_FALSE(out.results[1].failed);
    ASSERT_EQ(out.results[1].extra.size(), 1u);
    EXPECT_DOUBLE_EQ(out.results[1].extra[0].second, 2.0);

    const std::string json = renderOne(points, out.results);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
    EXPECT_NE(json.find("never clears"), std::string::npos);
    EXPECT_NE(json.find("\"elapsed_s\""), std::string::npos);
}

TEST_F(ResilienceTest, PermanentErrorNeverRetries)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    std::vector<ExperimentPoint> points;
    points.push_back(customPoint(
        "perm", [calls](const ExperimentPoint &) -> PointResult {
            calls->fetch_add(1);
            throw std::runtime_error("permanent");
        }));

    SweepRunner runner(1);
    ResilienceOptions res;
    res.retries = 5;
    res.backoffMs = 1;
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.failed, 1u);
    EXPECT_EQ(calls->load(), 1);
    EXPECT_EQ(out.results[0].attempts, 1u);
}

TEST_F(ResilienceTest, JournalEntryRoundTripsExactly)
{
    ExperimentPoint p = customPoint("round/trip=1", nullptr);
    p.scale = 0.4;
    p.baseSeed = 1234567;
    // Every option field off its default, so a dropped or swapped
    // field cannot round-trip either.
    p.cfg.pod.telemetry = {11, true, 64, true, true, 1u << 28};
    p.cfg.pod.sampling = {true, 7, 3000, 900, 0.025, 3};

    // Every counter of every section gets a distinct value, so a
    // writer or parser that swaps two fields cannot round-trip.
    std::uint64_t next = 100;
    const auto fill = [&next](const auto &fields, auto &block) {
        for (const auto &f : fields)
            block.*f.member = next++;
    };
    const auto probes = [&next]() {
        std::vector<std::uint64_t> v;
        for (int i = 0; i < 3; ++i)
            v.push_back(next++);
        return v;
    };
    PointResult r;
    fill(PodCounters::kCounters, r.metrics);
    r.metrics.offchipActPreNj = 0.1;
    r.metrics.offchipBurstNj = 1.0 / 3.0;
    r.metrics.stackedActPreNj = 2e-19;
    r.metrics.stackedBurstNj = 3.25;
    r.metrics.tenants.resize(2);
    for (TenantMetrics &t : r.metrics.tenants)
        fill(TenantMetrics::kCounters, t);
    r.metrics.probeValues = probes();
    r.probeNames = {"intro.a", "fht.b", "name with space"};
    r.intervals.resize(3);
    for (IntervalSample &iv : r.intervals) {
        fill(PodCounters::kCounters, iv);
        iv.tenants.resize(2);
        for (TenantMetrics &t : iv.tenants)
            fill(TenantMetrics::kCounters, t);
        iv.probeValues = probes();
    }
    r.hasFootprint = true;
    r.covered = 21;
    r.underpred = 22;
    r.overpred = 23;
    r.trigMisses = 24;
    r.singletonBypasses = 25;
    r.densityPages = 26;
    r.densityBuckets = {1, 2, 3};
    r.extra.emplace_back("ideal mb", 0.123456789);
    r.attempts = 2;
    r.elapsedSeconds = 1.75;
    r.timing.traceSeconds = 0.5;
    r.timing.replayedTrace = true;
    r.error = "multi\nline \"quoted\"";
    r.failed = true;

    const std::string text = SweepJournal::serialize(p, r);
    std::string key;
    JournalEntry e;
    ASSERT_TRUE(SweepJournal::parse(text, key, e));
    EXPECT_EQ(key, p.key());
    EXPECT_EQ(e.scale, 0.4);
    EXPECT_EQ(e.baseSeed, 1234567u);
    EXPECT_TRUE(e.telemetry == p.cfg.pod.telemetry);
    EXPECT_TRUE(e.sampling == p.cfg.pod.sampling);

    const PointResult &q = e.result;
    EXPECT_EQ(fieldDiff(PodCounters::kCounters, q.metrics, r.metrics),
              "");
    // Hex-float serialization: doubles round-trip bit-exactly.
    EXPECT_EQ(fieldDiff(RunMetrics::kEnergy, q.metrics, r.metrics),
              "");
    EXPECT_EQ(q.metrics.tenants, r.metrics.tenants);
    EXPECT_EQ(q.metrics.probeValues, r.metrics.probeValues);
    EXPECT_EQ(q.probeNames, r.probeNames);
    ASSERT_EQ(q.intervals.size(), r.intervals.size());
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const IntervalSample &a = q.intervals[i];
        const IntervalSample &b = r.intervals[i];
        EXPECT_EQ(fieldDiff(PodCounters::kCounters, a, b), "")
            << "interval " << i;
        EXPECT_EQ(a.tenants, b.tenants) << "interval " << i;
        EXPECT_EQ(a.probeValues, b.probeValues) << "interval " << i;
    }
    EXPECT_TRUE(q.hasFootprint);
    EXPECT_EQ(q.covered, 21u);
    EXPECT_EQ(q.underpred, 22u);
    EXPECT_EQ(q.overpred, 23u);
    EXPECT_EQ(q.trigMisses, 24u);
    EXPECT_EQ(q.singletonBypasses, 25u);
    EXPECT_EQ(q.densityPages, 26u);
    EXPECT_EQ(q.densityBuckets,
              (std::vector<std::uint64_t>{1, 2, 3}));
    ASSERT_EQ(q.extra.size(), 1u);
    EXPECT_EQ(q.extra[0].first, "ideal mb");
    EXPECT_EQ(q.extra[0].second, 0.123456789);
    EXPECT_EQ(q.attempts, 2u);
    EXPECT_EQ(q.elapsedSeconds, 1.75);
    EXPECT_EQ(q.timing.traceSeconds, 0.5);
    EXPECT_TRUE(q.timing.replayedTrace);
    EXPECT_TRUE(q.failed);
    EXPECT_EQ(q.error, "multi\nline \"quoted\"");

    // Re-serializing the parsed entry reproduces the text.
    EXPECT_EQ(SweepJournal::serialize(key, e), text);
}

TEST_F(ResilienceTest, V5JournalEntryIsStaleAndReRuns)
{
    // A verbatim entry of the previous format, which recorded no
    // telemetry or sampling settings.
    const std::string v5 = "fpcjournal 5\n"
                           "key unit/a\n"
                           "opts 0x1.47ae147ae147bp-7 42\n"
                           "status 0 1 0x0p+0\n"
                           "error 0 \n"
                           "metrics 1000 500 40 0 0 0 0 0 0 0 0\n"
                           "energy 0x0p+0 0x0p+0 0x0p+0 0x0p+0\n"
                           "tenants 0\n"
                           "footprint 0 0 0 0 0 0 0\n"
                           "density 0\n"
                           "extras 1\n"
                           "extra 0x1.2p+3 5 value\n"
                           "timing 0x0p+0 0x0p+0 0x0p+0 0 0 0 0 0 "
                           "0x0p+0 0x0p+0\n"
                           "intervals 1\n"
                           "interval 1000 500 40 0 0 0 0 0 0 0 0 0\n"
                           "iprobe 0\n"
                           "probenames 0\n"
                           "probevals 0\n"
                           "heatmap 0 0 0 0\n"
                           "haccess\n"
                           "hconflict\n"
                           "hoccupancy\n"
                           "hdrams 0\n"
                           "end\n";
    std::string key;
    JournalEntry e;
    EXPECT_FALSE(SweepJournal::parse(v5, key, e));

    // Under the current magic it lacks the settings lines, so it
    // cannot pass for an entry made under default options either.
    std::string relabeled = v5;
    relabeled.replace(0, std::strlen("fpcjournal 5"), "fpcjournal 6");
    EXPECT_FALSE(SweepJournal::parse(relabeled, key, e));

    const std::string dir = scratchDir("v5");
    SweepJournal journal(dir);
    ASSERT_TRUE(journal.open());
    std::vector<ExperimentPoint> points;
    points.push_back(customPoint(
        "a", [](const ExperimentPoint &) {
            return resultWithExtra(1.0);
        }));
    ASSERT_EQ(points[0].key(), "unit/a");
    std::FILE *f = std::fopen(
        (dir + "/" + SweepJournal::fileNameFor(points[0].key()))
            .c_str(),
        "w");
    ASSERT_NE(f, nullptr);
    std::fputs(v5.c_str(), f);
    std::fclose(f);

    SweepRunner runner(1);
    ResilienceOptions res;
    res.journalDir = dir;
    res.resume = true;
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.journaled, 0u);
    EXPECT_EQ(out.executed, 1u);
    ASSERT_EQ(out.results[0].extra.size(), 1u);
    EXPECT_DOUBLE_EQ(out.results[0].extra[0].second, 1.0);
    std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, JournalRejectsCorruptAndTruncated)
{
    ExperimentPoint p = customPoint("ok", nullptr);
    const std::string good =
        SweepJournal::serialize(p, resultWithExtra(1.0));

    std::string key;
    JournalEntry e;
    EXPECT_TRUE(SweepJournal::parse(good, key, e));
    // Any truncation point must fail cleanly, never crash or
    // half-parse.
    for (std::size_t cut = 0; cut < good.size();
         cut += 1 + cut / 8) {
        EXPECT_FALSE(
            SweepJournal::parse(good.substr(0, cut), key, e));
    }
    EXPECT_FALSE(SweepJournal::parse("garbage", key, e));
    std::string tampered = good;
    tampered.replace(tampered.find("metrics"), 7, "metricz");
    EXPECT_FALSE(SweepJournal::parse(tampered, key, e));
}

TEST_F(ResilienceTest, CorruptJournalFilesReRunNotCrash)
{
    const std::string dir = scratchDir("corrupt");
    SweepJournal journal(dir);
    ASSERT_TRUE(journal.open());

    std::vector<ExperimentPoint> points;
    points.push_back(customPoint(
        "a", [](const ExperimentPoint &) {
            return resultWithExtra(1.0);
        }));
    ASSERT_TRUE(journal.append(points[0], resultWithExtra(9.0)));

    // Corrupt the entry in place: resume must skip it and
    // re-execute the point (fresh value 1.0, not stale 9.0).
    const std::string path =
        dir + "/" + SweepJournal::fileNameFor(points[0].key());
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("fpcjournal 1\nkey a\ntrunc", f);
    std::fclose(f);

    SweepRunner runner(1);
    ResilienceOptions res;
    res.journalDir = dir;
    res.resume = true;
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.journaled, 0u);
    EXPECT_EQ(out.executed, 1u);
    ASSERT_EQ(out.results[0].extra.size(), 1u);
    EXPECT_DOUBLE_EQ(out.results[0].extra[0].second, 1.0);
    std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, JournalIgnoresEntriesFromOtherOptions)
{
    const std::string dir = scratchDir("staleopts");
    SweepJournal journal(dir);
    ASSERT_TRUE(journal.open());

    std::vector<ExperimentPoint> points;
    points.push_back(customPoint(
        "a", [](const ExperimentPoint &) {
            return resultWithExtra(1.0);
        }));
    ExperimentPoint stale = points[0];
    stale.baseSeed += 1; // journaled under a different seed
    ASSERT_TRUE(journal.append(stale, resultWithExtra(9.0)));

    SweepRunner runner(1);
    ResilienceOptions res;
    res.journalDir = dir;
    res.resume = true;
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.journaled, 0u);
    EXPECT_EQ(out.executed, 1u);
    EXPECT_DOUBLE_EQ(out.results[0].extra[0].second, 1.0);
    std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ResumeUnderOtherTelemetryOrSamplingReRuns)
{
    // Options A (exact, no telemetry) journal every point; a
    // resume under options B must re-execute every point and
    // reproduce a fresh B run, while a resume under A still
    // executes nothing.
    const std::vector<ExperimentPoint> a = tinyRealPoints();
    std::vector<ExperimentPoint> sampled = a, histograms = a;
    for (ExperimentPoint &p : sampled)
        p.cfg.pod.sampling.enabled = true;
    for (ExperimentPoint &p : histograms)
        p.cfg.pod.telemetry.histograms = true;

    const std::string dir_a = scratchDir("opts-a");
    SweepRunner runner(1);
    ResilienceOptions res;
    res.journalDir = dir_a;
    const std::string golden_a =
        renderOne(a, runner.runResilient(a, res).results);

    for (const std::vector<ExperimentPoint> *b :
         {&sampled, &histograms}) {
        const std::string fresh =
            renderOne(*b, runPoints(runner, *b));
        EXPECT_NE(fresh, golden_a);
        const std::string dir_b = scratchDir("opts-b");
        std::filesystem::copy(dir_a, dir_b);
        ResilienceOptions res_b;
        res_b.journalDir = dir_b;
        res_b.resume = true;
        const SweepOutcome resumed = runner.runResilient(*b, res_b);
        EXPECT_EQ(resumed.journaled, 0u);
        EXPECT_EQ(resumed.executed, b->size());
        EXPECT_EQ(renderOne(*b, resumed.results), fresh);
        std::filesystem::remove_all(dir_b);
    }

    res.resume = true;
    const SweepOutcome again = runner.runResilient(a, res);
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(again.journaled, a.size());
    EXPECT_EQ(renderOne(a, again.results), golden_a);
    std::filesystem::remove_all(dir_a);
}

TEST_F(ResilienceTest, ResumeMergesByteIdentically)
{
    // Real simulation points: run the batch journaled, then
    // resume from the journal alone and from a half-populated
    // journal; every variant must render byte-identically to the
    // uninterrupted run (trace-identity seeds make results
    // schedule-independent, hex-float journaling makes the merge
    // exact).
    const std::string dir = scratchDir("resume");
    const std::vector<ExperimentPoint> points = tinyRealPoints();

    SweepRunner runner(1);
    const std::vector<PointResult> uninterrupted =
        runPoints(runner, points);
    const std::string golden = renderOne(points, uninterrupted);

    ResilienceOptions res;
    res.journalDir = dir;
    const SweepOutcome first = runner.runResilient(points, res);
    EXPECT_EQ(first.executed, points.size());
    EXPECT_EQ(renderOne(points, first.results), golden);

    // Full resume: nothing executes, bytes match.
    res.resume = true;
    const SweepOutcome resumed = runner.runResilient(points, res);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.journaled, points.size());
    EXPECT_EQ(renderOne(points, resumed.results), golden);

    // Partial resume: forget one entry, only that point re-runs,
    // bytes still match.
    std::filesystem::remove(
        dir + "/" + SweepJournal::fileNameFor(points[1].key()));
    const SweepOutcome partial = runner.runResilient(points, res);
    EXPECT_EQ(partial.executed, 1u);
    EXPECT_EQ(partial.journaled, points.size() - 1);
    EXPECT_EQ(renderOne(points, partial.results), golden);
    std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, CrashAfterNPointsThenResumeByteIdentical)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string dir = scratchDir("crash");
    const std::vector<ExperimentPoint> points = tinyRealPoints();

    SweepRunner runner(1);
    const std::string golden =
        renderOne(points, runPoints(runner, points));

    // The injected crash takes the whole process down after the
    // first point completes (and is journaled): crash rules fire
    // at the first match past `skip`, and the point-done hook
    // runs after the journal append.
    ResilienceOptions res;
    res.journalDir = dir;
    EXPECT_EXIT(
        {
            FaultInjector::instance().configure(
                "point-done:crash");
            SweepRunner crashing(1);
            crashing.runResilient(points, res);
        },
        ::testing::ExitedWithCode(FaultInjector::kCrashExitCode),
        "crashing at site=point-done");

    // The parent resumes: exactly one point was journaled before
    // the crash; the rest re-run and the merge is byte-exact.
    res.resume = true;
    const SweepOutcome resumed = runner.runResilient(points, res);
    EXPECT_EQ(resumed.journaled, 1u);
    EXPECT_EQ(resumed.executed, points.size() - 1);
    EXPECT_EQ(renderOne(points, resumed.results), golden);
    std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, DeadlineCancelsCooperativeCustomPoint)
{
    std::vector<ExperimentPoint> points;
    points.push_back(customPoint(
        "wedged", [](const ExperimentPoint &p) -> PointResult {
            // A wedged point that still hits cancellation
            // checks, as the simulation loops do.
            for (;;) {
                throwIfCancelled(p.cfg.pod.cancel);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        }));
    points.push_back(customPoint(
        "fast", [](const ExperimentPoint &) {
            return resultWithExtra(3.0);
        }));

    SweepRunner runner(2);
    ResilienceOptions res;
    res.pointDeadlineS = 0.1;
    res.retries = 3; // deadline failures must NOT retry
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.failed, 1u);
    EXPECT_TRUE(out.results[0].failed);
    EXPECT_EQ(out.results[0].attempts, 1u);
    EXPECT_NE(out.results[0].error.find("deadline"),
              std::string::npos);
    EXPECT_FALSE(out.results[1].failed);
}

TEST_F(ResilienceTest, DeadlineCancelsRealSimulationPoint)
{
    // End-to-end: the watchdog flag must reach the PodSystem
    // warmup/measure loops and unwind a real point mid-flight.
    std::vector<ExperimentPoint> points = tinyRealPoints(0.4);
    points.resize(1);

    SweepRunner runner(1);
    ResilienceOptions res;
    res.pointDeadlineS = 0.02;
    const SweepOutcome out = runner.runResilient(points, res);
    EXPECT_EQ(out.failed, 1u);
    EXPECT_NE(out.results[0].error.find("deadline"),
              std::string::npos);
}

TEST_F(ResilienceTest, FaultHooksReachTraceBuildAndRetry)
{
    // Inject one transient trace-build failure: with the shared
    // cache enabled the builder throws once, the slot is erased,
    // the retry rebuilds, and the results match a clean run.
    const std::vector<ExperimentPoint> points = tinyRealPoints();
    SweepRunner clean(1);
    const std::string golden =
        renderOne(points, runPoints(clean, points));

    ASSERT_TRUE(FaultInjector::instance().configure(
        "trace-build@WebSearch:transient:1"));
    SweepRunner faulted(1);
    ResilienceOptions res;
    res.retries = 2;
    res.backoffMs = 1;
    const SweepOutcome out = faulted.runResilient(points, res);
    FaultInjector::instance().reset();

    EXPECT_EQ(out.failed, 0u);
    EXPECT_EQ(faulted.lastCacheStats().buildFailures, 1u);
    EXPECT_GT(out.results[0].attempts + out.results[1].attempts,
              2u);
    // Metrics (not attempt counts) must match the clean run:
    // strip per-run fields by comparing the failure-free JSON of
    // results with attempts reset.
    std::vector<PointResult> normalized = out.results;
    for (PointResult &r : normalized)
        r.attempts = 1;
    EXPECT_EQ(renderOne(points, normalized), golden);
}

TEST_F(ResilienceTest, JsonEscapesControlCharacters)
{
    std::vector<ExperimentPoint> points;
    points.push_back(customPoint("esc", nullptr));
    std::vector<PointResult> results(1);
    results[0].failed = true;
    results[0].error = "line1\nline2\ttab\rcr\x01unit";

    const std::string json = renderOne(points, results);
    EXPECT_NE(json.find("line1\\nline2\\ttab\\rcr\\u0001unit"),
              std::string::npos);
    // No raw control bytes may survive inside string literals
    // (the report's own pretty-print newlines sit between
    // tokens, never inside quotes).
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"') {
            in_string = !in_string;
        } else if (in_string) {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        }
    }
}

} // namespace
