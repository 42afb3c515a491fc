/**
 * @file
 * Multi-tenant colocation tests: address-space layout, partition
 * policy parsing and mechanics, tenant-mix trace routing, metric
 * conservation (per-tenant sums must equal the aggregate metrics
 * bit-exactly for every registered design), policy effects,
 * two-phase warmup equivalence under tenant mixes, sweep-level
 * determinism of the colocation experiment, and the writeTextFile
 * parent-directory satellite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "experiments/experiments.hh"
#include "sim/sweep.hh"
#include "tenant/colocation.hh"
#include "tenant/mix_source.hh"
#include "tenant/partition.hh"
#include "workload/generator.hh"

#include "run_points.hh"

namespace fpc {
namespace {

using fpcbench::registerAllExperiments;

TEST(TenantAddr, BaseAndOwnerRoundTrip)
{
    EXPECT_EQ(tenantAddrBase(0), 0u);
    EXPECT_EQ(tenantOfAddr(0x1234), 0u);
    const Addr base1 = tenantAddrBase(1);
    EXPECT_EQ(tenantOfAddr(base1 | 0xdeadbeef), 1u);
    EXPECT_EQ(tenantOfAddr(tenantAddrBase(3) + (1ull << 40)), 3u);
    // Workload footprints stay far below one tenant space.
    EXPECT_GT(base1, Addr{16} << 30);
}

TEST(TenantPartitionParams, ParsesPoliciesAndDefaults)
{
    DesignParams bag;
    TenantPartitionParams def =
        TenantPartitionParams::fromParams(bag);
    EXPECT_EQ(def.tenants, 1u);
    EXPECT_EQ(def.policy, TenantPolicy::Shared);
    EXPECT_FALSE(def.active());

    bag.set("tenant.count", "2");
    bag.set("tenant.policy", "setpart");
    bag.set("tenant.share0", "3");
    TenantPartitionParams sp =
        TenantPartitionParams::fromParams(bag);
    EXPECT_TRUE(sp.active());
    EXPECT_EQ(sp.policy, TenantPolicy::SetPartition);
    ASSERT_EQ(sp.shares.size(), 2u);
    EXPECT_DOUBLE_EQ(sp.shares[0], 3.0);
    EXPECT_DOUBLE_EQ(sp.shares[1], 1.0);
    // Quota fractions default share-proportionally.
    EXPECT_DOUBLE_EQ(sp.quotas[0], 0.75);
    EXPECT_DOUBLE_EQ(sp.quotas[1], 0.25);

    bag.set("tenant.policy", "bogus");
    EXPECT_THROW(TenantPartitionParams::fromParams(bag),
                 std::runtime_error);
    bag.set("tenant.policy", "quota");
    bag.set("tenant.quota0", "1.5");
    EXPECT_THROW(TenantPartitionParams::fromParams(bag),
                 std::runtime_error);
    bag.set("tenant.quota0", "0.25");
    TenantPartitionParams q =
        TenantPartitionParams::fromParams(bag);
    EXPECT_EQ(q.policy, TenantPolicy::Quota);
    EXPECT_DOUBLE_EQ(q.quotas[0], 0.25);
}

TEST(TenantPartitionParams, SetPartitionRangesDisjointAndCover)
{
    DesignParams bag;
    bag.set("tenant.count", "3");
    bag.set("tenant.policy", "setpart");
    bag.set("tenant.share0", "2");
    TenantPartitionParams params =
        TenantPartitionParams::fromParams(bag);

    const std::uint64_t sets = 1024;
    SetPartitionSpec spec = params.setPartition(sets, 11);
    ASSERT_TRUE(spec.enabled);
    ASSERT_EQ(spec.ranges.size(), 3u);
    std::uint64_t covered = 0;
    std::uint64_t next_base = 0;
    for (const auto &[base, count] : spec.ranges) {
        EXPECT_EQ(base, next_base);
        EXPECT_GE(count, 1u);
        next_base = base + count;
        covered += count;
    }
    EXPECT_EQ(covered, sets);
    // Tenant 0 weighs 2 of 4: half the sets.
    EXPECT_EQ(spec.ranges[0].second, sets / 2);

    // Every unit maps into its owner's range.
    for (std::uint32_t t = 0; t < 3; ++t) {
        const std::uint64_t unit =
            (static_cast<std::uint64_t>(t)
             << spec.tenantShift) |
            0x3fffu;
        const std::uint64_t set = spec.setOf(unit);
        EXPECT_GE(set, spec.ranges[t].first);
        EXPECT_LT(set,
                  spec.ranges[t].first + spec.ranges[t].second);
    }

    // Shared/quota policies produce a disabled spec.
    bag.set("tenant.policy", "shared");
    EXPECT_FALSE(TenantPartitionParams::fromParams(bag)
                     .setPartition(sets, 11)
                     .enabled);
}

TEST(TenantQuota, EnforcesOccupancyCap)
{
    DesignParams bag;
    bag.set("tenant.count", "2");
    bag.set("tenant.policy", "quota");
    bag.set("tenant.quota0", "0.25");
    bag.set("tenant.quota1", "0.75");
    TenantQuota quota = TenantPartitionParams::fromParams(bag)
                            .quota(100);
    ASSERT_TRUE(quota.enabled());
    EXPECT_EQ(quota.limit(0), 25u);
    EXPECT_EQ(quota.limit(1), 75u);

    for (unsigned i = 0; i < 25; ++i) {
        EXPECT_TRUE(quota.mayFill(0, false, 0));
        quota.charge(0);
    }
    // At quota: new frames only by replacing one's own.
    EXPECT_FALSE(quota.mayFill(0, false, 0));
    EXPECT_FALSE(quota.mayFill(0, true, 1));
    EXPECT_TRUE(quota.mayFill(0, true, 0));
    EXPECT_TRUE(quota.mayFill(1, true, 0));
    quota.release(0);
    EXPECT_TRUE(quota.mayFill(0, true, 1));
    EXPECT_EQ(quota.held(0), 24u);
}

TEST(TenantMixSource, RoutesCoresAndStampsIdentity)
{
    auto make = [](WorkloadKind wk) {
        return std::make_unique<SyntheticTraceSource>(
            makeWorkload(wk, 2048, 7));
    };
    std::vector<std::unique_ptr<TraceSource>> inner;
    inner.push_back(make(WorkloadKind::WebSearch));
    inner.push_back(make(WorkloadKind::DataServing));
    TenantMixSource mix(std::move(inner), {8, 8});
    EXPECT_FALSE(mix.coreAgnostic());

    // Solo references replaying the same identities.
    SyntheticTraceSource ref0(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    SyntheticTraceSource ref1(
        makeWorkload(WorkloadKind::DataServing, 2048, 7));

    TraceRecord rec, ref;
    for (unsigned i = 0; i < 2000; ++i) {
        const unsigned core = (i * 5) % 16; // both groups
        ASSERT_TRUE(mix.next(core, rec));
        const unsigned tenant = core < 8 ? 0 : 1;
        EXPECT_EQ(rec.req.tenantId, tenant);
        EXPECT_EQ(tenantOfAddr(rec.req.paddr), tenant);
        ASSERT_TRUE((tenant == 0 ? ref0 : ref1).next(core, ref));
        EXPECT_EQ(rec.req.paddr & (tenantAddrBase(1) - 1),
                  ref.req.paddr);
        EXPECT_EQ(rec.req.pc, ref.req.pc);
        EXPECT_EQ(rec.req.op, ref.req.op);
        EXPECT_EQ(rec.computeGap, ref.computeGap);
    }
    EXPECT_GT(mix.consumedRecords(0), 0u);
    EXPECT_GT(mix.consumedRecords(1), 0u);

    // Unowned cores see an exhausted stream.
    TenantMixSource solo_mix(
        [&] {
            std::vector<std::unique_ptr<TraceSource>> v;
            v.push_back(make(WorkloadKind::WebSearch));
            return v;
        }(),
        {8});
    EXPECT_FALSE(solo_mix.next(12, rec));
    TraceRecord *span = nullptr;
    EXPECT_EQ(solo_mix.acquire(12, span), 0u);
    EXPECT_TRUE(solo_mix.next(3, rec));
}

TEST(TenantMixSource, AcquireSpansMatchNextStream)
{
    auto make = [](WorkloadKind wk) {
        return std::make_unique<SyntheticTraceSource>(
            makeWorkload(wk, 2048, 11));
    };
    std::vector<std::unique_ptr<TraceSource>> a, b;
    a.push_back(make(WorkloadKind::WebSearch));
    a.push_back(make(WorkloadKind::MapReduce));
    b.push_back(make(WorkloadKind::WebSearch));
    b.push_back(make(WorkloadKind::MapReduce));
    TenantMixSource span_mix(std::move(a), {4, 12});
    TenantMixSource next_mix(std::move(b), {4, 12});

    // Batch consumption (partial skips included) must replay the
    // exact per-record stream, per core group.
    for (unsigned round = 0; round < 200; ++round) {
        const unsigned core = (round % 2) ? 2 : 9;
        TraceRecord *span = nullptr;
        const std::size_t avail = span_mix.acquire(core, span);
        ASSERT_GT(avail, 0u);
        const std::size_t take =
            std::min<std::size_t>(avail, 1 + round % 7);
        for (std::size_t i = 0; i < take; ++i) {
            TraceRecord rec;
            ASSERT_TRUE(next_mix.next(core, rec));
            EXPECT_EQ(span[i].req.paddr, rec.req.paddr);
            EXPECT_EQ(span[i].req.tenantId, rec.req.tenantId);
            EXPECT_EQ(span[i].req.pc, rec.req.pc);
        }
        span_mix.skip(take);
    }
}

/** Two runs agree on every pod and tenant counter. */
void
expectTenantsIdentical(const RunMetrics &a, const RunMetrics &b,
                       const std::string &key)
{
    EXPECT_EQ(fieldDiff(PodCounters::kCounters, a, b), "") << key;
    ASSERT_EQ(a.tenants.size(), b.tenants.size()) << key;
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        EXPECT_EQ(fieldDiff(TenantMetrics::kCounters, a.tenants[t],
                            b.tenants[t]),
                  "")
            << key << " tenant " << t;
    }
}

/** Per-tenant slices must sum bit-exactly to the aggregate. */
void
expectConservation(const RunMetrics &m, std::size_t num_tenants)
{
    ASSERT_EQ(m.tenants.size(), num_tenants);
    TenantMetrics sum;
    for (const TenantMetrics &tm : m.tenants)
        addFields(TenantMetrics::kCounters, sum, tm);
    // Every tenant counter slices the same-named pod counter.
    for (const auto &tf : TenantMetrics::kCounters) {
        const auto pf = std::find_if(
            PodCounters::kCounters.begin(),
            PodCounters::kCounters.end(), [&tf](const auto &f) {
                return std::string(f.name) == tf.name;
            });
        ASSERT_NE(pf, PodCounters::kCounters.end()) << tf.name;
        EXPECT_EQ(sum.*tf.member, m.*pf->member) << tf.name;
    }
}

TEST(TenantConservation, EveryDesignSumsToAggregate)
{
    // For every registered organization: a paired mix's
    // per-tenant metrics must sum bit-exactly to the aggregate
    // metrics of the same run, for every attributed field.
    for (const std::string &design :
         DesignRegistry::instance().names()) {
        ExperimentPoint p = makeColocationPoint(
            {{WorkloadKind::WebSearch, 8, 0.0},
             {WorkloadKind::DataServing, 8, 0.0}},
            design, "shared", 0.02, 42);
        const PointResult r = runColocationPoint(p);
        SCOPED_TRACE(design);
        expectConservation(r.metrics, 2);
        EXPECT_GT(r.metrics.tenants[0].traceRecords, 0u);
        EXPECT_GT(r.metrics.tenants[1].traceRecords, 0u);
        EXPECT_GT(r.metrics.tenants[0].instructions, 0u);
    }
}

TEST(TenantConservation, HoldsUnderEveryPolicy)
{
    for (const char *policy : {"shared", "setpart", "quota"}) {
        for (const char *design : {"footprint", "block", "alloy",
                                   "banshee"}) {
            ExperimentPoint p = makeColocationPoint(
                {{WorkloadKind::WebSearch, 8, 0.0},
                 {WorkloadKind::MapReduce, 8, 0.0}},
                design, policy, 0.01, 42);
            const PointResult r = runColocationPoint(p);
            SCOPED_TRACE(std::string(design) + "/" + policy);
            expectConservation(r.metrics, 2);
        }
    }
}

TEST(TenantConservation, SoloMixHasOneTenantSlice)
{
    ExperimentPoint p = makeColocationPoint(
        {{WorkloadKind::WebSearch, 8, 0.0}}, "footprint",
        "shared", 0.01, 42);
    const PointResult r = runColocationPoint(p);
    expectConservation(r.metrics, 1);
    // Half the pod runs, the other half idles.
    EXPECT_GT(r.metrics.traceRecords, 0u);
}

/** Build a two-tenant mix source over fresh synthetic streams. */
std::unique_ptr<TenantMixSource>
makePairMix(std::uint64_t seed_base)
{
    std::vector<std::unique_ptr<TraceSource>> inner;
    inner.push_back(std::make_unique<SyntheticTraceSource>(
        makeWorkload(WorkloadKind::WebSearch, 2048,
                     traceIdentitySeed(WorkloadKind::WebSearch,
                                       2048, seed_base))));
    inner.push_back(std::make_unique<SyntheticTraceSource>(
        makeWorkload(WorkloadKind::DataServing, 2048,
                     traceIdentitySeed(
                         WorkloadKind::DataServing, 2048,
                         seed_base))));
    return std::make_unique<TenantMixSource>(std::move(inner),
                                             std::vector<unsigned>{
                                                 8, 8});
}

TEST(TenantPolicies, QuotaBypassesEngageAndBound)
{
    // A punitive quota on tenant 0 must force quota bypasses in
    // the footprint cache while tenant 1 keeps allocating.
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 64;
    encodeTenantMix(cfg,
                    {{WorkloadKind::WebSearch, 8, 0.002},
                     {WorkloadKind::DataServing, 8, 0.9}},
                    "quota");
    cfg.pod.numTenants = 2;
    auto mix = makePairMix(42);
    Experiment exp(cfg, *mix);
    const RunMetrics m = exp.run(60'000, 60'000);
    ASSERT_NE(exp.footprintCache(), nullptr);
    EXPECT_GT(exp.footprintCache()->quotaBypasses(), 0u);
    expectConservation(m, 2);
}

TEST(TenantPolicies, SetPartitionChangesPlacementOnly)
{
    // setpart must still produce a valid, conserved run and must
    // differ from shared for a cacheful design under pressure.
    auto run = [&](const char *policy) {
        Experiment::Config cfg;
        cfg.design = "page";
        cfg.capacityMb = 64;
        encodeTenantMix(cfg,
                        {{WorkloadKind::WebSearch, 8, 0.0},
                         {WorkloadKind::DataServing, 8, 0.0}},
                        policy);
        cfg.pod.numTenants = 2;
        auto mix = makePairMix(42);
        Experiment exp(cfg, *mix);
        return exp.run(60'000, 60'000);
    };
    const RunMetrics shared = run("shared");
    const RunMetrics part = run("setpart");
    expectConservation(shared, 2);
    expectConservation(part, 2);
    EXPECT_EQ(shared.traceRecords, part.traceRecords);
    // Same demand stream, different placement outcome.
    EXPECT_EQ(shared.demandAccesses, part.demandAccesses);
    EXPECT_NE(shared.demandHits, part.demandHits);
}

TEST(TenantTwoPhase, WarmupModesBitIdenticalUnderMix)
{
    // The two-phase engine's invariant must survive tenant mixes
    // and quota policies: Functional and Timed warmup leave
    // bit-identical measured metrics, per tenant included.
    auto run = [&](SimMode mode) {
        Experiment::Config cfg;
        cfg.design = "footprint";
        cfg.capacityMb = 64;
        encodeTenantMix(cfg,
                        {{WorkloadKind::WebSearch, 8, 0.3},
                         {WorkloadKind::DataServing, 8, 0.7}},
                        "quota");
        cfg.pod.numTenants = 2;
        cfg.pod.warmupMode = mode;
        auto mix = makePairMix(42);
        Experiment exp(cfg, *mix);
        return exp.run(40'000, 40'000);
    };
    const RunMetrics a = run(SimMode::Functional);
    const RunMetrics b = run(SimMode::Timed);
    expectTenantsIdentical(a, b, "warmup modes");
}

/** Colocation subset: the first pair across two designs. */
std::vector<ExperimentPoint>
colocationSubset()
{
    std::vector<ExperimentPoint> points;
    for (const char *design : {"footprint", "banshee"}) {
        for (const char *policy : {"shared", "quota"}) {
            points.push_back(makeColocationPoint(
                {{WorkloadKind::WebSearch, 8, 0.0},
                 {WorkloadKind::DataServing, 8, 0.0}},
                design, policy, 0.01, 42));
        }
        points.push_back(makeColocationPoint(
            {{WorkloadKind::WebSearch, 8, 0.0}}, design,
            "shared", 0.01, 42));
    }
    return points;
}


TEST(TenantSweep, JobsAndCacheBudgetsBitIdentical)
{
    const std::vector<ExperimentPoint> points =
        colocationSubset();
    TraceCacheStats tiny_stats;
    const std::vector<PointResult> serial =
        runPoints(SweepRunner(1), points);
    const std::vector<PointResult> sharded =
        runPoints(SweepRunner(8), points);
    const std::vector<PointResult> tiny = runPoints(
        SweepRunner(1, {.budgetBytes = 1}), points, &tiny_stats);
    EXPECT_GT(tiny_stats.regenerations, 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        expectTenantsIdentical(serial[i].metrics,
                               sharded[i].metrics,
                               points[i].key());
        expectTenantsIdentical(serial[i].metrics,
                               tiny[i].metrics,
                               points[i].key());
    }

    // The rendered JSON is byte-identical too.
    SweepOptions opts;
    opts.scale = 0.01;
    ExperimentRun a{"colocation", "t", points, serial};
    ExperimentRun b{"colocation", "t", points, tiny};
    opts.jobs = 1;
    const std::string json_a = renderSweepJson(opts, {a});
    opts.jobs = 8;
    opts.cache.budgetBytes = 1;
    const std::string json_b = renderSweepJson(opts, {b});
    EXPECT_EQ(json_a, json_b);
    EXPECT_NE(json_a.find("\"tenants\": ["), std::string::npos);
    EXPECT_NE(json_a.find("\"hit_ratio\""), std::string::npos);
}

TEST(TenantSweep, ColocationRegistryExpansion)
{
    ExperimentRegistry reg;
    registerAllExperiments(reg);
    const ExperimentDef *def = reg.find("colocation");
    ASSERT_NE(def, nullptr);
    SweepOptions opts;
    const std::vector<ExperimentPoint> points = def->build(opts);
    // 7 designs x (3 solos + 3 pairs + 2 policy points).
    EXPECT_EQ(points.size(), 7u * 8u);
    std::size_t paired = 0;
    for (const ExperimentPoint &p : points) {
        EXPECT_TRUE(p.custom != nullptr) << p.key();
        if (!p.extraTraceNeeds.empty())
            ++paired;
    }
    EXPECT_EQ(paired, 7u * 5u);

    // The mix decodes back from the params bag.
    const auto tenants = decodeTenantMix(points.back());
    EXPECT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].cores, 8u);
}

TEST(TenantSweep, BaseSeedFlagAliasesSeed)
{
    SweepOptions opts;
    const char *argv[] = {"sweep", "--base-seed", "1234"};
    int i = 1;
    EXPECT_TRUE(parseCommonFlag(
        opts, 3, const_cast<char **>(argv), i));
    EXPECT_EQ(opts.seed, 1234u);
    EXPECT_EQ(i, 2);

    // Trace identities include the seed: a different base seed
    // is a different identity (and a different stream).
    EXPECT_NE(
        traceIdentityKey(WorkloadKind::WebSearch, 2048, 42),
        traceIdentityKey(WorkloadKind::WebSearch, 2048, 1234));
    EXPECT_NE(
        traceIdentitySeed(WorkloadKind::WebSearch, 2048, 42),
        traceIdentitySeed(WorkloadKind::WebSearch, 2048, 1234));
}

TEST(TenantSweep, WriteTextFileCreatesMissingParents)
{
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() /
        "fpc_tenant_out_test";
    std::filesystem::remove_all(root);
    const std::filesystem::path nested =
        root / "a" / "b" / "out.json";
    EXPECT_TRUE(writeTextFile(nested.string(), "{}\n"));
    EXPECT_TRUE(std::filesystem::exists(nested));

    // Regression guard: an unwritable destination (a parent
    // component that is a regular file) reports failure instead
    // of dying mid-sweep.
    const std::filesystem::path blocker = root / "file";
    EXPECT_TRUE(writeTextFile(blocker.string(), "x"));
    const std::filesystem::path bad =
        blocker / "sub" / "out.json";
    EXPECT_FALSE(writeTextFile(bad.string(), "{}\n"));
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace fpc
