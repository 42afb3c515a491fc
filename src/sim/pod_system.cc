#include "sim/pod_system.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/fault.hh"
#include "common/logging.hh"

namespace fpc {

namespace {

/** Collects "group.counter" names from a design's stat groups. */
class ProbeNameCollector final : public StatVisitor
{
  public:
    ProbeNameCollector(const std::string &group,
                       std::vector<std::string> &out)
        : prefix_(group + "."), out_(out)
    {
    }

    void
    counter(const std::string &name, const std::string &,
            std::uint64_t) override
    {
        out_.push_back(prefix_ + name);
    }

  private:
    std::string prefix_;
    std::vector<std::string> &out_;
};

/** Collects counter values in the same visit order. */
class ProbeValueCollector final : public StatVisitor
{
  public:
    explicit ProbeValueCollector(std::vector<std::uint64_t> &out)
        : out_(out)
    {
    }

    void
    counter(const std::string &, const std::string &,
            std::uint64_t value) override
    {
        out_.push_back(value);
    }

  private:
    std::vector<std::uint64_t> &out_;
};

/** The interval-stream view of a window: its counter block,
 * tenant slices and probe deltas (energy does not telescope). */
IntervalSample
intervalOf(RunMetrics &&d)
{
    IntervalSample s;
    static_cast<PodCounters &>(s) = d;
    s.probeValues = std::move(d.probeValues);
    s.tenants = std::move(d.tenants);
    return s;
}

/**
 * The hierarchy-only half of runWarmup's functional path, over a
 * MaterializedTrace: the same round-robin burst dispatch, with
 * every post-L2 op appended in enqueue order — exactly the order
 * the deferred FIFO hands them to the memory system (FIFOs
 * preserve order, and in functional mode the cycle argument is
 * always 0, so *when* an op drains is irrelevant).
 *
 * The whole cursor is `pulled`, the records dispatched counted
 * from record 0: the core rotates once per burst, and every chunk
 * but the last holds exactly kChunkRecords. So consecutive
 * advance() calls continue as if they were one, and a pass can
 * start mid-trace where an earlier one stopped.
 */
struct HierarchyPass
{
    const MaterializedTrace &trace;
    CacheHierarchy hierarchy;
    std::uint64_t pulled;
    /** Checked every 4096 records, like the replay loops. */
    Deadline deadline;
    std::uint64_t nextCheck;

    HierarchyPass(const MaterializedTrace &t,
                  const CacheHierarchy::Config &cfg,
                  std::uint64_t first, Deadline dl)
        : trace(t), hierarchy(cfg), pulled(first), deadline(dl),
          nextCheck(first)
    {
    }

    /** Dispatch the next @p count records, appending their ops
     * to @p ops; returns the instructions they carried. */
    std::uint64_t
    advance(std::uint64_t count, PostL2Ops &ops)
    {
        constexpr unsigned kBurst = PodSystem::kDispatchBurst;
        constexpr std::size_t kChunk =
            MaterializedTrace::kChunkRecords;
        const std::uint64_t stop = pulled + count;
        std::uint64_t instructions = 0;
        MemRequest req;
        while (pulled < stop) {
            if (pulled >= nextCheck) {
                throwIfCancelled(deadline);
                nextCheck = pulled + 4096;
            }
            const MaterializedTrace::ChunkView c = trace.chunk(
                static_cast<std::size_t>(pulled / kChunk));
            const std::size_t off =
                static_cast<std::size_t>(pulled % kChunk);
            const std::size_t end = off + static_cast<std::size_t>(
                std::min<std::uint64_t>({c.records - off,
                                         kBurst - pulled % kBurst,
                                         stop - pulled}));
            req.coreId = static_cast<std::uint16_t>(
                (pulled / kBurst) % hierarchy.numCores());
            for (std::size_t i = off; i < end; ++i) {
                req.paddr = c.paddr[i];
                req.pc = c.pc[i];
                req.op = static_cast<MemOp>(c.op[i]);
                instructions += c.gap[i] + 1;

                HierarchyOutcome out = hierarchy.access(req);
                if (!out.l1Hit && !out.l2Hit) {
                    ops.paddr.push_back(req.paddr);
                    ops.pc.push_back(req.pc);
                    ops.coreId.push_back(req.coreId);
                    ops.kind.push_back(req.op == MemOp::Write
                                           ? PostL2Ops::kWrite
                                           : PostL2Ops::kRead);
                }
                for (unsigned w = 0; w < out.numWritebacks; ++w) {
                    ops.paddr.push_back(out.writebackAddr[w]);
                    ops.pc.push_back(0);
                    ops.coreId.push_back(req.coreId);
                    ops.kind.push_back(PostL2Ops::kWriteback);
                }
            }
            pulled += end - off;
        }
        return instructions;
    }
};

} // namespace

PodSystem::PodSystem(const PodConfig &config, TraceSource &trace,
                     MemorySystem &memory, DramSystem *stacked,
                     DramSystem &offchip)
    : config_(config), trace_(trace), memory_(memory),
      stacked_(stacked), offchip_(offchip),
      hierarchy_(config.hierarchy)
{
    FPC_ASSERT(config_.numCores == config_.hierarchy.numCores);
    FPC_ASSERT(config_.coreIpc > 0.0);
    if (config_.numTenants > 0) {
        tenant_totals_.resize(config_.numTenants);
        // Off-chip addresses always carry their owner (real
        // physical addresses in every design), so byte-exact
        // per-tenant traffic attribution lives in the DRAM
        // system itself.
        offchip_.enableTenantAccounting(config_.numTenants);
    }
    if (config_.telemetry.histograms)
        probe_ = std::make_unique<TelemetryProbe>();
    // Introspection is an exact-mode instrument: under sampling
    // the measured window is a statistical composite and the
    // shadow directory would see a punctured stream.
    if (config_.telemetry.introspectionOn() &&
        !config_.sampling.enabled) {
        intro_ = std::make_unique<CacheIntrospection>(
            config_.telemetry);
    }
}

void
PodSystem::armIntrospection()
{
    if (!intro_ || intro_armed_)
        return;
    memory_.attachIntrospection(intro_.get());
    probe_names_ = CacheIntrospection::counterNames();
    if (config_.telemetry.designProbes) {
        memory_.visitStatGroups([this](const StatGroup &g) {
            ProbeNameCollector v(g.name(), probe_names_);
            g.visit(v);
        });
    }
    intro_armed_ = true;
}

std::vector<std::uint64_t>
PodSystem::captureProbeValues() const
{
    std::vector<std::uint64_t> vals;
    if (!intro_armed_)
        return vals;
    vals.reserve(probe_names_.size());
    intro_->appendValues(vals);
    if (config_.telemetry.designProbes) {
        memory_.visitStatGroups([&vals](const StatGroup &g) {
            ProbeValueCollector v(vals);
            g.visit(v);
        });
    }
    return vals;
}

RunMetrics
RunMetrics::since(const RunMetrics &start) const
{
    RunMetrics d;
    subtractFields(kCounters, d, *this, start);
    subtractFields(kEnergy, d, *this, start);
    d.tenants.resize(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        subtractFields(TenantMetrics::kCounters, d.tenants[t],
                       tenants[t], start.tenants[t]);
    }
    d.probeValues.resize(probeValues.size());
    for (std::size_t i = 0; i < probeValues.size(); ++i)
        d.probeValues[i] = probeValues[i] - start.probeValues[i];
    return d;
}

RunMetrics &
RunMetrics::operator+=(const RunMetrics &o)
{
    addFields(kCounters, *this, o);
    addFields(kEnergy, *this, o);
    if (tenants.size() < o.tenants.size())
        tenants.resize(o.tenants.size());
    for (std::size_t t = 0; t < o.tenants.size(); ++t) {
        addFields(TenantMetrics::kCounters, tenants[t],
                  o.tenants[t]);
    }
    if (probeValues.size() < o.probeValues.size())
        probeValues.resize(o.probeValues.size());
    for (std::size_t i = 0; i < o.probeValues.size(); ++i)
        probeValues[i] += o.probeValues[i];
    return *this;
}

RunMetrics
PodSystem::capture(Cycle now) const
{
    RunMetrics s;
    s.instructions = total_instructions_;
    s.cycles = now;
    s.traceRecords = total_records_;
    s.llcMisses = hierarchy_.l2Misses();
    s.demandAccesses = memory_.demandAccesses();
    s.demandHits = memory_.demandHits();
    s.memLatencyCycles = total_mem_latency_;
    s.offchipBytes = offchip_.totalBytes();
    s.offchipActs = offchip_.totalActivates();
    s.offchipActPreNj = offchip_.totalActPreEnergyNj();
    s.offchipBurstNj = offchip_.totalBurstEnergyNj();
    if (stacked_) {
        s.stackedBytes = stacked_->totalBytes();
        s.stackedActs = stacked_->totalActivates();
        s.stackedActPreNj = stacked_->totalActPreEnergyNj();
        s.stackedBurstNj = stacked_->totalBurstEnergyNj();
    }
    if (!tenant_totals_.empty()) {
        s.tenants = tenant_totals_;
        for (unsigned t = 0; t < s.tenants.size(); ++t)
            s.tenants[t].offchipBytes = offchip_.tenantBytes(t);
    }
    if (intro_armed_)
        s.probeValues = captureProbeValues();
    return s;
}

void
PodSystem::runWarmup(std::uint64_t warmup_refs)
{
    setDramMode(config_.warmupMode);
    const bool timed = config_.warmupMode == SimMode::Timed;
    const unsigned cores = config_.numCores;
    const Cycle l1l2 =
        config_.l1HitLatency + config_.l2HitLatency;

    // Per-core clocks approximate issue times for the Timed
    // baseline (blocking in-order issue); Functional mode never
    // reads them. Dispatch is round-robin and therefore identical
    // in both modes, which is what makes the post-warmup state
    // bit-identical.
    std::vector<Cycle> clock(cores, 0);
    std::vector<bool> alive(cores, true);
    unsigned num_alive = cores;
    unsigned core = 0;

    // Dispatch hands each core a burst of kDispatchBurst
    // consecutive records rather than rotating every record: the
    // event-queue loop lets a core ride its L1 hits through the
    // consecutive same-block repeats of the stream, and per-record
    // rotation would scatter those repeats across cores and feed
    // the L2 nearly every record. The L2-miss stream the DRAM
    // cache trains on is essentially dispatch-invariant, so this
    // only restores the L1 locality the timing loop exhibits.
    std::uint64_t pulled = 0;

    // Deferred memory-operation FIFO. Records that hit in the
    // hierarchy never touch the memory system, so its demand
    // accesses and writebacks can be postponed across them as long
    // as their mutual order is preserved — the memory system then
    // observes exactly the sequence immediate processing would
    // produce, but each operation has had kMemQueue slots of
    // prefetch distance for its tag/tracking state.
    struct PendingMemOp
    {
        MemRequest req;
        std::uint32_t computeGap;
        bool isWriteback;
    };
    constexpr unsigned kMemQueue = 8; // power of two
    PendingMemOp memq[kMemQueue];
    unsigned mem_head = 0;
    unsigned mem_count = 0;

    auto noteDemand = [&](const MemRequest &req,
                          const MemSystemResult &res) {
        if (tenant_totals_.empty())
            return;
        TenantMetrics &tm = tenant_totals_[req.tenantId];
        ++tm.demandAccesses;
        tm.demandHits += res.cacheHit ? 1 : 0;
    };
    auto drainOne = [&]() {
        const PendingMemOp &op = memq[mem_head];
        mem_head = (mem_head + 1) & (kMemQueue - 1);
        --mem_count;
        const unsigned op_core = op.req.coreId;
        if (op.isWriteback) {
            memory_.writeback(clock[op_core], op.req.paddr);
        } else if (timed) {
            const Cycle compute = static_cast<Cycle>(
                static_cast<double>(op.computeGap) /
                config_.coreIpc);
            const Cycle issue = clock[op_core] + compute + l1l2;
            MemSystemResult res = memory_.access(issue, op.req);
            noteDemand(op.req, res);
            clock[op_core] =
                op.req.op == MemOp::Read ? res.doneAt : issue;
        } else {
            noteDemand(op.req, memory_.access(0, op.req));
        }
    };
    auto enqueue = [&](const PendingMemOp &op) {
        if (mem_count == kMemQueue)
            drainOne();
        memq[(mem_head + mem_count) & (kMemQueue - 1)] = op;
        ++mem_count;
        memory_.prefetchFor(op.req.paddr);
        if (mem_count > kMemQueue / 2) {
            memory_.prefetchFor2(
                memq[(mem_head + kMemQueue / 2) & (kMemQueue - 1)]
                    .req.paddr);
        }
    };

    auto process = [&](const TraceRecord &rec) {
        ++total_records_;
        total_instructions_ += rec.computeGap + 1;

        HierarchyOutcome out = hierarchy_.access(rec.req);
        if (!tenant_totals_.empty()) {
            TenantMetrics &tm = tenant_totals_[rec.req.tenantId];
            ++tm.traceRecords;
            tm.instructions += rec.computeGap + 1;
            tm.llcMisses += out.llcMiss() ? 1 : 0;
        }
        if (!out.l1Hit && !out.l2Hit) {
            PendingMemOp op;
            op.req = rec.req;
            op.computeGap = rec.computeGap;
            op.isWriteback = false;
            enqueue(op);
        }
        for (unsigned i = 0; i < out.numWritebacks; ++i) {
            PendingMemOp op;
            op.req.paddr = out.writebackAddr[i];
            op.req.coreId = rec.req.coreId;
            op.computeGap = 0;
            op.isWriteback = true;
            enqueue(op);
        }
    };

    TraceRecord rec;
    std::uint64_t iterations = 0;
    while (pulled < warmup_refs && num_alive > 0) {
        // Deadline check every 64 iterations: an iteration is a
        // dispatch burst (~kDispatchBurst records), or one record
        // for sources without batch access, so an armed deadline
        // keeps its clock read off the per-record path.
        if ((iterations++ & 63) == 0)
            throwIfCancelled(config_.deadline);
        if (!alive[core]) {
            core = (core + 1 == cores) ? 0 : core + 1;
            continue;
        }

        // Zero-copy fast path: consume the source's ready batch in
        // place. Only the lightweight loop can do this — the
        // timing loop's record-to-core dispatch is decided one
        // record at a time by the event queue.
        TraceRecord *span = nullptr;
        std::size_t avail = trace_.acquire(core, span);
        if (avail > 0) {
            const std::uint64_t burst_left =
                kDispatchBurst - (pulled & (kDispatchBurst - 1));
            const std::uint64_t take = std::min<std::uint64_t>(
                {avail, burst_left, warmup_refs - pulled});
            for (std::uint64_t i = 0; i < take; ++i) {
                span[i].req.coreId =
                    static_cast<std::uint16_t>(core);
                process(span[i]);
            }
            trace_.skip(take);
            pulled += take;
            if ((pulled & (kDispatchBurst - 1)) == 0)
                core = (core + 1 == cores) ? 0 : core + 1;
            continue;
        }

        // Per-record fallback for sources without batch access.
        if (!trace_.next(core, rec)) {
            alive[core] = false;
            --num_alive;
            core = (core + 1 == cores) ? 0 : core + 1;
            continue;
        }
        rec.req.coreId = static_cast<std::uint16_t>(core);
        ++pulled;
        if ((pulled & (kDispatchBurst - 1)) == 0)
            core = (core + 1 == cores) ? 0 : core + 1;
        process(rec);
    }
    while (mem_count > 0)
        drainOne();

    // Phase boundary: the measurement loop restarts time at zero
    // from a drained memory system, so the measured window is
    // independent of how warmup was simulated.
    setDramMode(SimMode::Timed);
    if (stacked_)
        stacked_->resetTiming();
    offchip_.resetTiming();
}

std::shared_ptr<const WarmupArtifact>
PodSystem::buildWarmupArtifact(const MaterializedTrace &trace,
                               const CacheHierarchy::Config &hier_cfg,
                               std::uint64_t warm_records,
                               Deadline deadline)
{
    FPC_ASSERT(trace.size() >= warm_records);
    auto art = std::make_shared<WarmupArtifact>();
    HierarchyPass pass(trace, hier_cfg, 0, deadline);
    art->instructions = pass.advance(warm_records, *art);
    pass.hierarchy.saveState(art->hierarchy);
    art->records = warm_records;
    art->hierarchyBytes = pass.hierarchy.stateBytes();
    return art;
}

std::shared_ptr<const SampleSpanArtifact>
PodSystem::buildSampleSpanArtifact(
    const MaterializedTrace &trace,
    const CacheHierarchy::Config &hier_cfg,
    const WarmupArtifact &warm_art, std::uint64_t warm_records,
    const SampleSchedule &sched, Deadline deadline)
{
    FPC_ASSERT(warm_art.records == warm_records);
    FPC_ASSERT(trace.size() >=
               warm_records + sched.spanRecords());
    auto art = std::make_shared<SampleSpanArtifact>();
    art->schedule = sched;
    // Continues buildWarmupArtifact's pass as if the two were one.
    HierarchyPass pass(trace, hier_cfg, warm_records, deadline);
    pass.hierarchy.restoreState(warm_art.hierarchy);
    for (unsigned p = 0; p < sched.intervals; ++p) {
        art->gapInstructions.push_back(
            pass.advance(sched.gap, *art));
        art->opGapEnd.push_back(art->paddr.size());
        art->hierarchyAtTimedStart.emplace_back();
        pass.hierarchy.saveState(art->hierarchyAtTimedStart.back());
        pass.advance(sched.ramp + sched.measure, *art);
        art->opPeriodEnd.push_back(art->paddr.size());
    }
    art->hierarchyBytes =
        static_cast<std::uint64_t>(sched.intervals) *
        pass.hierarchy.stateBytes();
    return art;
}

void
PodSystem::replayOps(const PostL2Ops &ops, std::size_t begin,
                     std::size_t end)
{
    setDramMode(SimMode::Functional);
    MemRequest req;
    for (std::size_t i = begin; i < end; ++i) {
        if ((i & 0xfff) == 0)
            throwIfCancelled(config_.deadline);
        // Same effective two-stage tag/payload prefetch
        // distances the deferred FIFO gives the in-band warmup
        // loop (stage 1 a full queue ahead, stage 2 half plus
        // the in-flight drain slot).
        if (i + 8 < end)
            memory_.prefetchFor(ops.paddr[i + 8]);
        if (i + 5 < end)
            memory_.prefetchFor2(ops.paddr[i + 5]);
        const std::uint8_t kind = ops.kind[i];
        if (kind == PostL2Ops::kWriteback) {
            memory_.writeback(0, ops.paddr[i]);
        } else {
            req.paddr = ops.paddr[i];
            req.pc = ops.pc[i];
            req.op = kind == PostL2Ops::kWrite ? MemOp::Write
                                               : MemOp::Read;
            req.coreId = ops.coreId[i];
            memory_.access(0, req);
        }
    }
    setDramMode(SimMode::Timed);
}

void
PodSystem::setDramMode(SimMode mode)
{
    if (stacked_)
        stacked_->setMode(mode);
    offchip_.setMode(mode);
}

void
PodSystem::applyWarmup(const WarmupArtifact &artifact)
{
    FPC_ASSERT(config_.warmupMode == SimMode::Functional &&
               !config_.allTimedWarmup);
    hierarchy_.restoreState(artifact.hierarchy);
    replayOps(artifact, 0, artifact.paddr.size());
    total_records_ += artifact.records;
    total_instructions_ += artifact.instructions;

    // Same phase boundary as runWarmup.
    if (stacked_)
        stacked_->resetTiming();
    offchip_.resetTiming();
}

void
PodSystem::recordInterval(RunMetrics &prev, Cycle now)
{
    RunMetrics cur = capture(now);
    RunMetrics d = cur.since(prev);
    if (record_epochs_)
        epochs_.push_back(std::move(d));
    else
        intervals_.push_back(intervalOf(std::move(d)));
    prev = std::move(cur);
}

Cycle
PodSystem::runMeasure(std::uint64_t measure_refs, bool measured,
                      Cycle start_now, MeasureCarry *carry)
{
    const std::uint64_t stop = total_records_ + measure_refs;

    // Interval epochs close on the pod-global record counter —
    // per-point work is single-threaded and record consumption
    // is in stream order, so boundaries are deterministic and
    // independent of the sweep's job count. Integer deltas
    // telescope: summing the intervals reproduces run()'s
    // aggregate deltas bit-exactly because the first prev here
    // and run()'s start snapshot are the same capture(0), and
    // the final close below matches its end capture.
    const std::uint64_t interval =
        measured ? config_.telemetry.intervalRecords : 0;
    std::uint64_t next_boundary =
        interval ? total_records_ + interval : 0;
    RunMetrics prev;
    if (interval)
        prev = capture(start_now);

    // Hot-path distribution probe: one predictable null test per
    // site when telemetry is off.
    TelemetryProbe *probe = measured ? probe_.get() : nullptr;
    // Miss-attribution shadow probe: same null-when-off pattern;
    // armed only once run() reached the measurement boundary.
    CacheIntrospection *intro =
        measured && intro_armed_ ? intro_.get() : nullptr;
    DramSystem *occupancy_dram = stacked_ ? stacked_ : &offchip_;

    EventQueue<unsigned> ready;
    if (carry && carry->primed) {
        for (unsigned c = 0; c < config_.numCores; ++c)
            ready.schedule(carry->readyAt[c], c);
    } else {
        for (unsigned c = 0; c < config_.numCores; ++c)
            ready.schedule(start_now, c);
    }

    // Outstanding load-miss completion times per core, bounded by
    // mlpPerCore: a fixed-size window (at most mlp + 1 entries
    // live at once) replaces the heap-allocating vector loop. A
    // full window stalls the core until the oldest miss returns.
    const unsigned mlp = std::max(1u, config_.mlpPerCore);
    const unsigned cap = mlp + 1;
    std::vector<Cycle> window(
        static_cast<std::size_t>(config_.numCores) * cap);
    std::vector<unsigned> depth(config_.numCores, 0);
    if (carry && carry->primed) {
        window = carry->window;
        depth = carry->depth;
    }

    // Batch consumption for core-agnostic sources: the event
    // queue decides record-to-core dispatch one record at a time,
    // but the records themselves come in stream order, so a span
    // acquired once can feed many iterations (two fewer virtual
    // calls per record on the hottest loop). The consumed prefix
    // is skip()ped when the span drains and on exit, keeping the
    // source position exact for subsequent run() calls.
    // Core-routed sources (a tenant mix) must not ride one span
    // across cores; they dispatch per record via next().
    const bool agnostic = trace_.coreAgnostic();
    TraceRecord *span = nullptr;
    std::size_t span_len = 0;
    std::size_t span_pos = 0;

    Cycle now = start_now;
    while (!ready.empty() && total_records_ < stop) {
        // Cooperative cancellation at batch boundaries: one
        // predicted compare every 4096 records keeps the hot loop
        // unmeasurably close to free when no deadline is armed.
        if ((total_records_ & 0xfff) == 0)
            throwIfCancelled(config_.deadline);
        auto [when, core] = ready.pop();
        now = std::max(now, when);

        TraceRecord rec;
        if (!agnostic) {
            if (!trace_.next(core, rec))
                continue; // Tenant stream exhausted or idle core.
        } else if (span_pos < span_len) {
            rec = span[span_pos++];
        } else {
            if (span_pos > 0) {
                trace_.skip(span_pos);
                span_pos = 0;
                span_len = 0;
            }
            span_len = trace_.acquire(core, span);
            if (span_len > 0) {
                rec = span[span_pos++];
            } else if (!trace_.next(core, rec)) {
                continue; // Trace exhausted: core stops issuing.
            }
        }
        rec.req.coreId = static_cast<std::uint16_t>(core);
        ++total_records_;
        total_instructions_ += rec.computeGap + 1;

        // Compute phase: gap instructions at the core's base IPC.
        const Cycle compute = static_cast<Cycle>(
            static_cast<double>(rec.computeGap) / config_.coreIpc);
        const Cycle issue_at = now + compute;

        // Memory phase.
        Cycle ready_at;
        bool long_miss = false;
        HierarchyOutcome out = hierarchy_.access(rec.req);
        TenantMetrics *tm = nullptr;
        if (!tenant_totals_.empty()) {
            tm = &tenant_totals_[rec.req.tenantId];
            ++tm->traceRecords;
            tm->instructions += rec.computeGap + 1;
            tm->llcMisses += out.llcMiss() ? 1 : 0;
        }
        const bool is_load = rec.req.op == MemOp::Read;
        if (out.l1Hit) {
            ready_at = issue_at + config_.l1HitLatency;
        } else if (out.l2Hit) {
            ready_at = issue_at + config_.l1HitLatency +
                       config_.l2HitLatency;
        } else {
            const Cycle mem_issue = issue_at +
                                    config_.l1HitLatency +
                                    config_.l2HitLatency;
            if (probe && probe->tickBankSample())
                probe->sampleBankOccupancy(
                    occupancy_dram->busyBanks(mem_issue));
            MemSystemResult res =
                memory_.access(mem_issue, rec.req);
            if (intro)
                intro->observeDemand(rec.req.paddr, res.cacheHit);
            ready_at = res.doneAt;
            if (res.doneAt > mem_issue)
                total_mem_latency_ += res.doneAt - mem_issue;
            if (probe)
                probe->sampleAccessLatency(
                    res.doneAt > mem_issue
                        ? res.doneAt - mem_issue
                        : 0);
            if (tm) {
                ++tm->demandAccesses;
                tm->demandHits += res.cacheHit ? 1 : 0;
                if (res.doneAt > mem_issue)
                    tm->memLatencyCycles +=
                        res.doneAt - mem_issue;
            }
            long_miss = true;
        }
        // Dirty evictions forced out of the L2 go to memory.
        for (unsigned i = 0; i < out.numWritebacks; ++i) {
            memory_.writeback(issue_at + config_.l1HitLatency +
                                  config_.l2HitLatency,
                              out.writebackAddr[i]);
        }

        if (!is_load) {
            // Stores retire without blocking the core.
            ready_at = issue_at + config_.l1HitLatency;
        } else if (long_miss) {
            // The OoO window hides load misses until mlp are in
            // flight; then the core stalls for the oldest one.
            Cycle *win = &window[static_cast<std::size_t>(core) *
                                 cap];
            unsigned n = depth[core];
            unsigned kept = 0;
            for (unsigned i = 0; i < n; ++i) {
                if (win[i] > issue_at)
                    win[kept++] = win[i];
            }
            n = kept;
            win[n++] = ready_at;
            if (n <= mlp) {
                ready_at = issue_at + config_.l1HitLatency;
            } else {
                unsigned oldest = 0;
                for (unsigned i = 1; i < n; ++i) {
                    if (win[i] < win[oldest])
                        oldest = i;
                }
                ready_at = std::max(win[oldest],
                                    issue_at +
                                        config_.l1HitLatency);
                win[oldest] = win[--n];
            }
            depth[core] = n;
            if (probe)
                probe->sampleMlpWindow(n);
        }

        ready.schedule(ready_at, core);

        if (interval && total_records_ >= next_boundary) {
            recordInterval(prev, now);
            next_boundary = total_records_ + interval;
        }
    }
    if (span_pos > 0)
        trace_.skip(span_pos);

    if (carry) {
        // A core that hit trace exhaustion was dropped from the
        // queue; re-arm it at the final cycle.
        carry->readyAt.assign(config_.numCores, now);
        while (!ready.empty()) {
            const auto [when, core] = ready.pop();
            carry->readyAt[core] = when;
        }
        carry->window = std::move(window);
        carry->depth = std::move(depth);
        carry->primed = true;
    }

    // Finalize-time introspection walks (set occupancy, touched
    // blocks of resident pages) happen before the final epoch
    // close so they land both in the last interval delta and in
    // run()'s aggregate — probe columns keep telescoping.
    if (intro)
        memory_.finalizeIntrospection();

    // Close the final (possibly partial) epoch so the intervals
    // always sum to the aggregate. `now` can advance past the
    // last boundary even with zero records (exhausted-trace event
    // pops), so cycles participate in the emptiness test. The
    // finalize walks above can move probe counters without
    // records or cycles advancing, so they participate too.
    if (interval &&
        (total_records_ != prev.traceRecords || now != prev.cycles ||
         (intro && captureProbeValues() != prev.probeValues)))
        recordInterval(prev, now);
    return now;
}

RunMetrics
PodSystem::run(std::uint64_t warmup_refs,
               std::uint64_t measure_refs)
{
    if (warmup_refs > 0) {
        if (config_.allTimedWarmup) {
            // Legacy all-timed engine: warmup pays the full
            // event-queue timing loop. Drain the channels at the
            // boundary as the lightweight paths do. Not a
            // measured window: telemetry stays quiet.
            runMeasure(warmup_refs, false);
            if (stacked_)
                stacked_->resetTiming();
            offchip_.resetTiming();
        } else {
            runWarmup(warmup_refs);
        }
    }

    // Arm introspection only for a real measured window: a
    // warmup-only run() must neither attach the design hooks nor
    // walk the warm caches at its (empty) measurement boundary.
    if (measure_refs > 0)
        armIntrospection();

    const RunMetrics start = capture(0);
    const Cycle end_now = runMeasure(measure_refs, true);
    return capture(end_now).since(start);
}

SampledRun
PodSystem::runSampled(std::uint64_t span_refs,
                      const SampleSpanArtifact &span_art)
{
    const SamplingConfig &sc = config_.sampling;
    FPC_ASSERT(sc.enabled);
    // Sampling rides the functional fast path; the legacy
    // all-timed engine has nothing cheap to fast-forward with,
    // and the span artifact carries no per-tenant attribution.
    FPC_ASSERT(!config_.allTimedWarmup &&
               config_.warmupMode == SimMode::Functional);
    FPC_ASSERT(tenant_totals_.empty());

    // The schedule is pure record arithmetic — it can't depend on
    // timing or thread count — and must be the one the artifact
    // was cut for.
    const SampleSchedule sched =
        computeSampleSchedule(sc, span_refs);
    FPC_ASSERT(sched.intervals == span_art.schedule.intervals &&
               sched.period == span_art.schedule.period &&
               sched.gap == span_art.schedule.gap &&
               sched.ramp == span_art.schedule.ramp &&
               sched.measure == span_art.schedule.measure);
    const std::size_t ramp_epochs = sched.rampEpochs;

    const auto seconds =
        [](std::chrono::steady_clock::time_point t0) {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                .count();
        };

    SampledRun out;
    std::vector<double> interval_ipc;
    std::uint64_t op_start = 0;
    Cycle clock = 0;
    MeasureCarry carry;
    for (unsigned i = 0; i < sched.intervals; ++i) {
        auto t0 = std::chrono::steady_clock::now();

        // Gap: replay the artifact's post-L2 ops into this
        // design's memory system, fast-forward the trace cursor
        // past the records they came from, and land on the
        // artifact's hierarchy snapshot at the timed start.
        const std::uint64_t op_end = span_art.opGapEnd[i];
        replayOps(span_art, op_start, op_end);
        if (sched.gap > 0)
            trace_.fastForward(sched.gap);
        total_records_ += sched.gap;
        total_instructions_ += span_art.gapInstructions[i];
        hierarchy_.restoreState(
            span_art.hierarchyAtTimedStart[i]);
        out.replayedOps += op_end - op_start;
        out.skippedRecords += sched.gap;
        op_start = span_art.opPeriodEnd[i];

        // The replay ends in timed mode — but unlike the warmup
        // boundary, no channel drain: a gap takes zero simulated
        // time, so each period's timed stretch continues from the
        // previous one's end cycle with the DRAM queue backlog and
        // bank busy windows intact. Resetting here instead would make
        // every interval start from an unloaded memory system and
        // systematically underestimate queueing latency (the span
        // as a whole still starts from the clean post-warmup
        // boundary, exactly like an exact run's measure window).
        out.ffSeconds += seconds(t0);

        t0 = std::chrono::steady_clock::now();
        const std::uint64_t saved_interval =
            config_.telemetry.intervalRecords;
        config_.telemetry.intervalRecords = sched.epoch;
        epochs_.clear();
        record_epochs_ = true;
        clock = runMeasure(sched.ramp + sched.measure, true,
                           clock, &carry);
        record_epochs_ = false;
        config_.telemetry.intervalRecords = saved_interval;
        out.timedSeconds += seconds(t0);

        // The aggregate takes each measured epoch in turn (the
        // energy doubles must sum in epoch order); the interval
        // stream of a sampled window is one merged sample per
        // period, not the raw scratch epochs.
        FPC_ASSERT(epochs_.size() > ramp_epochs);
        RunMetrics merged;
        for (std::size_t e = ramp_epochs; e < epochs_.size(); ++e) {
            out.metrics += epochs_[e];
            merged += epochs_[e];
        }
        epochs_.clear();

        interval_ipc.push_back(merged.ipc());
        IntervalSample sample = intervalOf(std::move(merged));
        intervals_.push_back(sample);
        out.samples.push_back(std::move(sample));
        ++out.intervalsRun;

        // Online auto-tune: stop once the per-interval IPC CI is
        // tight enough. Depends only on simulated values, so the
        // early stop is as deterministic as the full run.
        if (sc.targetCi > 0.0 &&
            out.intervalsRun >= std::max(2u, sc.minIntervals)) {
            const SampleStats st =
                computeSampleStats(interval_ipc);
            if (st.relativeCi() <= sc.targetCi)
                break;
        }
    }
    return out;
}

} // namespace fpc
