#include "workload/generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fpc {

SyntheticTraceSource::SyntheticTraceSource(const WorkloadSpec &spec)
    : spec_(spec),
      blocks_per_page_(spec.pageBytes / kBlockBytes),
      rng_(spec.seed),
      page_zipf_(std::max<std::uint64_t>(spec.datasetPages, 1),
                 spec.zipfS),
      hot_zipf_(std::max<std::uint64_t>(spec.hotPages, 1), 0.8)
{
    FPC_ASSERT(!spec_.classes.empty());
    FPC_ASSERT(isPowerOf2(spec_.pageBytes));
    FPC_ASSERT(blocks_per_page_ >= 1 && blocks_per_page_ <= 64);
    FPC_ASSERT(spec_.gapMin <= spec_.gapMax);
    FPC_ASSERT(spec_.writeFraction >= 0.0 &&
               spec_.writeFraction <= 1.0);
    gap_span_ =
        std::uint64_t{spec_.gapMax} - spec_.gapMin + 1;
    write_threshold_ =
        spec_.writeFraction >= 1.0
            ? (std::uint64_t{1} << 32)
            : static_cast<std::uint64_t>(spec_.writeFraction *
                                         4294967296.0);
    init();
}

void
SyntheticTraceSource::init()
{
    rng_ = Rng(spec_.seed);
    patterns_.clear();
    class_cdf_.clear();
    schedule_ = {};
    pending_.clear();
    pending_pos_ = 0;
    acquired_ = 0;
    emitted_ = 0;
    sched_seq_ = 0;
    scan_next_page_ = 0;
    visits_started_ = 0;

    double total_weight = 0.0;
    for (const auto &cls : spec_.classes)
        total_weight += cls.weight;
    FPC_ASSERT(total_weight > 0.0);

    double acc = 0.0;
    for (std::uint32_t c = 0; c < spec_.classes.size(); ++c) {
        const PageClassSpec &cls = spec_.classes[c];
        acc += cls.weight / total_weight;
        class_cdf_.push_back(acc);

        std::vector<Pattern> pats(cls.numPatterns);
        for (std::uint32_t p = 0; p < cls.numPatterns; ++p) {
            pats[p].pcBase =
                0x400000 + (mix64(spec_.seed ^ (c * 977 + p)) &
                            0xffffff) * 64;
            regenerateOffsets(c, pats[p],
                              spec_.seed * 31 + c * 131 + p);
        }
        patterns_.push_back(std::move(pats));
    }
}

void
SyntheticTraceSource::regenerateOffsets(std::uint32_t class_idx,
                                        Pattern &pattern,
                                        std::uint64_t epoch_seed)
{
    const PageClassSpec &cls = spec_.classes[class_idx];
    // Offsets must leave room for alignment shifts.
    const unsigned shift_room =
        cls.shiftRange > 0 ? cls.shiftRange - 1 : 0;
    FPC_ASSERT(shift_room < blocks_per_page_);
    const unsigned domain = blocks_per_page_ - shift_room;

    std::uint64_t sm = epoch_seed + pattern.epoch * 7919;
    unsigned density = cls.minDensity;
    if (cls.maxDensity > cls.minDensity) {
        density += static_cast<unsigned>(
            splitMix64(sm) % (cls.maxDensity - cls.minDensity + 1));
    }
    density = std::min(density, domain);

    pattern.offsets.clear();
    if (density >= domain) {
        // Full scan: sequential, trivially predictable (§6.1).
        for (unsigned i = 0; i < domain; ++i)
            pattern.offsets.push_back(
                static_cast<std::uint8_t>(i));
        return;
    }
    // Sample distinct offsets; order of generation is the script
    // order (the first one is the triggering access).
    std::uint64_t taken = 0;
    while (pattern.offsets.size() < density) {
        unsigned off =
            static_cast<unsigned>(splitMix64(sm) % domain);
        if (taken & (1ULL << off))
            continue;
        taken |= 1ULL << off;
        pattern.offsets.push_back(static_cast<std::uint8_t>(off));
    }
}

SyntheticTraceSource::Pattern &
SyntheticTraceSource::patternOf(const Visit &visit)
{
    return patterns_[visit.classIdx][visit.patternIdx];
}

void
SyntheticTraceSource::maybeDrift(std::uint32_t class_idx,
                                 Pattern &pattern)
{
    const PageClassSpec &cls = spec_.classes[class_idx];
    if (cls.driftPeriod == 0)
        return;
    if (++pattern.visitsSinceDrift >= cls.driftPeriod) {
        pattern.visitsSinceDrift = 0;
        ++pattern.epoch;
        regenerateOffsets(class_idx, pattern,
                          spec_.seed * 31 + class_idx * 131);
    }
}

void
SyntheticTraceSource::startVisit()
{
    ++visits_started_;
    // Pick the class by weight.
    const double r = rng_.uniform();
    std::uint32_t class_idx = 0;
    while (class_idx + 1 < class_cdf_.size() &&
           r > class_cdf_[class_idx])
        ++class_idx;
    const PageClassSpec &cls = spec_.classes[class_idx];

    Visit v;
    v.classIdx = class_idx;
    if (cls.scan) {
        // Streamed pages: fresh page numbers beyond the dataset.
        v.pageId = spec_.datasetPages + scan_next_page_++;
    } else if (spec_.hotPages > 0 &&
               rng_.chance(spec_.hotFraction)) {
        v.pageId = hot_zipf_(rng_);
    } else {
        v.pageId = page_zipf_(rng_);
    }

    // Class-consistent pattern and alignment for this page.
    const std::uint64_t h = mix64(v.pageId ^ (spec_.seed << 1));
    v.patternIdx =
        static_cast<std::uint32_t>(h % cls.numPatterns);
    v.shift = static_cast<std::uint8_t>(
        cls.shiftRange > 1 ? (h >> 32) % cls.shiftRange : 0);

    Pattern &pattern = patterns_[class_idx][v.patternIdx];
    maybeDrift(class_idx, pattern);
    v.scriptLen = static_cast<std::uint16_t>(
        pattern.offsets.size());

    // Occasional unpredictable extras (under/overprediction fuel).
    if (rng_.chance(cls.noiseProb)) {
        v.noiseCount =
            static_cast<std::uint8_t>(1 + rng_.below(2));
        v.noiseSeed = static_cast<std::uint32_t>(rng_.next());
    }

    schedule_.push(Scheduled{emitted_, sched_seq_++, v});
}

unsigned
SyntheticTraceSource::resolveOffset(const Visit &visit,
                                    const Pattern &pattern,
                                    unsigned pos) const
{
    if (pos < visit.scriptLen) {
        unsigned off = pattern.offsets[pos] + visit.shift;
        // Drift may shrink the script under a live visit; clamp.
        if (off >= blocks_per_page_)
            off = blocks_per_page_ - 1;
        return off;
    }
    const unsigned noise_pos = pos - visit.scriptLen;
    return static_cast<unsigned>(
        mix64(visit.noiseSeed + noise_pos * 0x9e37ULL) %
        blocks_per_page_);
}

void
SyntheticTraceSource::emitAccess(Addr page_id, unsigned block,
                                 Pc pc)
{
    const unsigned repeats = static_cast<unsigned>(
        rng_.range(spec_.repeatsMin, spec_.repeatsMax));
    const Addr base = page_id * spec_.pageBytes +
                      static_cast<Addr>(block) * kBlockBytes;
    for (unsigned r = 0; r < repeats; ++r) {
        // One 64-bit draw per record: the low half picks the
        // compute gap (Lemire reduction), the high half the
        // read/write coin — halving the RNG work of the previous
        // two-draw scheme on the hottest generation path.
        const std::uint64_t bits = rng_.next();
        TraceRecord rec;
        rec.computeGap =
            spec_.gapMin +
            static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(bits)) *
                 gap_span_) >>
                32); // gap_span_ <= 2^32: the product fits 64 bits
        rec.req.paddr = base + (r * 8) % kBlockBytes;
        rec.req.pc = pc;
        rec.req.op = static_cast<std::uint32_t>(bits >> 32) <
                             write_threshold_
                         ? MemOp::Write
                         : MemOp::Read;
        pending_.push_back(rec);
        ++emitted_;
    }
}

void
SyntheticTraceSource::emitBurst(Visit &visit)
{
    const PageClassSpec &cls = spec_.classes[visit.classIdx];
    Pattern &pattern = patternOf(visit);
    // The pattern may have drifted since the visit started; the
    // script length is pinned at start (plus noise extras).
    const unsigned total = visit.scriptLen + visit.noiseCount;

    unsigned issued = 0;
    while (visit.pos < total && issued < cls.burstBlocks) {
        const unsigned off =
            resolveOffset(visit, pattern, visit.pos);
        // Position i of the script is code at pcBase + 4i.
        const Pc pc = pattern.pcBase + 4ULL * std::min<unsigned>(
            visit.pos, visit.scriptLen ? visit.scriptLen - 1 : 0);
        emitAccess(visit.pageId, off, pc);
        ++visit.pos;
        ++issued;
        // Bursts after the first re-touch the page's header block
        // (the data structure's descriptor), supplying the block-
        // level temporal reuse block-based caches exploit. It is
        // emitted after the burst's first access so a resumed
        // traversal re-triggers with its own (PC, offset) key.
        if (issued == 1 && visit.pos > 1 && visit.pos < total &&
            visit.scriptLen > 0) {
            emitAccess(visit.pageId,
                       resolveOffset(visit, pattern, 0),
                       pattern.pcBase);
        }
    }

    if (visit.pos < total) {
        const std::uint64_t spread =
            cls.spreadRecords / 2 +
            rng_.below(std::max<std::uint64_t>(cls.spreadRecords,
                                               1));
        schedule_.push(Scheduled{emitted_ + spread, sched_seq_++,
                                 visit});
    }
}

bool
SyntheticTraceSource::next(unsigned core_id, TraceRecord &out)
{
    (void)core_id;
    acquired_ = 0; // any previously acquired span is now stale
    if (pending_pos_ == pending_.size())
        refill();
    out = pending_[pending_pos_++];
    return true;
}

std::size_t
SyntheticTraceSource::acquire(unsigned core_id,
                              TraceRecord *&span)
{
    (void)core_id;
    if (pending_pos_ == pending_.size())
        refill();
    span = pending_.data() + pending_pos_;
    acquired_ = pending_.size() - pending_pos_;
    return acquired_;
}

void
SyntheticTraceSource::skip(std::size_t n)
{
    FPC_ASSERT(n <= acquired_);
    acquired_ -= n;
    pending_pos_ += n;
}

void
SyntheticTraceSource::refill()
{
    pending_.clear();
    pending_pos_ = 0;
    while (pending_.size() < kBatchRecords) {
        if (schedule_.empty() || schedule_.top().due > emitted_)
            startVisit();
        Scheduled top = schedule_.top();
        schedule_.pop();
        Visit v = top.visit;
        emitBurst(v);
    }
}

void
SyntheticTraceSource::reset()
{
    init();
}

void
materializeTrace(const WorkloadSpec &spec, std::uint64_t records,
                 MaterializedTrace &out, Deadline deadline)
{
    SyntheticTraceSource src(spec);
    std::uint64_t pulled = 0;
    std::uint64_t next_check = 0;
    while (pulled < records) {
        if (pulled >= next_check) {
            throwIfCancelled(deadline);
            next_check = pulled + 4096;
        }
        TraceRecord *span = nullptr;
        const std::size_t avail = src.acquire(0, span);
        FPC_ASSERT(avail > 0);
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(avail, records - pulled));
        out.append(span, take);
        src.skip(take);
        pulled += take;
    }
}

} // namespace fpc
