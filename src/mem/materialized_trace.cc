#include "mem/materialized_trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fpc {

void
MaterializedTrace::append(const TraceRecord *recs, std::size_t n)
{
    while (n > 0) {
        const std::size_t fill = static_cast<std::size_t>(
            size_ % kChunkRecords);
        if (fill == 0 && size_ == numChunks() * kChunkRecords) {
            // Chunks are allocated once at full size and left
            // unzeroed, so the pages past the tail chunk's last
            // record are never touched; the fill cursor (derived
            // from size_) tracks how much of the tail chunk is
            // valid, so appends are raw pointer stores.
            chunks_.push_back(Chunk{
                std::make_unique_for_overwrite<Addr[]>(kChunkRecords),
                std::make_unique_for_overwrite<Pc[]>(kChunkRecords),
                std::make_unique_for_overwrite<std::uint32_t[]>(
                    kChunkRecords),
                std::make_unique_for_overwrite<std::uint8_t[]>(
                    kChunkRecords)});
        }
        Chunk &c = chunks_.back();
        const std::size_t take =
            std::min(kChunkRecords - fill, n);
        Addr *pa = c.paddr.get() + fill;
        Pc *pp = c.pc.get() + fill;
        std::uint32_t *pg = c.gap.get() + fill;
        std::uint8_t *po = c.op.get() + fill;
        for (std::size_t i = 0; i < take; ++i) {
            pa[i] = recs[i].req.paddr;
            pp[i] = recs[i].req.pc;
            pg[i] = recs[i].computeGap;
            po[i] = static_cast<std::uint8_t>(recs[i].req.op);
        }
        recs += take;
        n -= take;
        size_ += take;
    }
}

void
MaterializedTrace::fill(std::uint64_t begin, TraceRecord *out,
                        std::size_t n) const
{
    FPC_ASSERT(begin + n <= size_);
    std::size_t ci = static_cast<std::size_t>(
        begin / kChunkRecords);
    std::size_t off = static_cast<std::size_t>(
        begin % kChunkRecords);
    std::size_t done = 0;
    while (done < n) {
        const ChunkView c = chunk(ci);
        const std::size_t take =
            std::min(n - done, c.records - off);
        const Addr *pa = c.paddr + off;
        const Pc *pp = c.pc + off;
        const std::uint32_t *pg = c.gap + off;
        const std::uint8_t *po = c.op + off;
        for (std::size_t i = 0; i < take; ++i) {
            TraceRecord &r = out[done + i];
            r.req.paddr = pa[i];
            r.req.pc = pp[i];
            r.req.op = static_cast<MemOp>(po[i]);
            r.req.coreId = 0;
            r.computeGap = pg[i];
        }
        done += take;
        off = 0;
        ++ci;
    }
}

MaterializedTrace::ChunkView
MaterializedTrace::chunk(std::size_t i) const
{
    FPC_ASSERT(i < chunks_.size());
    const Chunk &c = chunks_[i];
    // The tail chunk is allocated at full size; only the filled
    // prefix holds records.
    const std::uint64_t prior =
        static_cast<std::uint64_t>(i) * kChunkRecords;
    const std::size_t valid = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunkRecords, size_ - prior));
    return ChunkView{c.paddr.get(), c.pc.get(), c.gap.get(),
                     c.op.get(), valid};
}

ReplayTraceSource::ReplayTraceSource(
    std::shared_ptr<const MaterializedTrace> trace)
    : trace_(std::move(trace)), staging_(kStageRecords)
{
    FPC_ASSERT(trace_ != nullptr);
}

void
ReplayTraceSource::restage()
{
    base_ += stageLen_;
    const std::uint64_t remaining =
        trace_->size() > base_ ? trace_->size() - base_ : 0;
    stageLen_ = static_cast<std::size_t>(
        std::min<std::uint64_t>(kStageRecords, remaining));
    pos_ = 0;
    if (stageLen_ > 0)
        trace_->fill(base_, staging_.data(), stageLen_);
}

bool
ReplayTraceSource::next(unsigned core_id, TraceRecord &out)
{
    (void)core_id;
    acquired_ = 0; // any previously acquired span is now stale
    if (pos_ == stageLen_) {
        restage();
        if (stageLen_ == 0)
            return false;
    }
    out = staging_[pos_++];
    return true;
}

std::size_t
ReplayTraceSource::acquire(unsigned core_id, TraceRecord *&span)
{
    (void)core_id;
    if (pos_ == stageLen_)
        restage();
    acquired_ = stageLen_ - pos_;
    span = acquired_ ? staging_.data() + pos_ : nullptr;
    return acquired_;
}

void
ReplayTraceSource::skip(std::size_t n)
{
    FPC_ASSERT(n <= acquired_);
    acquired_ -= n;
    pos_ += n;
}

void
ReplayTraceSource::fastForward(std::uint64_t n)
{
    // The arena is random access, so skipping is a cursor move —
    // the O(1) jump sampled mode's per-interval fast-forward
    // relies on (clamped at the arena end like the drain loop the
    // base class runs).
    seekTo(std::min<std::uint64_t>(consumed() + n,
                                   trace_->size()));
}

void
ReplayTraceSource::seekTo(std::uint64_t index)
{
    FPC_ASSERT(index <= trace_->size());
    base_ = index;
    stageLen_ = 0;
    pos_ = 0;
    acquired_ = 0;
}

} // namespace fpc
