/**
 * @file
 * Materialized trace arena and its replay source.
 *
 * Cross-design sweeps (the frontier experiment, every paired
 * figure) run many ExperimentPoints over the *same* trace
 * identity. Regenerating the synthetic stream per point is pure
 * redundant work, so a trace is generated exactly once into a
 * MaterializedTrace — a compact, chunked, cache-friendly columnar
 * (SoA) arena of addr/pc/gap/op streams — and every point replays
 * it through a ReplayTraceSource, which serves the immutable arena
 * via the TraceSource batch (acquire/skip) API.
 *
 * The arena is chunked so generation can stream: the producer
 * appends record spans and only the current chunk is ever
 * resized. Readers reassemble records into a small per-source
 * staging buffer, which keeps the shared arena strictly read-only
 * (consumers are allowed to stamp coreId into the spans they
 * acquire — they only ever touch their own staging copy).
 */

#ifndef FPC_MEM_MATERIALIZED_TRACE_HH
#define FPC_MEM_MATERIALIZED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/request.hh"
#include "mem/trace.hh"
#include "mem/trace_cache.hh"

namespace fpc {

/** Immutable-once-built columnar arena of one trace identity. */
class MaterializedTrace : public TraceCacheEntry
{
  public:
    /**
     * Records per chunk (2^20 records, 21 MiB of columns). Large
     * chunks keep the allocator in large-mapping territory: a
     * sweep builds and drops gigabytes of arena data, and many
     * small column vectors would churn mmap/munmap (and their
     * TLB shootdowns) under a multi-threaded runner.
     */
    static constexpr std::size_t kChunkRecords = 1u << 20;

    /** Bytes of column data per record (addr + pc + gap + op). */
    static constexpr std::uint64_t kBytesPerRecord =
        sizeof(Addr) + sizeof(Pc) + sizeof(std::uint32_t) +
        sizeof(std::uint8_t);

    /** Append @p n records to the arena (producer side). */
    void append(const TraceRecord *recs, std::size_t n);

    /** Records stored. */
    std::uint64_t size() const { return size_; }

    /**
     * Reassemble @p n records starting at index @p begin into
     * @p out. coreId is left 0 (consumers stamp their own).
     * [begin, begin + n) must be within the arena.
     */
    void fill(std::uint64_t begin, TraceRecord *out,
              std::size_t n) const;

    /** Column data footprint (TraceCache budget accounting). */
    std::uint64_t
    cacheBytes() const override
    {
        return size_ * kBytesPerRecord;
    }

    /** One chunk's column spans (for columnar consumers). */
    struct ChunkView
    {
        const Addr *paddr;
        const Pc *pc;
        const std::uint32_t *gap;
        const std::uint8_t *op;
        std::size_t records;
    };

    std::size_t numChunks() const { return chunks_.size(); }
    ChunkView chunk(std::size_t i) const;

  private:
    /** kChunkRecords slots per column; uninitialized past the
     * records appended. */
    struct Chunk
    {
        std::unique_ptr<Addr[]> paddr;
        std::unique_ptr<Pc[]> pc;
        std::unique_ptr<std::uint32_t[]> gap;
        std::unique_ptr<std::uint8_t[]> op;
    };

    std::vector<Chunk> chunks_;
    std::uint64_t size_ = 0;
};

/**
 * Read-only TraceSource over a shared MaterializedTrace.
 *
 * The stream is core-agnostic, exactly like the synthetic
 * generator: next()/acquire() hand records to whichever core the
 * caller is driving. Several ReplayTraceSources can read one
 * arena concurrently; each has a private staging buffer, so the
 * coreId stamping the pod engine performs on acquired spans never
 * touches shared memory.
 */
class ReplayTraceSource : public TraceSource
{
  public:
    explicit ReplayTraceSource(
        std::shared_ptr<const MaterializedTrace> trace);

    bool next(unsigned core_id, TraceRecord &out) override;
    std::size_t acquire(unsigned core_id,
                        TraceRecord *&span) override;
    void skip(std::size_t n) override;
    void reset() override;
    void fastForward(std::uint64_t n) override;

    /**
     * Position the stream at absolute record @p index (O(1)):
     * used when a warmup artifact replay consumed the warm window
     * without reading the trace.
     */
    void seekTo(std::uint64_t index);

    /** Records consumed (or skipped over) so far. */
    std::uint64_t
    consumed() const
    {
        return base_ + pos_;
    }

    const MaterializedTrace &trace() const { return *trace_; }

  private:
    /** Staging-buffer capacity (AoS records). */
    static constexpr std::size_t kStageRecords = 4096;

    void restage();

    std::shared_ptr<const MaterializedTrace> trace_;
    std::vector<TraceRecord> staging_;
    /** Arena index of staging_[0]. */
    std::uint64_t base_ = 0;
    /** Valid records in the staging buffer. */
    std::size_t stageLen_ = 0;
    /** Consumption cursor within the staging buffer. */
    std::size_t pos_ = 0;
    /**
     * Records of the last acquire()d span not yet skip()ped:
     * skip() must never consume past what was exposed — a
     * mismatch would silently desync the cores' streams.
     */
    std::size_t acquired_ = 0;
};

} // namespace fpc

#endif // FPC_MEM_MATERIALIZED_TRACE_HH
