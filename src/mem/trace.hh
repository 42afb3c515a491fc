/**
 * @file
 * Trace source abstractions.
 *
 * The simulators are trace driven: every core pulls TraceRecords
 * from a TraceSource. Sources include in-memory vectors (tests),
 * binary files (captured traces) and the synthetic workload engine
 * (src/workload).
 */

#ifndef FPC_MEM_TRACE_HH
#define FPC_MEM_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"

namespace fpc {

/** Producer of a per-core stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record for core @p core_id.
     *
     * @return false when the stream is exhausted.
     */
    virtual bool next(unsigned core_id, TraceRecord &out) = 0;

    /**
     * Zero-copy batch access: expose a span of ready records for
     * @p core_id without copying, or return 0 when the source
     * cannot (consumers then fall back to next()). The span stays
     * valid until the next call into the source; consume it with
     * skip(). Only sources whose stream is core-agnostic can
     * support this (the records are handed to whichever core the
     * caller is currently driving).
     */
    virtual std::size_t
    acquire(unsigned core_id, TraceRecord *&span)
    {
        (void)core_id;
        span = nullptr;
        return 0;
    }

    /** Consume @p n records previously exposed by acquire(). */
    virtual void skip(std::size_t n) { (void)n; }

    /**
     * True when a span exposed by acquire() may be consumed on
     * behalf of *any* core, not just the one that acquired it —
     * the single-stream sources qualify; core-routed sources (the
     * TenantMixSource) do not, and consumers must then dispatch
     * per record via next()/per-core acquire+skip instead of
     * riding one span across cores.
     */
    virtual bool coreAgnostic() const { return true; }

    /**
     * Discard the next @p n records of the shared stream without
     * handing them to any core. The default drains through
     * acquire()/skip() (falling back to next()), so any source
     * stays stream-position-compatible with the seekable replay
     * sources that override this with an O(1) jump. Only valid on
     * core-agnostic sources: skipping a core-routed stream would
     * silently unbalance the per-core queues.
     */
    virtual void fastForward(std::uint64_t n);
};

/** Fixed sequence of records, round-robined to every core. */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceRecord> records,
                               unsigned num_cores = 1);

    bool next(unsigned core_id, TraceRecord &out) override;

  private:
    std::vector<TraceRecord> records_;
    std::vector<std::size_t> cursor_;
};

/**
 * Binary trace file format: a fixed 24-byte little-endian record
 * (paddr u64, pc u64, computeGap u32, coreId u16, op u8, pad u8).
 */
struct TraceFileRecord
{
    std::uint64_t paddr;
    std::uint64_t pc;
    std::uint32_t compute_gap;
    std::uint16_t core_id;
    std::uint8_t op;
    std::uint8_t pad;
};

static_assert(sizeof(TraceFileRecord) == 24,
              "trace file record must be exactly 24 bytes");

/** Writes trace records to a binary file. */
class TraceFileWriter
{
  public:
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void append(const TraceRecord &rec);
    std::uint64_t recordsWritten() const { return written_; }

  private:
    std::FILE *file_;
    std::uint64_t written_ = 0;
};

/** Streams one binary trace file; records routed by coreId. */
class TraceFileReader : public TraceSource
{
  public:
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    bool next(unsigned core_id, TraceRecord &out) override;

  private:
    bool refill(unsigned core_id);

    std::FILE *file_;
    std::string path_;
    /** Per-core lookahead buffers (records demultiplexed by core). */
    std::vector<std::vector<TraceRecord>> pending_;
    bool eof_ = false;
};

} // namespace fpc

#endif // FPC_MEM_TRACE_HH
