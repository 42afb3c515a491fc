/**
 * @file
 * The synthetic trace engine.
 *
 * Visits (one page being processed by one code path) live in a
 * schedule ordered by due record-count. Each step pops the due
 * visit, emits one burst of its script (block accesses with
 * per-block repeats, write mix and compute gaps), and reschedules
 * the visit spreadRecords later; new visits are started whenever
 * the schedule has nothing due, which self-balances the in-flight
 * population. A page's class, pattern and alignment shift are
 * deterministic functions of its page number, so revisits replay
 * the same footprint — exactly the code/data correlation the FHT
 * exploits (§3.1).
 */

#ifndef FPC_WORKLOAD_GENERATOR_HH
#define FPC_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "mem/materialized_trace.hh"
#include "mem/trace.hh"
#include "workload/spec.hh"

namespace fpc {

/** Trace source generating a WorkloadSpec's access stream. */
class SyntheticTraceSource : public TraceSource
{
  public:
    explicit SyntheticTraceSource(const WorkloadSpec &spec);

    bool next(unsigned core_id, TraceRecord &out) override;
    std::size_t acquire(unsigned core_id,
                        TraceRecord *&span) override;
    void skip(std::size_t n) override;
    void reset() override;

    /** Distinct page visits started so far. */
    std::uint64_t visitsStarted() const { return visits_started_; }

    /** Records consumed (via next or skip) so far. */
    std::uint64_t
    consumed() const
    {
        return emitted_ - (pending_.size() - pending_pos_);
    }

    const WorkloadSpec &spec() const { return spec_; }

    /** Zipf exponent of the hot subset's page sampler. */
    static constexpr double kHotZipfS = 0.8;

  private:
    /** One access function: ordered offsets + a PC per position. */
    struct Pattern
    {
        std::vector<std::uint8_t> offsets;
        Pc pcBase = 0;
        std::uint32_t epoch = 0;
        std::uint64_t visitsSinceDrift = 0;
    };

    struct Visit
    {
        Addr pageId = 0;
        std::uint32_t classIdx = 0;
        std::uint32_t patternIdx = 0;
        std::uint32_t noiseSeed = 0;
        std::uint16_t pos = 0;
        std::uint16_t scriptLen = 0;
        std::uint8_t shift = 0;
        std::uint8_t noiseCount = 0;
    };

    struct Scheduled
    {
        std::uint64_t due;
        std::uint64_t seq;
        Visit visit;

        bool
        operator>(const Scheduled &other) const
        {
            if (due != other.due)
                return due > other.due;
            return seq > other.seq;
        }
    };

    void init();
    void refill();
    void startVisit();
    void emitBurst(Visit &visit);
    void emitAccess(Addr page_id, unsigned block, Pc pc);
    unsigned resolveOffset(const Visit &visit,
                           const Pattern &pattern,
                           unsigned pos) const;
    Pattern &patternOf(const Visit &visit);
    void maybeDrift(std::uint32_t class_idx, Pattern &pattern);
    void regenerateOffsets(std::uint32_t class_idx,
                           Pattern &pattern,
                           std::uint64_t epoch_seed);

    /** Records generated ahead per refill of the batch buffer. */
    static constexpr std::size_t kBatchRecords = 2048;

    WorkloadSpec spec_;
    unsigned blocks_per_page_;
    /**
     * gapMax - gapMin + 1 (single-draw gap selection); 64-bit so
     * a range spanning the whole 32-bit domain cannot wrap to 0.
     */
    std::uint64_t gap_span_;
    /**
     * writeFraction scaled to 2^32 (single-draw op selection);
     * 64-bit so a fraction of 1.0 maps to exactly 2^32, above
     * every possible 32-bit coin.
     */
    std::uint64_t write_threshold_;
    Rng rng_;
    AliasZipfSampler page_zipf_;
    AliasZipfSampler hot_zipf_;

    /** Per-class pattern tables. */
    std::vector<std::vector<Pattern>> patterns_;

    /** Cumulative class weights for visit-start selection. */
    std::vector<double> class_cdf_;

    std::priority_queue<Scheduled, std::vector<Scheduled>,
                        std::greater<>>
        schedule_;
    /**
     * Batch buffer: bursts are generated kBatchRecords ahead into
     * a flat vector served by cursor, replacing a per-record deque
     * pop. Generation state never depends on consumption, so the
     * emitted stream is identical to unbatched generation.
     */
    std::vector<TraceRecord> pending_;
    std::size_t pending_pos_ = 0;
    /**
     * Records of the last acquire()d span not yet skip()ped: a
     * skip past the exposed span would silently desync the cores'
     * shared stream, so skip() checks against it.
     */
    std::size_t acquired_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t sched_seq_ = 0;
    std::uint64_t scan_next_page_ = 0;
    std::uint64_t visits_started_ = 0;
};

/**
 * Generate the first @p records of @p spec's stream into @p out
 * exactly as a fresh SyntheticTraceSource would emit them (the
 * bit-identity tests/test_trace_cache.cc relies on). Throws
 * PointCancelledError once @p deadline has passed (checked every
 * 4096 records; the source's constructor is not interruptible).
 */
void materializeTrace(const WorkloadSpec &spec,
                      std::uint64_t records,
                      MaterializedTrace &out,
                      Deadline deadline = kNoDeadline);

} // namespace fpc

#endif // FPC_WORKLOAD_GENERATOR_HH
