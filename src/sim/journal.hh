/**
 * @file
 * On-disk checkpoint journal of completed sweep points.
 *
 * Long sweeps on fault-throttled runners must never pay for a
 * CPU-hour twice: as each point finishes (success or terminal
 * failure), its full PointResult is persisted to one file in the
 * journal directory — written to a temp name, fsync'd, then
 * atomically renamed, so a crash mid-write leaves either the old
 * state or the new, never a torn entry. `sweep --resume` loads
 * the directory, skips every journaled key, and merges the stored
 * results into the final report byte-identically to an
 * uninterrupted run (point keys plus trace-identity seeds make
 * results schedule-independent, so the merge is exact: doubles
 * round-trip through hex-float serialization).
 *
 * Entries record the options they were produced under (scale,
 * base seed, and the point's telemetry and sampling settings); an
 * entry whose options differ from the resuming point's is stale
 * and ignored (the point simply re-runs). Truncated or corrupt
 * files are skipped the same way — a damaged journal costs a
 * re-run, never a crash or a wrong merge.
 */

#ifndef FPC_SIM_JOURNAL_HH
#define FPC_SIM_JOURNAL_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "sim/sweep.hh"

namespace fpc {

/**
 * The options a journal entry was produced under. A resumed point
 * takes its journaled result only when these equal the options it
 * would run under now (its key names the rest of its
 * configuration).
 */
struct JournalOptions
{
    double scale = 0.0;
    std::uint64_t baseSeed = 0;
    TelemetryConfig telemetry;
    SamplingConfig sampling;

    /** The options @p point runs under. */
    static JournalOptions of(const ExperimentPoint &point);

    bool operator==(const JournalOptions &) const = default;
};

/** One loaded journal entry: the result plus the options it was
 * produced under (checked against the resuming run's point). */
struct JournalEntry : JournalOptions
{
    PointResult result;
};

/** Checkpoint journal over one directory (see file comment). */
class SweepJournal
{
  public:
    explicit SweepJournal(std::string dir);

    /**
     * Create the directory (and parents) if missing. Prints to
     * stderr and returns false on failure.
     */
    bool open() const;

    /**
     * Parse every journal file in the directory into @p out
     * (keyed by point key). Corrupt, truncated or alien files
     * are skipped. Returns the number of entries loaded.
     */
    std::size_t
    load(std::unordered_map<std::string, JournalEntry> &out) const;

    /**
     * Persist @p result for @p point atomically (temp file,
     * fsync, rename). Failures warn and return false — losing a
     * journal entry costs a future resume one re-run, which is
     * never worth killing the sweep over.
     */
    bool append(const ExperimentPoint &point,
                const PointResult &result) const;

    const std::string &dir() const { return dir_; }

    /** Journal file name of one point key (stable, collision-
     * hardened: sanitized prefix + FNV-1a hash of the full key). */
    static std::string fileNameFor(const std::string &key);

    /** Serialize one entry (exposed for corruption tests). */
    static std::string serialize(const ExperimentPoint &point,
                                 const PointResult &result);

    /** Serialize a loaded entry under its @p key; parsing the
     * output yields the same entry. */
    static std::string serialize(const std::string &key,
                                 const JournalEntry &entry);

    /**
     * Parse one serialized entry. Returns false (leaving @p key
     * and @p entry unspecified) on any truncation or corruption.
     */
    static bool parse(const std::string &text, std::string &key,
                      JournalEntry &entry);

  private:
    std::string dir_;
};

} // namespace fpc

#endif // FPC_SIM_JOURNAL_HH
