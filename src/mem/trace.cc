#include "mem/trace.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace fpc {

void
TraceSource::fastForward(std::uint64_t n)
{
    FPC_ASSERT(coreAgnostic());
    while (n > 0) {
        TraceRecord *span = nullptr;
        const std::size_t avail = acquire(0, span);
        if (avail > 0) {
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(avail, n));
            skip(take);
            n -= take;
            continue;
        }
        TraceRecord rec;
        if (!next(0, rec))
            break;
        --n;
    }
}

VectorTraceSource::VectorTraceSource(std::vector<TraceRecord> records,
                                     unsigned num_cores)
    : records_(std::move(records)), cursor_(num_cores, 0)
{
    FPC_ASSERT(num_cores > 0);
}

bool
VectorTraceSource::next(unsigned core_id, TraceRecord &out)
{
    FPC_ASSERT(core_id < cursor_.size());
    // Core c consumes records c, c+N, c+2N, ... so multi-core tests
    // see a deterministic partition of the shared sequence.
    std::size_t idx =
        cursor_[core_id] * cursor_.size() + core_id;
    if (idx >= records_.size())
        return false;
    out = records_[idx];
    out.req.coreId = static_cast<std::uint16_t>(core_id);
    ++cursor_[core_id];
    return true;
}

TraceFileWriter::TraceFileWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb"))
{
    if (!file_)
        fatal("cannot open trace file for writing: %s", path.c_str());
}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        std::fclose(file_);
}

void
TraceFileWriter::append(const TraceRecord &rec)
{
    TraceFileRecord raw{};
    raw.paddr = rec.req.paddr;
    raw.pc = rec.req.pc;
    raw.compute_gap = rec.computeGap;
    raw.op = static_cast<std::uint8_t>(rec.req.op);
    raw.core_id = rec.req.coreId;
    raw.pad = 0;
    if (std::fwrite(&raw, sizeof(raw), 1, file_) != 1)
        fatal("short write to trace file");
    ++written_;
}

TraceFileReader::TraceFileReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path)
{
    if (!file_)
        fatal("cannot open trace file for reading: %s", path.c_str());
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceFileReader::refill(unsigned core_id)
{
    // Read ahead until a record for core_id shows up or EOF.
    while (!eof_) {
        TraceFileRecord raw;
        const std::size_t got =
            std::fread(&raw, 1, sizeof(raw), file_);
        if (got != sizeof(raw)) {
            // Only a clean record boundary is end-of-stream; a
            // partial record or a stream error means the file is
            // corrupt or unreadable, which must not be mistaken
            // for a (shorter) valid trace.
            if (std::ferror(file_)) {
                fatal("trace file %s: read error",
                      path_.c_str());
            }
            if (got != 0) {
                fatal("trace file %s: truncated record (%zu of "
                      "%zu bytes)",
                      path_.c_str(), got, sizeof(raw));
            }
            eof_ = true;
            break;
        }
        if (raw.core_id >= pending_.size())
            pending_.resize(raw.core_id + 1);
        TraceRecord rec;
        rec.computeGap = raw.compute_gap;
        rec.req.paddr = raw.paddr;
        rec.req.pc = raw.pc;
        rec.req.op = static_cast<MemOp>(raw.op);
        rec.req.coreId = raw.core_id;
        pending_[raw.core_id].push_back(rec);
        if (raw.core_id == core_id)
            return true;
    }
    return core_id < pending_.size() && !pending_[core_id].empty();
}

bool
TraceFileReader::next(unsigned core_id, TraceRecord &out)
{
    if (core_id >= pending_.size())
        pending_.resize(core_id + 1);
    if (pending_[core_id].empty() && !refill(core_id))
        return false;
    out = pending_[core_id].front();
    pending_[core_id].erase(pending_[core_id].begin());
    return true;
}

} // namespace fpc
