/** @file Sweep checkpoint journal (see journal.hh). */

#include "sim/journal.hh"

#include <cctype>
#include <cinttypes>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/logging.hh"

namespace fpc {

namespace {

// v2 added the telemetry intervals section; v3 the sampled-mode
// timing fields; v4 the introspection probe columns (names,
// aggregate values, per-interval deltas) and the spatial heatmap;
// v5 writes every counter line in its table's order (see
// common/counters.hh), which moved trace_records in the interval
// line. Older entries fail the magic check and the point simply
// re-runs — safe by design.
constexpr const char *kMagic = "fpcjournal 5";
constexpr const char *kSuffix = ".pt";

/** FNV-1a (matches the sweep key hash). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
appendFmt(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/**
 * Doubles are serialized as hex floats ("%a"): exact round trip,
 * so a resumed report renders byte-identically to the original.
 */
void
appendDouble(std::string &out, double v)
{
    appendFmt(out, "%a", v);
}

/** Length-prefixed raw string: survives newlines and any bytes
 * an exception message can carry. */
void
appendRaw(std::string &out, const std::string &s)
{
    appendFmt(out, "%zu ", s.size());
    out += s;
}

void
appendValue(std::string &out, std::uint64_t v)
{
    appendFmt(out, " %" PRIu64, v);
}

void
appendValue(std::string &out, double v)
{
    out += ' ';
    appendDouble(out, v);
}

void
appendValues(std::string &out, const std::vector<std::uint64_t> &v)
{
    for (std::uint64_t x : v)
        appendValue(out, x);
}

/** One counter line: @p tag, then every field of @p fields in
 * table order. */
template <typename Fields, typename S>
void
appendFields(std::string &out, const char *tag,
             const Fields &fields, const S &s)
{
    out += '\n';
    out += tag;
    for (const auto &f : fields)
        appendValue(out, s.*f.member);
}

/** Forward-only cursor over the serialized text; every taker
 * returns false on truncation or malformed input. */
struct Reader
{
    const std::string &text;
    std::size_t pos = 0;

    bool
    literal(const char *s)
    {
        const std::size_t n = std::strlen(s);
        if (text.compare(pos, n, s) != 0)
            return false;
        pos += n;
        return true;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n'))
            ++pos;
    }

    /** A section tag, after any separating whitespace. */
    bool
    tag(const char *s)
    {
        skipSpace();
        return literal(s);
    }

    bool
    u64(std::uint64_t &out)
    {
        skipSpace();
        if (pos >= text.size() || !std::isdigit(
                static_cast<unsigned char>(text[pos])))
            return false;
        char *end = nullptr;
        out = std::strtoull(text.c_str() + pos, &end, 10);
        pos = end - text.c_str();
        return true;
    }

    bool
    f64(double &out)
    {
        skipSpace();
        char *end = nullptr;
        out = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos)
            return false;
        pos = end - text.c_str();
        return true;
    }

    bool value(std::uint64_t &out) { return u64(out); }
    bool value(double &out) { return f64(out); }

    /** A counter line written by appendFields. */
    template <typename Fields, typename S>
    bool
    fields(const char *name, const Fields &fields, S &s)
    {
        if (!tag(name))
            return false;
        for (const auto &f : fields) {
            if (!value(s.*f.member))
                return false;
        }
        return true;
    }

    /**
     * @p count elements taken one by one with @p take, growing
     * @p v only as each one parses: a forged count costs at most
     * what the text itself can back, never a count-sized
     * allocation up front.
     */
    template <typename T, typename Take>
    bool
    list(std::uint64_t count, std::vector<T> &v, Take take)
    {
        v.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
            T item{};
            if (!take(item))
                return false;
            v.push_back(std::move(item));
        }
        return true;
    }

    /** @p count bare u64s (a vector column). */
    bool
    u64s(std::uint64_t count, std::vector<std::uint64_t> &v)
    {
        return list(count, v,
                    [this](std::uint64_t &b) { return u64(b); });
    }

    bool
    raw(std::string &out)
    {
        std::uint64_t n = 0;
        if (!u64(n))
            return false;
        if (pos >= text.size() || text[pos] != ' ')
            return false;
        ++pos;
        if (n > text.size() - pos)
            return false;
        out = text.substr(pos, n);
        pos += n;
        return true;
    }

    /** Rest of the current line (for the key). */
    bool
    line(std::string &out)
    {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }
};

} // namespace

SweepJournal::SweepJournal(std::string dir) : dir_(std::move(dir))
{
}

bool
SweepJournal::open() const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create journal dir %s: %s\n",
                     dir_.c_str(), ec.message().c_str());
        return false;
    }
    return true;
}

std::string
SweepJournal::fileNameFor(const std::string &key)
{
    // Readable prefix for humans poking at the directory, hash
    // suffix for uniqueness (keys contain '/', and labels can
    // exceed filesystem name limits).
    std::string name;
    for (char c : key) {
        const bool safe =
            std::isalnum(static_cast<unsigned char>(c)) ||
            c == '.' || c == '-' || c == '_' || c == '=';
        name += safe ? c : '_';
        if (name.size() >= 96)
            break;
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "-%016" PRIx64,
                  fnv1a(key));
    return name + hash + kSuffix;
}

namespace {

std::string
serializeEntry(const std::string &key, double scale,
               std::uint64_t base_seed, const PointResult &r)
{
    const RunMetrics &m = r.metrics;
    std::string out;
    out += kMagic;
    out += "\nkey ";
    out += key;
    out += "\nopts ";
    appendDouble(out, scale);
    appendFmt(out, " %" PRIu64, base_seed);
    appendFmt(out, "\nstatus %u %u ", r.failed ? 1u : 0u,
              r.attempts);
    appendDouble(out, r.elapsedSeconds);
    out += "\nerror ";
    appendRaw(out, r.error);
    appendFields(out, "metrics", PodCounters::kCounters, m);
    appendFields(out, "energy", RunMetrics::kEnergy, m);
    appendFmt(out, "\ntenants %zu", m.tenants.size());
    for (const TenantMetrics &t : m.tenants)
        appendFields(out, "tenant", TenantMetrics::kCounters, t);
    appendFmt(out,
              "\nfootprint %u %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 " %" PRIu64 " %" PRIu64,
              r.hasFootprint ? 1u : 0u, r.covered, r.underpred,
              r.overpred, r.trigMisses, r.singletonBypasses,
              r.densityPages);
    appendFmt(out, "\ndensity %zu", r.densityBuckets.size());
    appendValues(out, r.densityBuckets);
    appendFmt(out, "\nextras %zu", r.extra.size());
    for (const auto &[name, value] : r.extra) {
        out += "\nextra ";
        appendDouble(out, value);
        out += " ";
        appendRaw(out, name);
    }
    out += "\ntiming ";
    appendDouble(out, r.timing.traceSeconds);
    out += " ";
    appendDouble(out, r.timing.warmupSeconds);
    out += " ";
    appendDouble(out, r.timing.measureSeconds);
    appendFmt(out, " %u %u %u %u %u ",
              r.timing.replayedTrace ? 1u : 0u,
              r.timing.generatedTrace ? 1u : 0u,
              r.timing.replayedWarmup ? 1u : 0u,
              r.timing.builtWarmup ? 1u : 0u,
              r.timing.sampled ? 1u : 0u);
    appendDouble(out, r.timing.sampleFfSeconds);
    out += " ";
    appendDouble(out, r.timing.sampleTimedSeconds);
    appendFmt(out, "\nintervals %zu", r.intervals.size());
    for (const IntervalSample &iv : r.intervals) {
        appendFields(out, "interval", PodCounters::kCounters, iv);
        appendFmt(out, " %zu", iv.tenants.size());
        for (const TenantMetrics &t : iv.tenants) {
            appendFields(out, "itenant", TenantMetrics::kCounters,
                         t);
        }
        appendFmt(out, "\niprobe %zu", iv.probeValues.size());
        appendValues(out, iv.probeValues);
    }
    // v4: introspection probe columns and the spatial heatmap, so
    // a resumed sweep reproduces the --timeseries-out and
    // --heatmap-out artifacts without re-running the point.
    appendFmt(out, "\nprobenames %zu", r.probeNames.size());
    for (const std::string &name : r.probeNames) {
        out += "\npname ";
        appendRaw(out, name);
    }
    appendFmt(out, "\nprobevals %zu", m.probeValues.size());
    appendValues(out, m.probeValues);
    const HeatmapData &hm = r.heatmap;
    appendFmt(out,
              "\nheatmap %u %" PRIu64 " %" PRIu64 " %zu",
              hm.valid ? 1u : 0u, hm.numSets, hm.setsPerBin,
              hm.setAccess.size());
    const auto bins = [&out](const char *tag,
                             const std::vector<std::uint64_t> &v) {
        out += "\n";
        out += tag;
        appendValues(out, v);
    };
    bins("haccess", hm.setAccess);
    bins("hconflict", hm.setConflict);
    bins("hoccupancy", hm.setOccupancy);
    appendFmt(out, "\nhdrams %zu", hm.drams.size());
    for (const HeatmapData::DramGrid &g : hm.drams) {
        appendFmt(out, "\nhdram %u %u ", g.channels, g.banks);
        appendRaw(out, g.name);
        bins("hacts", g.activates);
        bins("hreads", g.reads);
        bins("hwrites", g.writes);
    }
    out += "\nend\n";
    return out;
}

} // namespace

std::string
SweepJournal::serialize(const ExperimentPoint &point,
                        const PointResult &result)
{
    return serializeEntry(point.key(), point.scale,
                          point.baseSeed, result);
}

std::string
SweepJournal::serialize(const std::string &key,
                        const JournalEntry &entry)
{
    return serializeEntry(key, entry.scale, entry.baseSeed,
                          entry.result);
}

bool
SweepJournal::parse(const std::string &text, std::string &key,
                    JournalEntry &entry)
{
    Reader in{text};
    JournalEntry e;
    PointResult &r = e.result;
    RunMetrics &m = r.metrics;

    if (!in.literal(kMagic) || !in.literal("\nkey "))
        return false;
    if (!in.line(key) || key.empty())
        return false;

    std::uint64_t failed = 0, attempts = 0;
    if (!in.literal("opts ") || !in.f64(e.scale) ||
        !in.u64(e.baseSeed))
        return false;
    if (!in.tag("status ") || !in.u64(failed) ||
        !in.u64(attempts) || !in.f64(r.elapsedSeconds))
        return false;
    if (failed > 1 || attempts == 0 || attempts > UINT_MAX)
        return false;
    r.failed = failed != 0;
    r.attempts = static_cast<unsigned>(attempts);
    if (!in.tag("error ") || !in.raw(r.error))
        return false;

    if (!in.fields("metrics", PodCounters::kCounters, m) ||
        !in.fields("energy", RunMetrics::kEnergy, m))
        return false;

    std::uint64_t count = 0;
    if (!in.tag("tenants") || !in.u64(count) ||
        count > 4096)
        return false;
    const auto tenant = [&in](const char *tag) {
        return [&in, tag](TenantMetrics &t) {
            return in.fields(tag, TenantMetrics::kCounters, t);
        };
    };
    if (!in.list(count, m.tenants, tenant("tenant")))
        return false;

    std::uint64_t has_fp = 0;
    if (!in.tag("footprint") || !in.u64(has_fp) ||
        has_fp > 1 || !in.u64(r.covered) ||
        !in.u64(r.underpred) || !in.u64(r.overpred) ||
        !in.u64(r.trigMisses) || !in.u64(r.singletonBypasses) ||
        !in.u64(r.densityPages))
        return false;
    r.hasFootprint = has_fp != 0;

    if (!in.tag("density") || !in.u64(count) ||
        count > 1u << 20 || !in.u64s(count, r.densityBuckets))
        return false;

    if (!in.tag("extras") || !in.u64(count) ||
        count > 1u << 20)
        return false;
    const bool extras_ok = in.list(
        count, r.extra, [&in](std::pair<std::string, double> &x) {
            return in.tag("extra ") && in.f64(x.second) &&
                   in.raw(x.first);
        });
    if (!extras_ok)
        return false;

    std::uint64_t flags[5];
    if (!in.tag("timing ") ||
        !in.f64(r.timing.traceSeconds) ||
        !in.f64(r.timing.warmupSeconds) ||
        !in.f64(r.timing.measureSeconds) || !in.u64(flags[0]) ||
        !in.u64(flags[1]) || !in.u64(flags[2]) ||
        !in.u64(flags[3]) || !in.u64(flags[4]) ||
        !in.f64(r.timing.sampleFfSeconds) ||
        !in.f64(r.timing.sampleTimedSeconds))
        return false;
    r.timing.replayedTrace = flags[0] != 0;
    r.timing.generatedTrace = flags[1] != 0;
    r.timing.replayedWarmup = flags[2] != 0;
    r.timing.builtWarmup = flags[3] != 0;
    r.timing.sampled = flags[4] != 0;

    if (!in.tag("intervals") || !in.u64(count) ||
        count > 1u << 24)
        return false;
    const bool intervals_ok =
        in.list(count, r.intervals, [&](IntervalSample &iv) {
            std::uint64_t n = 0;
            if (!in.fields("interval", PodCounters::kCounters,
                           iv) ||
                !in.u64(n) || n > 4096 ||
                !in.list(n, iv.tenants, tenant("itenant")))
                return false;
            return in.tag("iprobe") && in.u64(n) &&
                   n <= 1u << 16 && in.u64s(n, iv.probeValues);
        });
    if (!intervals_ok)
        return false;

    if (!in.tag("probenames") || !in.u64(count) ||
        count > 1u << 16)
        return false;
    const bool names_ok =
        in.list(count, r.probeNames, [&in](std::string &name) {
            return in.tag("pname ") && in.raw(name);
        });
    if (!names_ok)
        return false;
    if (!in.tag("probevals") || !in.u64(count) ||
        count > 1u << 16 || !in.u64s(count, m.probeValues))
        return false;

    HeatmapData &hm = r.heatmap;
    std::uint64_t hm_valid = 0, bin_count = 0;
    if (!in.tag("heatmap") || !in.u64(hm_valid) ||
        hm_valid > 1 || !in.u64(hm.numSets) ||
        !in.u64(hm.setsPerBin) || !in.u64(bin_count) ||
        bin_count > 1u << 16)
        return false;
    hm.valid = hm_valid != 0;
    const auto column = [&in](const char *tag, std::uint64_t n,
                              std::vector<std::uint64_t> &v) {
        return in.tag(tag) && in.u64s(n, v);
    };
    if (!column("haccess", bin_count, hm.setAccess) ||
        !column("hconflict", bin_count, hm.setConflict) ||
        !column("hoccupancy", bin_count, hm.setOccupancy))
        return false;
    if (!in.tag("hdrams") || !in.u64(count) || count > 64)
        return false;
    const bool drams_ok = in.list(
        count, hm.drams, [&](HeatmapData::DramGrid &g) {
            std::uint64_t channels = 0, banks = 0;
            if (!in.tag("hdram") || !in.u64(channels) ||
                !in.u64(banks) || channels > 4096 || banks > 4096)
                return false;
            g.channels = static_cast<unsigned>(channels);
            g.banks = static_cast<unsigned>(banks);
            const std::uint64_t cells = channels * banks;
            return in.raw(g.name) &&
                   column("hacts", cells, g.activates) &&
                   column("hreads", cells, g.reads) &&
                   column("hwrites", cells, g.writes);
        });
    if (!drams_ok)
        return false;

    if (!in.tag("end"))
        return false;

    entry = std::move(e);
    return true;
}

std::size_t
SweepJournal::load(
    std::unordered_map<std::string, JournalEntry> &out) const
{
    std::error_code ec;
    std::filesystem::directory_iterator it(
        dir_,
        std::filesystem::directory_options::
            skip_permission_denied,
        ec);
    if (ec)
        return 0;
    std::size_t loaded = 0;
    for (const auto &dirent : it) {
        if (!dirent.is_regular_file())
            continue;
        const std::string path = dirent.path().string();
        if (path.size() < std::strlen(kSuffix) ||
            path.compare(path.size() - std::strlen(kSuffix),
                         std::string::npos, kSuffix) != 0)
            continue;
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f)
            continue;
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);

        std::string key;
        JournalEntry entry;
        if (!parse(text, key, entry)) {
            warn("journal: skipping corrupt entry %s "
                 "(the point will re-run)",
                 path.c_str());
            continue;
        }
        out[key] = std::move(entry);
        ++loaded;
    }
    return loaded;
}

bool
SweepJournal::append(const ExperimentPoint &point,
                     const PointResult &result) const
{
    const std::string content = serialize(point, result);
    const std::string final_path =
        dir_ + "/" + fileNameFor(point.key());
    const std::string tmp_path = final_path + ".tmp";

    try {
        faultPoint("journal-write", point.key());
    } catch (const std::exception &e) {
        warn("journal: cannot write %s: %s", final_path.c_str(),
             e.what());
        return false;
    }

    std::FILE *f = std::fopen(tmp_path.c_str(), "wb");
    if (!f) {
        warn("journal: cannot open %s", tmp_path.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(content.data(), 1, content.size(), f) ==
            content.size() &&
        std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!wrote || std::rename(tmp_path.c_str(),
                              final_path.c_str()) != 0) {
        warn("journal: cannot persist %s", final_path.c_str());
        std::remove(tmp_path.c_str());
        return false;
    }

    // Make the rename itself durable: fsync the directory so a
    // machine crash cannot forget a completed point.
    const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

} // namespace fpc
