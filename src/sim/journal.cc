/** @file Sweep checkpoint journal (see journal.hh). */

#include "sim/journal.hh"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace fpc {

namespace {

// v2 added the telemetry intervals section; v3 the sampled-mode
// timing fields; v4 the introspection probe columns (names,
// aggregate values, per-interval deltas) and the spatial heatmap;
// v5 writes every counter line in its table's order (see
// common/counters.hh), which moved trace_records in the interval
// line; v6 the telemetry and sampling settings the point ran
// under. Older entries fail the magic check and the point simply
// re-runs — safe by design. The format itself is walkEntry()
// below: adding a field means editing the walk, bumping kMagic
// and adding a line here.
constexpr const char *kMagic = "fpcjournal 6";
constexpr const char *kSuffix = ".pt";

/**
 * Appends each field walkEntry() visits. Every tag starts a new
 * line and every value is preceded by one space; doubles are hex
 * floats ("%a": exact round trip, so a resumed report renders
 * byte-identically) and strings are length-prefixed ("len bytes":
 * they survive newlines and any bytes an exception message can
 * carry). The writer emits what it is given; only the reader
 * judges limits.
 */
struct Writer
{
    std::string out;

    bool
    literal(const char *s)
    {
        out += s;
        return true;
    }

    bool
    tag(const char *s)
    {
        out += '\n';
        out += s;
        return true;
    }

    template <typename T>
    bool
    value(const T &v)
    {
        if constexpr (std::is_floating_point_v<T>)
            appendFmt(out, " %a", v);
        else
            appendFmt(out, " %" PRIu64,
                      static_cast<std::uint64_t>(v));
        return true;
    }

    bool
    raw(const std::string &s)
    {
        appendFmt(out, " %zu ", s.size());
        out += s;
        return true;
    }

    /** The rest of the line (the key). */
    bool
    line(const std::string &s)
    {
        out += ' ';
        out += s;
        return true;
    }

    bool valid(bool) { return true; }

    /** Every element of @p v (the count was written before it). */
    template <typename V, typename Take>
    bool
    each(std::uint64_t, const V &v, Take take)
    {
        for (const auto &item : v)
            take(item);
        return true;
    }
};

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
        errno = 0;
        out = std::strtoull(text.c_str() + pos, &end, 10);
        pos = end - text.c_str();
        return errno != ERANGE;
    }

    /** A finite double: the writer never emits inf, nan or an
     * out-of-range literal, and a resumed report could not
     * render one as JSON. */
    bool
    f64(double &out)
    {
        skipSpace();
        char *end = nullptr;
        errno = 0;
        out = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos)
            return false;
        pos = end - text.c_str();
        return errno != ERANGE && std::isfinite(out);
    }

    /** A double, or a u64 that must fit @p T (bool: 0 or 1). */
    template <typename T>
    bool
    value(T &out)
    {
        if constexpr (std::is_floating_point_v<T>) {
            return f64(out);
        } else {
            std::uint64_t v = 0;
            const std::uint64_t max =
                std::is_same_v<T, bool>
                    ? 1
                    : std::numeric_limits<T>::max();
            if (!u64(v) || v > max)
                return false;
            out = static_cast<T>(v);
            return true;
        }
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

    /** The rest of the line (the key, never empty). */
    bool
    line(std::string &out)
    {
        if (!literal(" "))
            return false;
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return !out.empty();
    }

    bool valid(bool ok) { return ok; }

    /**
     * @p count elements taken one by one with @p take, growing
     * @p v only as each one parses: a forged count costs at most
     * what the text itself can back, never a count-sized
     * allocation up front.
     */
    template <typename V, typename Take>
    bool
    each(std::uint64_t count, V &v, Take take)
    {
        v.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
            typename V::value_type item{};
            if (!take(item))
                return false;
            v.push_back(std::move(item));
        }
        return true;
    }
};

/** A count of at most @p limit, then that many elements of @p v
 * taken with @p take. */
template <typename IO, typename V, typename Take>
bool
list(IO &io, V &v, std::uint64_t limit, Take take)
{
    std::uint64_t n = v.size();
    return io.value(n) && io.valid(n <= limit) &&
           io.each(n, v, take);
}

/** A counted list of bare values. */
template <typename IO, typename V>
bool
values(IO &io, V &v, std::uint64_t limit)
{
    return list(io, v, limit,
                [&io](auto &x) { return io.value(x); });
}

/** @p tag, then @p n bare values counted by an earlier field. */
template <typename IO, typename V>
bool
column(IO &io, const char *tag, std::uint64_t n, V &v)
{
    return io.tag(tag) &&
           io.each(n, v, [&io](auto &x) { return io.value(x); });
}

/** One counter line: @p tag, then every field of @p fields in
 * table order. */
template <typename IO, typename Fields, typename S>
bool
counters(IO &io, const char *tag, const Fields &fields, S &s)
{
    if (!io.tag(tag))
        return false;
    for (const auto &f : fields) {
        if (!io.value(s.*f.member))
            return false;
    }
    return true;
}

/**
 * The journal format, declared once: every field of one entry in
 * file order, with each list's count limit beside it. Writer
 * serializes through it and Reader parses and range-checks
 * through it, so the two directions cannot drift apart.
 */
template <typename IO, typename Key, typename O, typename R>
bool
walkEntry(IO &io, Key &key, O &o, R &r)
{
    auto &t = o.telemetry;
    auto &sc = o.sampling;
    auto &m = r.metrics;
    auto &tm = r.timing;
    auto &hm = r.heatmap;
    const auto tenant = [&io](const char *tag) {
        return [&io, tag](auto &slice) {
            return counters(io, tag, TenantMetrics::kCounters,
                            slice);
        };
    };
    const auto grid = [&io](auto &g) {
        if (!io.tag("hdram") || !io.value(g.channels) ||
            !io.value(g.banks) ||
            !io.valid(g.channels <= 4096 && g.banks <= 4096) ||
            !io.raw(g.name))
            return false;
        const std::uint64_t cells =
            std::uint64_t{g.channels} * g.banks;
        return column(io, "hacts", cells, g.activates) &&
               column(io, "hreads", cells, g.reads) &&
               column(io, "hwrites", cells, g.writes);
    };
    std::uint64_t bins = hm.setAccess.size();

    return io.literal(kMagic) && io.tag("key") && io.line(key) &&
           io.tag("opts") && io.value(o.scale) &&
           io.value(o.baseSeed) &&
           io.tag("telemetry") && io.value(t.intervalRecords) &&
           io.value(t.histograms) &&
           io.value(t.missAttributionStride) &&
           io.value(t.designProbes) && io.value(t.heatmaps) &&
           io.value(t.shadowCapacityBytes) &&
           io.tag("sampling") && io.value(sc.enabled) &&
           io.value(sc.intervals) && io.value(sc.intervalRecords) &&
           io.value(sc.rampRecords) && io.value(sc.targetCi) &&
           io.value(sc.minIntervals) &&
           io.tag("status") && io.value(r.failed) &&
           io.value(r.attempts) && io.valid(r.attempts != 0) &&
           io.value(r.elapsedSeconds) &&
           io.tag("error") && io.raw(r.error) &&
           counters(io, "metrics", PodCounters::kCounters, m) &&
           counters(io, "energy", RunMetrics::kEnergy, m) &&
           io.tag("tenants") &&
           list(io, m.tenants, 4096, tenant("tenant")) &&
           io.tag("footprint") && io.value(r.hasFootprint) &&
           io.value(r.covered) && io.value(r.underpred) &&
           io.value(r.overpred) && io.value(r.trigMisses) &&
           io.value(r.singletonBypasses) &&
           io.value(r.densityPages) &&
           io.tag("density") &&
           values(io, r.densityBuckets, 1u << 20) &&
           io.tag("extras") &&
           list(io, r.extra, 1u << 20,
                [&io](auto &x) {
                    return io.tag("extra") && io.value(x.second) &&
                           io.raw(x.first);
                }) &&
           io.tag("timing") && io.value(tm.traceSeconds) &&
           io.value(tm.warmupSeconds) &&
           io.value(tm.measureSeconds) &&
           io.value(tm.replayedTrace) &&
           io.value(tm.generatedTrace) &&
           io.value(tm.replayedWarmup) &&
           io.value(tm.builtWarmup) && io.value(tm.sampled) &&
           io.value(tm.sampleFfSeconds) &&
           io.value(tm.sampleTimedSeconds) &&
           io.tag("intervals") &&
           list(io, r.intervals, 1u << 24,
                [&](auto &iv) {
                    return counters(io, "interval",
                                    PodCounters::kCounters, iv) &&
                           list(io, iv.tenants, 4096,
                                tenant("itenant")) &&
                           io.tag("iprobe") &&
                           values(io, iv.probeValues, 1u << 16);
                }) &&
           // Introspection probe columns and the spatial heatmap,
           // so a resumed sweep reproduces the --timeseries-out
           // and --heatmap-out artifacts without re-running.
           io.tag("probenames") &&
           list(io, r.probeNames, 1u << 16,
                [&io](auto &name) {
                    return io.tag("pname") && io.raw(name);
                }) &&
           io.tag("probevals") &&
           values(io, m.probeValues, 1u << 16) &&
           io.tag("heatmap") && io.value(hm.valid) &&
           io.value(hm.numSets) && io.value(hm.setsPerBin) &&
           io.value(bins) && io.valid(bins <= 1u << 16) &&
           column(io, "haccess", bins, hm.setAccess) &&
           column(io, "hconflict", bins, hm.setConflict) &&
           column(io, "hoccupancy", bins, hm.setOccupancy) &&
           io.tag("hdrams") && list(io, hm.drams, 64, grid) &&
           io.tag("end") && io.literal("\n");
}

std::string
serializeEntry(const std::string &key, const JournalOptions &o,
               const PointResult &r)
{
    Writer w;
    walkEntry(w, key, o, r);
    return std::move(w.out);
}

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

JournalOptions
JournalOptions::of(const ExperimentPoint &point)
{
    return {point.scale, point.baseSeed, point.cfg.pod.telemetry,
            point.cfg.pod.sampling};
}

std::string
SweepJournal::serialize(const ExperimentPoint &point,
                        const PointResult &result)
{
    return serializeEntry(point.key(), JournalOptions::of(point),
                          result);
}

std::string
SweepJournal::serialize(const std::string &key,
                        const JournalEntry &entry)
{
    return serializeEntry(key, entry, entry.result);
}

bool
SweepJournal::parse(const std::string &text, std::string &key,
                    JournalEntry &entry)
{
    Reader in{text};
    JournalEntry e;
    if (!walkEntry(in, key, e, e.result))
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
