#include "common/fault.hh"

#include <cstdio>
#include <cstdlib>

#include "common/rng.hh"

namespace fpc {

std::atomic<bool> FaultInjector::active_{false};

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

namespace {

/** Split @p s on @p sep (empty fields preserved). */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

bool
parseUnsigned(const std::string &s, unsigned &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

} // namespace

bool
FaultInjector::configure(const std::string &plan,
                         std::uint64_t seed)
{
    std::vector<Rule> rules;
    // Accept ';' and ',' as entry separators (',' survives YAML
    // and Makefile quoting more gracefully).
    std::string normalized = plan;
    for (char &c : normalized) {
        if (c == ',')
            c = ';';
    }
    for (const std::string &entry : split(normalized, ';')) {
        if (entry.empty())
            continue;
        const std::vector<std::string> fields = split(entry, ':');
        if (fields.empty() || fields.size() > 4) {
            std::fprintf(stderr,
                         "fault plan: bad entry '%s' (want "
                         "site[@keysub]:kind[:times[:skip]])\n",
                         entry.c_str());
            return false;
        }
        Rule rule;
        const std::size_t at = fields[0].find('@');
        rule.site = fields[0].substr(0, at);
        if (at != std::string::npos)
            rule.keySub = fields[0].substr(at + 1);
        // Optional "%pct" suffix on the key substring gates the
        // rule to a deterministic per-key percentage.
        const std::size_t pct_pos = rule.keySub.find('%');
        if (pct_pos != std::string::npos) {
            unsigned pct = 0;
            if (!parseUnsigned(rule.keySub.substr(pct_pos + 1),
                               pct) ||
                pct > 100) {
                std::fprintf(stderr,
                             "fault plan: bad percentage in "
                             "'%s'\n",
                             entry.c_str());
                return false;
            }
            rule.pct = pct;
            rule.keySub = rule.keySub.substr(0, pct_pos);
        }
        const std::string kind =
            fields.size() > 1 ? fields[1] : "transient";
        if (kind == "transient") {
            rule.kind = Kind::Transient;
        } else if (kind == "permanent") {
            rule.kind = Kind::Permanent;
        } else if (kind == "crash") {
            rule.kind = Kind::Crash;
        } else {
            std::fprintf(stderr,
                         "fault plan: unknown kind '%s' in '%s' "
                         "(want transient|permanent|crash)\n",
                         kind.c_str(), entry.c_str());
            return false;
        }
        if (rule.site.empty()) {
            std::fprintf(stderr,
                         "fault plan: empty site in '%s'\n",
                         entry.c_str());
            return false;
        }
        if (fields.size() > 2 &&
            !parseUnsigned(fields[2], rule.times)) {
            std::fprintf(stderr,
                         "fault plan: bad times '%s' in '%s'\n",
                         fields[2].c_str(), entry.c_str());
            return false;
        }
        if (fields.size() > 3 &&
            !parseUnsigned(fields[3], rule.skip)) {
            std::fprintf(stderr,
                         "fault plan: bad skip '%s' in '%s'\n",
                         fields[3].c_str(), entry.c_str());
            return false;
        }
        rules.push_back(std::move(rule));
    }

    std::lock_guard<std::mutex> lock(mutex_);
    rules_ = std::move(rules);
    seed_ = seed;
    seen_.clear();
    active_.store(!rules_.empty(), std::memory_order_relaxed);
    return true;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    rules_.clear();
    seen_.clear();
    active_.store(false, std::memory_order_relaxed);
}

void
FaultInjector::check(const char *site, const std::string &key)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t r = 0; r < rules_.size(); ++r) {
        const Rule &rule = rules_[r];
        if (rule.site != site)
            continue;
        if (!rule.keySub.empty() &&
            key.find(rule.keySub) == std::string::npos)
            continue;
        if (rule.pct < 100) {
            // Per-key deterministic gate: identity and seed only,
            // never thread schedule.
            const std::uint64_t h =
                fnv1a(std::string(site) + "|" + key) ^
                mix64(seed_ + 1);
            if (h % 100 >= rule.pct)
                continue;
        }
        const std::string state_key =
            std::to_string(r) + "\x1f" +
            (rule.kind == Kind::Crash ? std::string() : key);
        const unsigned match = ++seen_[state_key];
        switch (rule.kind) {
          case Kind::Transient:
            if (match <= rule.skip)
                break;
            if (match - rule.skip <= rule.times) {
                lock.unlock();
                throw TransientError(
                    "injected transient fault (site=" +
                    std::string(site) + ", key=" + key +
                    ", attempt " + std::to_string(match) + ")");
            }
            break;
          case Kind::Permanent:
            lock.unlock();
            throw std::runtime_error(
                "injected permanent fault (site=" +
                std::string(site) + ", key=" + key + ")");
          case Kind::Crash:
            if (match > rule.skip) {
                std::fprintf(stderr,
                             "fault injector: crashing at "
                             "site=%s, key=%s (match %u)\n",
                             site, key.c_str(), match);
                std::fflush(stderr);
                std::_Exit(kCrashExitCode);
            }
            break;
        }
    }
}

} // namespace fpc
