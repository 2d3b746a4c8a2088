/**
 * @file
 * FaultSpec parsing and formatting.
 */

#include "sim/fault_spec.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace altoc::sim {

bool
FaultSpec::enabled() const
{
    return dropProb > 0.0 || dupProb > 0.0 || delayProb > 0.0 ||
           exhaustProb > 0.0 || straggleProb > 0.0 || freezeProb > 0.0 ||
           stallProb > 0.0 || stallSet || killProb > 0.0 ||
           !kills.empty() || !managerKills.empty() ||
           !scopedKills.empty() || !scopedManagerKills.empty() ||
           !scopedDrops.empty();
}

FaultSpec
FaultSpec::forServer(unsigned server) const
{
    FaultSpec out;
    if (server == 0)
        out = *this; // unscoped keys mean "server 0"
    // Same scoped schedule on two servers must not replay the same
    // decision stream; the fold is the identity for server 0 so the
    // pre-rack fault schedule of an unscoped spec is untouched.
    out.seed = seed ^ (server * 0x9e3779b97f4a7c15ull);
    out.scopedKills.clear();
    out.scopedManagerKills.clear();
    out.scopedDrops.clear();
    for (const ScopedKill &k : scopedKills) {
        if (k.server == server)
            out.kills.push_back(k.kill);
    }
    for (const ScopedKill &k : scopedManagerKills) {
        if (k.server == server)
            out.managerKills.push_back(k.kill);
    }
    for (const ScopedDrop &d : scopedDrops) {
        if (d.server == server)
            out.dropProb = d.prob;
    }
    return out;
}

int
FaultSpec::maxScopedServer() const
{
    int max = -1;
    const auto fold = [&max](unsigned server) {
        if (static_cast<int>(server) > max)
            max = static_cast<int>(server);
    };
    for (const ScopedKill &k : scopedKills)
        fold(k.server);
    for (const ScopedKill &k : scopedManagerKills)
        fold(k.server);
    for (const ScopedDrop &d : scopedDrops)
        fold(d.server);
    return max;
}

namespace {

double
parseProb(std::string_view key, std::string_view text)
{
    char *end = nullptr;
    const std::string s(text);
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || v < 0.0 || v > 1.0)
        panic("fault spec: '%.*s' needs a probability in [0, 1], got "
              "'%s'",
              static_cast<int>(key.size()), key.data(), s.c_str());
    return v;
}

std::uint64_t
parseU64(std::string_view key, std::string_view text)
{
    char *end = nullptr;
    const std::string s(text);
    // strtoull silently accepts a leading '-' (the value wraps) and
    // skips whitespace; reject anything but a plain digit string so a
    // negative input fails loudly instead of becoming ~2^64.
    const bool plainDigits =
        !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (!plainDigits || end != s.c_str() + s.size())
        panic("fault spec: '%.*s' needs an unsigned integer, got '%s'",
              static_cast<int>(key.size()), key.data(), s.c_str());
    return static_cast<std::uint64_t>(v);
}

/** A strictly positive tick count (durations, window lengths, kill
 *  instants): zero and negative values are rejected with the key and
 *  the offending value. */
Tick
parseDuration(std::string_view key, std::string_view text)
{
    const std::string s(text);
    const bool plainDigits =
        !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
    if (!plainDigits)
        panic("fault spec: '%.*s' needs a positive duration in ns, "
              "got '%s'",
              static_cast<int>(key.size()), key.data(), s.c_str());
    const std::uint64_t v = parseU64(key, text);
    if (v == 0)
        panic("fault spec: '%.*s' needs a positive duration in ns, "
              "got '%s'",
              static_cast<int>(key.size()), key.data(), s.c_str());
    return static_cast<Tick>(v);
}

double
parsePositive(std::string_view key, std::string_view text)
{
    char *end = nullptr;
    const std::string s(text);
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || v <= 0.0)
        panic("fault spec: '%.*s' needs a positive number, got '%s'",
              static_cast<int>(key.size()), key.data(), s.c_str());
    return v;
}

/** Split "P:X" at the colon; panics when the colon is missing. */
std::pair<std::string_view, std::string_view>
splitColon(std::string_view key, std::string_view text)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos)
        panic("fault spec: '%.*s' needs the form P:VALUE",
              static_cast<int>(key.size()), key.data());
    return {text.substr(0, colon), text.substr(colon + 1)};
}

} // namespace

FaultSpec
FaultSpec::parse(std::string_view text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string_view::npos)
            comma = text.size();
        const std::string_view item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos)
            panic("fault spec: item '%.*s' lacks '='",
                  static_cast<int>(item.size()), item.data());
        const std::string_view key = item.substr(0, eq);
        const std::string_view val = item.substr(eq + 1);

        // Server-scoped keys: S<k>.kill / S<k>.killm / S<k>.drop
        // (rack runs only; sim/fault_spec.hh documents the grammar).
        if (key.size() >= 2 && key[0] == 'S' &&
            key.find('.') != std::string_view::npos) {
            const std::size_t dot = key.find('.');
            const std::string_view digits = key.substr(1, dot - 1);
            const bool plainDigits =
                !digits.empty() &&
                digits.find_first_not_of("0123456789") ==
                    std::string_view::npos;
            if (!plainDigits)
                panic("fault spec: bad server index in '%.*s' "
                      "(expected S<digits>.<key>)",
                      static_cast<int>(key.size()), key.data());
            const unsigned server = static_cast<unsigned>(
                parseU64(key, digits));
            const std::string_view base = key.substr(dot + 1);
            if (base == "kill" || base == "killm") {
                const std::size_t at = val.find('@');
                if (at == std::string_view::npos)
                    panic("fault spec: '%.*s' needs the form ID@AT",
                          static_cast<int>(key.size()), key.data());
                ScopedKill sk;
                sk.server = server;
                sk.kill.id = static_cast<unsigned>(
                    parseU64(key, val.substr(0, at)));
                sk.kill.at = parseDuration(key, val.substr(at + 1));
                (base == "kill" ? spec.scopedKills
                                : spec.scopedManagerKills)
                    .push_back(sk);
            } else if (base == "drop") {
                ScopedDrop sd;
                sd.server = server;
                sd.prob = parseProb(key, val);
                spec.scopedDrops.push_back(sd);
            } else {
                panic("fault spec: key '%.*s' cannot be server-scoped "
                      "(only kill, killm, drop take an S<k>. prefix)",
                      static_cast<int>(key.size()), key.data());
            }
            continue;
        }

        if (key == "drop") {
            spec.dropProb = parseProb(key, val);
        } else if (key == "dup") {
            spec.dupProb = parseProb(key, val);
        } else if (key == "delay") {
            const auto [p, ns] = splitColon(key, val);
            spec.delayProb = parseProb(key, p);
            spec.delayNs = parseDuration(key, ns);
        } else if (key == "exhaust") {
            const auto [p, ns] = splitColon(key, val);
            spec.exhaustProb = parseProb(key, p);
            spec.exhaustNs = parseDuration(key, ns);
        } else if (key == "straggle") {
            const auto [p, f] = splitColon(key, val);
            spec.straggleProb = parseProb(key, p);
            spec.straggleFactor = parsePositive(key, f);
        } else if (key == "freeze") {
            const auto [p, ns] = splitColon(key, val);
            spec.freezeProb = parseProb(key, p);
            spec.freezeNs = parseDuration(key, ns);
        } else if (key == "stall") {
            // M@AT+DUR
            const std::size_t at = val.find('@');
            const std::size_t plus = val.find('+');
            if (at == std::string_view::npos ||
                plus == std::string_view::npos || plus < at)
                panic("fault spec: 'stall' needs the form MGR@AT+DUR");
            spec.stallSet = true;
            spec.stallMgr = static_cast<unsigned>(
                parseU64(key, val.substr(0, at)));
            spec.stallAt = static_cast<Tick>(
                parseU64(key, val.substr(at + 1, plus - at - 1)));
            spec.stallFor = parseDuration(key, val.substr(plus + 1));
        } else if (key == "stallp") {
            const auto [p, ns] = splitColon(key, val);
            spec.stallProb = parseProb(key, p);
            spec.stallNs = parseDuration(key, ns);
        } else if (key == "kill" || key == "killm") {
            // C@AT / M@AT; repeatable, kept in spec order.
            const std::size_t at = val.find('@');
            if (at == std::string_view::npos)
                panic("fault spec: '%.*s' needs the form ID@AT",
                      static_cast<int>(key.size()), key.data());
            FaultSpec::Kill k;
            k.id =
                static_cast<unsigned>(parseU64(key, val.substr(0, at)));
            k.at = parseDuration(key, val.substr(at + 1));
            (key == "kill" ? spec.kills : spec.managerKills)
                .push_back(k);
        } else if (key == "killp") {
            const auto [p, ns] = splitColon(key, val);
            spec.killProb = parseProb(key, p);
            spec.killNs = parseDuration(key, ns);
        } else if (key == "seed") {
            spec.seed = parseU64(key, val);
        } else {
            panic("fault spec: unknown key '%.*s'",
                  static_cast<int>(key.size()), key.data());
        }
    }
    return spec;
}

std::optional<FaultSpec>
FaultSpec::fromEnv()
{
    const char *env = std::getenv("ALTOC_FAULTS");
    if (env == nullptr || env[0] == '\0')
        return std::nullopt;
    return parse(env);
}

std::string
FaultSpec::describe() const
{
    std::string out;
    char buf[96];
    auto add = [&out](const char *s) {
        if (!out.empty())
            out += ',';
        out += s;
    };
    if (dropProb > 0.0) {
        std::snprintf(buf, sizeof buf, "drop=%g", dropProb);
        add(buf);
    }
    if (dupProb > 0.0) {
        std::snprintf(buf, sizeof buf, "dup=%g", dupProb);
        add(buf);
    }
    if (delayProb > 0.0) {
        std::snprintf(buf, sizeof buf, "delay=%g:%llu", delayProb,
                      static_cast<unsigned long long>(delayNs));
        add(buf);
    }
    if (exhaustProb > 0.0) {
        std::snprintf(buf, sizeof buf, "exhaust=%g:%llu", exhaustProb,
                      static_cast<unsigned long long>(exhaustNs));
        add(buf);
    }
    if (straggleProb > 0.0) {
        std::snprintf(buf, sizeof buf, "straggle=%g:%g", straggleProb,
                      straggleFactor);
        add(buf);
    }
    if (freezeProb > 0.0) {
        std::snprintf(buf, sizeof buf, "freeze=%g:%llu", freezeProb,
                      static_cast<unsigned long long>(freezeNs));
        add(buf);
    }
    if (stallSet) {
        std::snprintf(buf, sizeof buf, "stall=%u@%llu+%llu", stallMgr,
                      static_cast<unsigned long long>(stallAt),
                      static_cast<unsigned long long>(stallFor));
        add(buf);
    }
    if (stallProb > 0.0) {
        std::snprintf(buf, sizeof buf, "stallp=%g:%llu", stallProb,
                      static_cast<unsigned long long>(stallNs));
        add(buf);
    }
    for (const Kill &k : kills) {
        std::snprintf(buf, sizeof buf, "kill=%u@%llu", k.id,
                      static_cast<unsigned long long>(k.at));
        add(buf);
    }
    for (const Kill &k : managerKills) {
        std::snprintf(buf, sizeof buf, "killm=%u@%llu", k.id,
                      static_cast<unsigned long long>(k.at));
        add(buf);
    }
    if (killProb > 0.0) {
        std::snprintf(buf, sizeof buf, "killp=%g:%llu", killProb,
                      static_cast<unsigned long long>(killNs));
        add(buf);
    }
    for (const ScopedKill &k : scopedKills) {
        std::snprintf(buf, sizeof buf, "S%u.kill=%u@%llu", k.server,
                      k.kill.id,
                      static_cast<unsigned long long>(k.kill.at));
        add(buf);
    }
    for (const ScopedKill &k : scopedManagerKills) {
        std::snprintf(buf, sizeof buf, "S%u.killm=%u@%llu", k.server,
                      k.kill.id,
                      static_cast<unsigned long long>(k.kill.at));
        add(buf);
    }
    for (const ScopedDrop &d : scopedDrops) {
        std::snprintf(buf, sizeof buf, "S%u.drop=%g", d.server,
                      d.prob);
        add(buf);
    }
    std::snprintf(buf, sizeof buf, "seed=%llu",
                  static_cast<unsigned long long>(seed));
    add(buf);
    return out;
}

} // namespace altoc::sim
