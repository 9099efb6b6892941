#include "api/param_map.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/log.hh"

namespace gpulat {

std::uint64_t
parseUnsigned(const std::string &text, const std::string &what,
              std::uint64_t max, int base)
{
    // strtoull skips leading space and wraps a leading '-', so the
    // first character must already be a digit.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = text.empty() ||
            !std::isdigit(static_cast<unsigned char>(text[0]))
        ? 0
        : std::strtoull(text.c_str(), &end, base);
    if (!end || *end != '\0')
        fatal(what, ": '", text, "' is not a non-negative integer");
    if (errno == ERANGE || v > max)
        fatal(what, ": '", text, "' is out of range (max ", max, ")");
    return v;
}

std::pair<std::string, std::string>
ParamMap::splitAssignment(const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0) {
        fatal("expected key=value, got '", assignment, "'");
    }
    return {assignment.substr(0, eq), assignment.substr(eq + 1)};
}

ParamMap
ParamMap::parse(const std::vector<std::string> &assignments)
{
    ParamMap map;
    for (const std::string &a : assignments) {
        auto [key, value] = splitAssignment(a);
        map.set(key, value);
    }
    return map;
}

void
ParamMap::set(const std::string &key, const std::string &value)
{
    entries_[key] = value;
}

bool
ParamMap::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

std::string
ParamMap::getString(const std::string &key,
                    const std::string &def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    return it->second;
}

std::uint64_t
ParamMap::getU64(const std::string &key, std::uint64_t def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    return parseUnsigned(it->second, "parameter '" + key + "'");
}

unsigned
ParamMap::getUnsigned(const std::string &key, unsigned def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    return static_cast<unsigned>(
        parseUnsigned(it->second, "parameter '" + key + "'",
                      std::numeric_limits<unsigned>::max()));
}

double
ParamMap::getDouble(const std::string &key, double def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    const std::string &s = it->second;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
        fatal("parameter '", key, "': '", s, "' is not a number");
    }
    return v;
}

bool
ParamMap::getBool(const std::string &key, bool def) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    consumed_.insert(key);
    const std::string &s = it->second;
    if (s == "1" || s == "true" || s == "on" || s == "yes")
        return true;
    if (s == "0" || s == "false" || s == "off" || s == "no")
        return false;
    fatal("parameter '", key, "': '", s, "' is not a boolean");
}

std::vector<std::string>
ParamMap::unconsumedKeys() const
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : entries_) {
        if (!consumed_.count(key))
            keys.push_back(key);
    }
    return keys;
}

std::string
ParamMap::toString() const
{
    std::string out;
    for (const auto &[key, value] : entries_) {
        if (!out.empty())
            out += ' ';
        out += key + '=' + value;
    }
    return out;
}

} // namespace gpulat
