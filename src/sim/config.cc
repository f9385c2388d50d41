#include "sim/config.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace tdm::sim {

bool
Config::tryParseUint(const std::string &s, std::uint64_t &out)
{
    // strtoull silently wraps negative inputs; reject them up front.
    if (s.empty() || s[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
Config::tryParseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
Config::tryParseBool(const std::string &s, bool &out)
{
    if (s == "true" || s == "1") {
        out = true;
        return true;
    }
    if (s == "false" || s == "0") {
        out = false;
        return true;
    }
    return false;
}

void
Config::set(const std::string &key, const std::string &value)
{
    map_[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    map_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, std::uint64_t value)
{
    map_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream oss;
    oss << value;
    map_[key] = oss.str();
}

void
Config::set(const std::string &key, bool value)
{
    map_[key] = value ? "true" : "false";
}

bool
Config::contains(const std::string &key) const
{
    return map_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto it = map_.find(key);
    return it == map_.end() ? dflt : it->second;
}

void
Config::dump(std::ostream &os) const
{
    for (const auto &[k, v] : map_)
        os << k << " = " << v << '\n';
}

std::string
Config::serialize() const
{
    std::ostringstream oss;
    for (const auto &[k, v] : map_)
        oss << k << '=' << v << ';';
    return oss.str();
}

} // namespace tdm::sim
