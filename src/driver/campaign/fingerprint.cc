#include "driver/campaign/fingerprint.hh"

#include <iomanip>
#include <sstream>

#include "driver/spec/spec.hh"

namespace tdm::driver::campaign {

sim::Config
canonicalConfig(const Experiment &exp)
{
    // The fingerprint IS the canonical spec: the binding registry in
    // driver/spec is the single source of truth for every field the
    // simulation consumes, and its rendering doubles as the
    // human-readable cache key. See the CONTRACT note in spec.cc.
    return spec::canonicalSpec(exp);
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestOfKey(const std::string &key)
{
    std::ostringstream oss;
    oss << std::hex << std::setw(16) << std::setfill('0')
        << fnv1a64(key);
    return oss.str();
}

} // namespace tdm::driver::campaign
