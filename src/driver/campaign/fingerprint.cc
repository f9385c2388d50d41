#include "driver/campaign/fingerprint.hh"

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
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestOfKey(std::string_view key)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    std::uint64_t h = fnv1a64(key);
    for (std::size_t i = 16; i-- > 0; h >>= 4)
        out[i] = kHex[h & 0xf];
    return out;
}

} // namespace tdm::driver::campaign
