/**
 * @file
 * Flat string-keyed configuration store with typed accessors.
 *
 * Experiments describe their parameters as Config entries; bench binaries
 * print them alongside results so every table is self-describing.
 */

#ifndef TDM_SIM_CONFIG_HH
#define TDM_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace tdm::sim {

/** Ordered key→value configuration with typed getters. */
class Config
{
  public:
    Config() = default;

    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, std::uint64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    bool contains(const std::string &key) const;

    /** The value of @p key; @p dflt when it is missing. */
    std::string getString(const std::string &key,
                          const std::string &dflt = "") const;

    /**
     * Strict scalar parsers (the spec layer): the whole string must
     * form one in-range value (base 10 or 0x-prefixed hex for the
     * integer form; "true"/"false"/"1"/"0" for bools). Return false
     * instead of throwing so callers can attach their own context.
     */
    static bool tryParseUint(const std::string &s, std::uint64_t &out);
    static bool tryParseDouble(const std::string &s, double &out);
    static bool tryParseBool(const std::string &s, bool &out);

    /** Write "key = value" lines. */
    void dump(std::ostream &os) const;

    /**
     * Canonical single-line "k=v;k=v;..." form (keys sorted by the
     * underlying map). Equal configs serialize identically, which makes
     * this usable as a cache key.
     */
    std::string serialize() const;

    const std::map<std::string, std::string> &entries() const {
        return map_;
    }

  private:
    std::map<std::string, std::string> map_;
};

} // namespace tdm::sim

#endif // TDM_SIM_CONFIG_HH
