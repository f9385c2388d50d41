#include "driver/report/format.hh"

#include <cmath>
#include <cstdlib>

namespace tdm::driver::report {

namespace {

void
appendChars(std::string &out, double v, std::chars_format fmt,
            int precision)
{
    // Room for any %.17g rendering (at most 24 characters) and for
    // %.*f of DBL_MAX (309 integer digits) with up to 20 decimals.
    char buf[340];
    out.append(buf,
               std::to_chars(buf, buf + sizeof buf, v, fmt, precision).ptr);
}

void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : s) {
        const auto ch = static_cast<unsigned char>(c);
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (ch < 0x20) {
                out += "\\u00";
                out += kHex[ch >> 4];
                out += kHex[ch & 0xf];
            } else {
                out += c;
            }
        }
    }
}

} // namespace

Text &
Text::operator<<(Real r)
{
    appendChars(s_, r.v, std::chars_format::general, 17);
    return *this;
}

Text &
Text::operator<<(JsonReal r)
{
    if (std::isfinite(r.v))
        return *this << Real{r.v};
    return *this << "null";
}

Text &
Text::operator<<(FixedReal r)
{
    appendChars(s_, r.v, std::chars_format::fixed, r.decimals);
    return *this;
}

Text &
Text::operator<<(JsonEscaped e)
{
    appendEscaped(s_, e.s);
    return *this;
}

void
Text::flushTo(std::ostream &os)
{
    os.write(s_.data(), static_cast<std::streamsize>(s_.size()));
    s_.clear();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    appendEscaped(out, s);
    return out;
}

void
jsonNumber(std::ostream &os, double v)
{
    Text t;
    t << JsonReal{v};
    t.flushTo(os);
}

bool
parseReal(std::string_view s, double &out)
{
    const char *const end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    if (ptr != end)
        return false;
    // from_chars leaves an out-of-range value unset; strtod rounds it
    // to +-inf or +-0, which is what the readers always returned.
    if (ec == std::errc::result_out_of_range) {
        out = std::strtod(std::string(s).c_str(), nullptr);
        return true;
    }
    return ec == std::errc();
}

bool
parseUint(std::string_view s, std::uint64_t &out)
{
    const char *const end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace tdm::driver::report
