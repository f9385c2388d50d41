/**
 * @file
 * The one formatter behind every writer of a run's numbers: the JSON
 * and CSV exports, every line of the service's wire protocol, the
 * dashboard's bodies, the result-store blobs and the Chrome traces.
 *
 * Writers build their output in a Text, which appends with << like a
 * stream but formats through std::to_chars, so no writer builds a
 * stream object per value. A real has no plain <<: the writer names
 * its format, and each prints the bytes of the iostream formatting
 * the writers used before:
 *  - Real{v}: what `os << std::setprecision(17) << v` prints (printf's
 *    %.17g). Every finite double round-trips bit-exactly through
 *    strtod; non-finite values print as inf, -inf, nan or -nan, which
 *    strtod also reads back.
 *  - JsonReal{v}: Real, except that non-finite values print as null
 *    (JSON has no inf or nan).
 *  - FixedReal{v, d}: what `os << std::fixed << std::setprecision(d)
 *    << v` prints (%.*f).
 *
 * parseReal and parseUint are the read side: the store, the wire and
 * the dashboard read every number back through them.
 */

#ifndef TDM_DRIVER_REPORT_FORMAT_HH
#define TDM_DRIVER_REPORT_FORMAT_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace tdm::driver::report {

/** A real as %.17g (CSV cells, store blobs). */
struct Real
{
    double v;
};

/** A real as a JSON number: %.17g, or null when non-finite. */
struct JsonReal
{
    double v;
};

/** A real with @c decimals digits after the point (%.*f). */
struct FixedReal
{
    double v;
    int decimals;
};

/** A string JSON-escaped, without surrounding quotes. */
struct JsonEscaped
{
    std::string_view s;
};

/** Output text under construction (see the file comment). */
class Text
{
  public:
    Text &operator<<(std::string_view s)
    {
        s_ += s;
        return *this;
    }
    Text &operator<<(const char *s) { return *this << std::string_view(s); }
    Text &operator<<(char c)
    {
        s_ += c;
        return *this;
    }

    /** Integers print as their decimal digits. */
    template <std::integral T>
        requires(!std::same_as<T, bool> && !std::same_as<T, char>)
    Text &
    operator<<(T v)
    {
        char buf[24];
        s_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }

    /** Flags and reals have no default format: name one. */
    Text &operator<<(bool) = delete;
    Text &operator<<(double) = delete;

    Text &operator<<(Real r);
    Text &operator<<(JsonReal r);
    Text &operator<<(FixedReal r);
    Text &operator<<(JsonEscaped e);

    const std::string &str() const { return s_; }
    std::size_t size() const { return s_.size(); }

    /** Write the text to @p os and start over. */
    void flushTo(std::ostream &os);

  private:
    std::string s_;
};

/** JSON-escape @p s (without surrounding quotes); for writers that
 *  are not built on a Text (which takes JsonEscaped). */
std::string jsonEscape(const std::string &s);

/** Write @p v as a JSON number (JsonReal) to a stream that is not a
 *  Text. */
void jsonNumber(std::ostream &os, double v);

/**
 * Read all of @p s as one double, through std::from_chars: no leading
 * space or '+', no hex. A literal out of double range reads as strtod
 * reads it (+-inf or +-0), so every value Real or JsonReal prints,
 * non-finite ones included, reads back to the same bits. False when
 * @p s is not exactly one number.
 */
bool parseReal(std::string_view s, double &out);

/**
 * Read all of @p s as one unsigned decimal integer, through
 * std::from_chars: digits only (no space, sign or hex). False when
 * @p s is anything else or exceeds 64 bits.
 */
bool parseUint(std::string_view s, std::uint64_t &out);

} // namespace tdm::driver::report

#endif // TDM_DRIVER_REPORT_FORMAT_HH
