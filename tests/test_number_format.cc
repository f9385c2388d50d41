/**
 * @file
 * The <charconv> formatter against the iostream formatting it
 * replaced, byte for byte.
 *
 * Every export path (JSON, CSV, wire, store blobs, Chrome traces)
 * formats its numbers through driver/report/format.hh. The reference
 * functions below are the std::ostringstream code those paths used
 * before; the formatter must print exactly what they print, for the
 * edge values and for 100k seeded random bit patterns (NaN payloads,
 * subnormals and infinities included).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "driver/report/format.hh"

using namespace tdm::driver;

namespace {

// ---- reference: the iostream formatting the writers used -----------

/** CSV cells, store blobs: `os << std::setprecision(17) << v`. */
std::string
refNumber(double v)
{
    std::ostringstream oss;
    oss << std::setprecision(17) << v;
    return oss.str();
}

/** JSON: non-finite values as null, the rest as refNumber. */
std::string
refJsonNumber(double v)
{
    return std::isfinite(v) ? refNumber(v) : "null";
}

/** Chrome-trace timestamps: fixed with 4 decimals. */
std::string
refFixed4(double v)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(4) << v;
    return oss.str();
}

std::string
refJsonEscape(const std::string &s)
{
    std::ostringstream oss;
    for (unsigned char ch : s) {
        switch (ch) {
        case '"': oss << "\\\""; break;
        case '\\': oss << "\\\\"; break;
        case '\n': oss << "\\n"; break;
        case '\r': oss << "\\r"; break;
        case '\t': oss << "\\t"; break;
        default:
            if (ch < 0x20)
                oss << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(ch)
                    << std::dec;
            else
                oss << ch;
        }
    }
    return oss.str();
}

// ---- the formatter under test --------------------------------------

template <typename T>
std::string
text(const T &v)
{
    report::Text t;
    t << v;
    return t.str();
}

std::string
number(double v)
{
    return text(report::Real{v});
}

std::string
jsonNumber(double v)
{
    return text(report::JsonReal{v});
}

std::string
fixed4(double v)
{
    return text(report::FixedReal{v, 4});
}

std::string
streamedJsonNumber(double v)
{
    std::ostringstream os;
    report::jsonNumber(os, v);
    return os.str();
}

void
expectSameBytes(double v)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(number(v), refNumber(v)) << std::hex << bits;
    EXPECT_EQ(jsonNumber(v), refJsonNumber(v)) << std::hex << bits;
    EXPECT_EQ(streamedJsonNumber(v), refJsonNumber(v)) << std::hex << bits;
    EXPECT_EQ(fixed4(v), refFixed4(v)) << std::hex << bits;
}

std::vector<double>
edgeValues()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const double two53 = 9007199254740992.0;
    return {
        0.0, -0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0,
        DBL_MIN - DBL_TRUE_MIN, DBL_MIN, DBL_MAX, -DBL_MAX,
        two53 - 1.0, two53, two53 + 2.0, std::nextafter(two53, 0.0),
        0.1, -0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.0, 100.0, 1e16, 1e17,
        1e21, 1e22, 1e-4, 1e-5, 0.00005, 0.00015, 2.5e-5, 123456.78905,
        1e300, 1e-300, 4294967295.0, 18446744073709551615.0,
        0.0005, 71225817.5, inf, -inf, nan, -nan,
        std::numeric_limits<double>::signaling_NaN(),
    };
}

} // namespace

TEST(NumberFormat, EdgeValuesMatchTheStreamFormatting)
{
    for (const double v : edgeValues())
        expectSameBytes(v);
}

TEST(NumberFormat, NonFiniteValues)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    // JSON has no inf or nan: every writer of JSON prints null...
    for (const double v : {inf, -inf, nan, -nan})
        EXPECT_EQ(jsonNumber(v), "null");
    // ...while CSV cells and store blobs keep the stream's text, which
    // strtod reads back.
    EXPECT_EQ(number(inf), "inf");
    EXPECT_EQ(number(-inf), "-inf");
    EXPECT_EQ(number(nan), "nan");
    EXPECT_EQ(number(-nan), "-nan");
}

TEST(NumberFormat, RandomBitPatternsMatchTheStreamFormatting)
{
    std::mt19937_64 rng(20181);
    for (int i = 0; i < 100000; ++i) {
        const double v = std::bit_cast<double>(rng());
        const std::string got = number(v);
        ASSERT_EQ(got, refNumber(v))
            << std::hex << std::bit_cast<std::uint64_t>(v);
        ASSERT_EQ(jsonNumber(v), refJsonNumber(v));
        ASSERT_EQ(fixed4(v), refFixed4(v))
            << std::hex << std::bit_cast<std::uint64_t>(v);
        // %.17g round-trips every finite double bit-exactly.
        if (std::isfinite(v)) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(std::strtod(
                          got.c_str(), nullptr)),
                      std::bit_cast<std::uint64_t>(v))
                << got;
        }
    }
}

TEST(NumberFormat, TraceTimestampsMatchTheStreamFormatting)
{
    // Ticks at 2 GHz become microseconds with four decimals: sweep the
    // fractional patterns of small tick counts and a few large ones.
    std::mt19937_64 rng(7);
    for (std::uint64_t t = 0; t < 20000; ++t)
        ASSERT_EQ(fixed4(static_cast<double>(t) / 2000.0),
                  refFixed4(static_cast<double>(t) / 2000.0))
            << t;
    for (int i = 0; i < 20000; ++i) {
        const double us = static_cast<double>(rng() >> 12) / 2000.0;
        ASSERT_EQ(fixed4(us), refFixed4(us));
    }
}

TEST(NumberFormat, IntegersMatchTheStreamFormatting)
{
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{10},
          std::uint64_t{4294967295u}, std::uint64_t{9007199254740993ull},
          std::numeric_limits<std::uint64_t>::max()}) {
        std::ostringstream ref;
        ref << v;
        EXPECT_EQ(text(v), ref.str());
    }
    EXPECT_EQ(text(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(text(std::uint32_t{4294967295u}), "4294967295");
}

TEST(NumberFormat, JsonEscapeMatchesTheStreamEscaping)
{
    std::string every;
    for (int c = 0; c < 256; ++c)
        every += static_cast<char>(c);
    EXPECT_EQ(report::jsonEscape(every), refJsonEscape(every));

    std::mt19937_64 rng(3);
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng() % 40, '\0');
        for (char &c : s)
            c = static_cast<char>(rng() % 256);
        ASSERT_EQ(report::jsonEscape(s), refJsonEscape(s));
        report::Text t;
        t << "prefix" << report::JsonEscaped{s};
        ASSERT_EQ(t.str(), "prefix" + refJsonEscape(s));
    }
}
