/**
 * @file
 * Unit tests for types helpers, Config, Rng and Table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/table.hh"
#include "sim/types.hh"

using namespace tdm;

TEST(Types, TickConversions)
{
    EXPECT_EQ(sim::usToTicks(1.0), 2000u);    // 2 GHz
    EXPECT_DOUBLE_EQ(sim::ticksToUs(2000), 1.0);
    EXPECT_DOUBLE_EQ(sim::ticksToSeconds(2000000000ULL), 1.0);
}

TEST(Types, BitsFor)
{
    EXPECT_EQ(sim::bitsFor(2048), 11u);
    EXPECT_EQ(sim::bitsFor(1024), 10u);
    EXPECT_EQ(sim::bitsFor(2), 1u);
    EXPECT_EQ(sim::bitsFor(1), 1u);
    EXPECT_EQ(sim::bitsFor(3), 2u);
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(sim::isPowerOf2(64));
    EXPECT_FALSE(sim::isPowerOf2(65));
    EXPECT_FALSE(sim::isPowerOf2(0));
    EXPECT_EQ(sim::floorLog2(16384), 14u);
    EXPECT_EQ(sim::floorLog2(1), 0u);
    EXPECT_EQ(sim::divCeil(10, 8), 2);
    EXPECT_EQ(sim::divCeil(16, 8), 2);

    // floorLog2 agrees with the shift loop it replaced at 0, 1 and
    // around every power of two.
    auto shiftLoop = [](std::uint64_t n) {
        unsigned r = 0;
        while (n >>= 1)
            ++r;
        return r;
    };
    static_assert(sim::floorLog2(0) == 0);
    EXPECT_EQ(sim::floorLog2(0), shiftLoop(0));
    EXPECT_EQ(sim::floorLog2(1), shiftLoop(1));
    for (unsigned k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        for (std::uint64_t n : {p - 1, p, p + 1})
            EXPECT_EQ(sim::floorLog2(n), shiftLoop(n)) << "n = " << n;
    }
    EXPECT_EQ(sim::floorLog2(~std::uint64_t{0}), 63u);
}

TEST(Config, TypedRoundTrip)
{
    sim::Config c;
    c.set("a", std::int64_t{-5});
    c.set("b", std::uint64_t{7});
    c.set("c", 2.5);
    c.set("d", true);
    c.set("e", std::string("hello"));
    EXPECT_EQ(c.getString("a"), "-5");
    EXPECT_EQ(c.getString("b"), "7");
    EXPECT_EQ(c.getString("c"), "2.5");
    EXPECT_EQ(c.getString("d"), "true");
    EXPECT_EQ(c.getString("e"), "hello");
    EXPECT_EQ(c.getString("missing", "9"), "9");
    EXPECT_TRUE(c.contains("a"));
    EXPECT_FALSE(c.contains("zz"));
}

TEST(Config, MalformedValuesAreHardErrors)
{
    sim::Config c;
    c.set("i", std::string("12abc"));
    c.set("neg", std::string("-3"));
    c.set("d", std::string("0.1.2"));
    c.set("b", std::string("maybe"));
    c.set("huge", std::string("99999999999999999999999999"));
    c.set("empty", std::string(""));
    // These used to parse as a silent 0/garbage via strtoll.
    std::uint64_t u;
    double d;
    bool b;
    EXPECT_FALSE(sim::Config::tryParseUint(c.getString("i"), u));
    EXPECT_FALSE(sim::Config::tryParseUint(c.getString("neg"), u));
    EXPECT_FALSE(sim::Config::tryParseDouble(c.getString("d"), d));
    EXPECT_FALSE(sim::Config::tryParseBool(c.getString("b"), b));
    EXPECT_FALSE(sim::Config::tryParseUint(c.getString("huge"), u));
    EXPECT_FALSE(sim::Config::tryParseUint(c.getString("empty"), u));
    EXPECT_FALSE(sim::Config::tryParseDouble(c.getString("empty"), d));
}

TEST(Config, StrictParsersAcceptTheFullValue)
{
    std::uint64_t u = 0;
    double d = 0.0;
    bool b = false;
    EXPECT_TRUE(sim::Config::tryParseUint("0x10", u)); // hex still works
    EXPECT_EQ(u, 16u);
    EXPECT_FALSE(sim::Config::tryParseUint("4 2", u));
    EXPECT_TRUE(sim::Config::tryParseUint("4398046511104", u));
    EXPECT_EQ(u, 4398046511104ull);
    EXPECT_FALSE(sim::Config::tryParseUint("-1", u));
    EXPECT_TRUE(sim::Config::tryParseDouble("2.5e-3", d));
    EXPECT_DOUBLE_EQ(d, 2.5e-3);
    EXPECT_FALSE(sim::Config::tryParseDouble("2.5x", d));
    EXPECT_TRUE(sim::Config::tryParseBool("0", b));
    EXPECT_FALSE(b);
    EXPECT_FALSE(sim::Config::tryParseBool("yes", b));
}

TEST(Rng, DeterministicAcrossInstances)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    sim::Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, HashUnitStable)
{
    EXPECT_DOUBLE_EQ(sim::hashUnit(123), sim::hashUnit(123));
    EXPECT_NE(sim::hashUnit(123), sim::hashUnit(124));
}

TEST(Table, RendersAlignedColumns)
{
    sim::Table t("demo");
    t.header({"name", "value"});
    t.row().cell("alpha").cell(std::uint64_t{42});
    t.row().cell("b").cell(3.14159, 2);
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}
