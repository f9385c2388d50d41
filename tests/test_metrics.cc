/**
 * @file
 * Unit tests for the metric registry: scoped registration, key-path
 * addressing with near-miss errors, glob selection, flattening, and
 * snapshot/window phase deltas.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/metrics.hh"
#include "sim/suggest.hh"

using namespace tdm;

namespace {

/** Registry with one metric of every kind under dmu/mesh scopes. */
struct Rig
{
    sim::MetricRegistry reg;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t accesses = 0;
    sim::Average occupancy;
    sim::Distribution latency{0.0, 100.0};
    double level = 0.0;

    Rig()
    {
        sim::MetricContext dmu = reg.context("dmu");
        sim::MetricContext tat = dmu.scope("tat");
        tat.counter("hits", &hits, "TAT hits");
        tat.counter("misses", &misses, "TAT misses");
        tat.formulaFn("hit_rate",
                      [this] {
                          const double total =
                              static_cast<double>(hits + misses);
                          return total ? static_cast<double>(hits) / total
                                       : 0.0;
                      },
                      "TAT hit rate");
        dmu.counter("accesses", &accesses, "DMU accesses");
        sim::MetricContext mesh = reg.context("mesh");
        mesh.average("occupancy", &occupancy, "link occupancy");
        mesh.distribution("latency", &latency, "packet latency");
        mesh.gauge("level", [this] { return level; }, "queue level");
    }
};

} // namespace

TEST(MetricContext, ScopedKeysAndValues)
{
    Rig r;
    r.hits += 3;
    r.misses += 1;
    r.accesses = 9;
    EXPECT_TRUE(r.reg.contains("dmu.tat.hits"));
    EXPECT_DOUBLE_EQ(r.reg.value("dmu.tat.hits"), 3.0);
    EXPECT_DOUBLE_EQ(r.reg.value("dmu.accesses"), 9.0);
    EXPECT_DOUBLE_EQ(r.reg.value("dmu.tat.hit_rate"), 0.75);
    EXPECT_EQ(r.reg.size(), 7u);
}

TEST(MetricRegistry, UnknownKeyThrowsWithSuggestion)
{
    Rig r;
    try {
        r.reg.value("dmu.tat.hit");
        FAIL() << "expected MetricError";
    } catch (const sim::MetricError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("dmu.tat.hit"), std::string::npos);
        EXPECT_NE(msg.find("dmu.tat.hits"), std::string::npos);
    }
}

TEST(MetricRegistry, DuplicateAndEmptyKeysThrow)
{
    Rig r;
    std::uint64_t s = 0;
    EXPECT_THROW(r.reg.context("dmu").scope("tat").counter("hits", &s,
                                                           ""),
                 sim::MetricError);
    EXPECT_THROW(r.reg.context("").counter("", &s, ""),
                 sim::MetricError);
}

TEST(MetricRegistry, ValuesFlattenSubkeys)
{
    Rig r;
    r.occupancy.sample(2.0);
    r.occupancy.sample(4.0);
    r.latency.sample(10.0);
    r.latency.sample(-5.0);  // underflow
    r.latency.sample(500.0); // overflow
    const sim::MetricSet v = r.reg.values();
    EXPECT_DOUBLE_EQ(v.at("mesh.occupancy"), 3.0);
    EXPECT_DOUBLE_EQ(v.at("mesh.occupancy.count"), 2.0);
    EXPECT_DOUBLE_EQ(v.at("mesh.latency.count"), 3.0);
    EXPECT_DOUBLE_EQ(v.at("mesh.latency.underflow"), 1.0);
    EXPECT_DOUBLE_EQ(v.at("mesh.latency.overflow"), 1.0);
    EXPECT_DOUBLE_EQ(v.at("mesh.latency.min"), -5.0);
    EXPECT_DOUBLE_EQ(v.at("mesh.latency.max"), 500.0);
}

TEST(MetricSet, AtThrowsGetDefaults)
{
    sim::MetricSet s;
    s.set("dmu.accesses", 5.0);
    EXPECT_DOUBLE_EQ(s.at("dmu.accesses"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("nope", 7.0), 7.0);
    EXPECT_THROW(s.at("dmu.acesses"), sim::MetricError);
}

TEST(MetricSelection, GlobMatching)
{
    auto matches = [](const char *glob, const char *key) {
        return sim::MetricSelection(glob).matches(key);
    };
    EXPECT_TRUE(matches("dmu.*", "dmu.tat.hits"));
    EXPECT_TRUE(matches("*", "anything.at.all"));
    EXPECT_TRUE(matches("*.hits", "dmu.tat.hits"));
    EXPECT_TRUE(matches("dmu.?at.hits", "dmu.tat.hits"));
    EXPECT_FALSE(matches("dmu.*", "mesh.latency"));
    EXPECT_FALSE(matches("dmu", "dmu.tat.hits"));
}

TEST(MetricSelection, CommaGlobsSelectKeys)
{
    const sim::MetricSelection sel("dmu.tat.*, mesh.occupancy");
    EXPECT_TRUE(sel.matches("dmu.tat.hits"));
    EXPECT_TRUE(sel.matches("dmu.tat.hit_rate"));
    EXPECT_TRUE(sel.matches("mesh.occupancy"));
    EXPECT_FALSE(sel.matches("dmu.accesses"));
    EXPECT_FALSE(sel.matches("mesh.latency.mean"));

    // Empty pattern = everything; empty token = hard error.
    Rig r;
    const sim::MetricSet all = r.reg.values();
    for (const auto &[k, v] : all.entries()) {
        EXPECT_TRUE(sim::MetricSelection("").matches(k)) << k;
        EXPECT_TRUE(sim::MetricSelection().matches(k)) << k;
    }
    EXPECT_THROW(sim::MetricSelection("dmu.*,,mesh.*"), sim::MetricError);
    EXPECT_THROW(sim::MetricSelection(" , dmu.*"), sim::MetricError);
    EXPECT_THROW(sim::MetricSelection("dmu.*,"), sim::MetricError);
}

TEST(MetricRegistry, WindowDeltasCountersAndMeans)
{
    Rig r;
    r.hits += 10;
    r.occupancy.sample(100.0); // pre-window sample must not leak in
    const sim::MetricSnapshot t0 = r.reg.snapshot();

    r.hits += 5;
    r.accesses += 7;
    r.occupancy.sample(2.0);
    r.occupancy.sample(4.0);
    r.latency.sample(30.0);
    r.level = 42.0;
    const sim::MetricSnapshot t1 = r.reg.snapshot();

    const sim::MetricSet w = r.reg.window(t0, t1);
    EXPECT_DOUBLE_EQ(w.at("dmu.tat.hits"), 5.0);
    EXPECT_DOUBLE_EQ(w.at("dmu.accesses"), 7.0);
    EXPECT_DOUBLE_EQ(w.at("mesh.occupancy"), 3.0); // window-local mean
    EXPECT_DOUBLE_EQ(w.at("mesh.latency.count"), 1.0);
    EXPECT_DOUBLE_EQ(w.at("mesh.latency.mean"), 30.0);
    // Gauges and formulas are excluded from windows.
    EXPECT_FALSE(w.contains("mesh.level"));
    EXPECT_FALSE(w.contains("dmu.tat.hit_rate"));
}

TEST(MetricRegistry, EmptyWindowMeansAreZero)
{
    Rig r;
    r.occupancy.sample(9.0);
    const sim::MetricSnapshot t0 = r.reg.snapshot();
    const sim::MetricSnapshot t1 = r.reg.snapshot();
    const sim::MetricSet w = r.reg.window(t0, t1);
    EXPECT_DOUBLE_EQ(w.at("mesh.occupancy"), 0.0);
    EXPECT_DOUBLE_EQ(w.at("mesh.latency.count"), 0.0);
}

TEST(MetricRegistry, DumpIsGem5Style)
{
    Rig r;
    r.hits += 2;
    std::ostringstream oss;
    r.reg.dump(oss);
    EXPECT_NE(oss.str().find("dmu.tat.hits 2 # TAT hits"),
              std::string::npos);
    // Flattened distribution subkeys appear as their own lines.
    EXPECT_NE(oss.str().find("mesh.latency.count 0"),
              std::string::npos);
}

TEST(Suggest, ClosestMatchesOrdersByDistance)
{
    const std::vector<std::string> cands = {"dmu.tat.hits",
                                            "dmu.tat.misses",
                                            "mesh.latency"};
    const auto near = sim::closestMatches("dmu.tat.hit", cands);
    ASSERT_FALSE(near.empty());
    EXPECT_EQ(near[0], "dmu.tat.hits");
    EXPECT_EQ(sim::suggestHint("zzzzqq", cands), "");
}
