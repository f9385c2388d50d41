/**
 * @file
 * Golden-determinism guard for the event kernel.
 *
 * The pooled-event heap kernel must preserve the seed
 * kernel's (tick, seq) execution order bit-for-bit. These makespans
 * were captured from full-machine runs of the creation-bound and
 * pipeline benchmarks under both software-pool schedulers *before* the
 * kernel swap (with the PR's locality-scheduler fix already applied,
 * since that intentionally changes locality schedules) and must never
 * drift: any change here means the kernel reordered events.
 *
 * The 32-core goldens never have more than 32 events pending; the
 * scaled goldens (256 and 1024 cores) pin runs whose pending set
 * peaks at 54-133 events, captured before the calendar tiers were
 * replaced by a single heap.
 */

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/experiment.hh"
#include "driver/fork_runner.hh"
#include "driver/spec/spec.hh"
#include "driver/sweep.hh"

using namespace tdm;

namespace {

struct Golden
{
    core::RuntimeType runtime;
    const char *workload;
    const char *scheduler;
    sim::Tick makespan;
};

const Golden goldens[] = {
    {core::RuntimeType::Tdm, "cholesky", "fifo", 142451635ull},
    {core::RuntimeType::Tdm, "cholesky", "locality", 144116539ull},
    {core::RuntimeType::Tdm, "lu", "fifo", 46711567ull},
    {core::RuntimeType::Tdm, "lu", "locality", 45515187ull},
    {core::RuntimeType::Tdm, "dedup", "fifo", 809107314ull},
    {core::RuntimeType::Tdm, "dedup", "locality", 801222268ull},
    {core::RuntimeType::Software, "cholesky", "fifo", 157277791ull},
    {core::RuntimeType::Software, "cholesky", "locality", 160051164ull},
    {core::RuntimeType::Software, "lu", "fifo", 47266035ull},
    {core::RuntimeType::Software, "lu", "locality", 45521241ull},
    {core::RuntimeType::Software, "dedup", "fifo", 809344123ull},
    {core::RuntimeType::Software, "dedup", "locality", 801426713ull},
};

class GoldenDeterminism : public ::testing::TestWithParam<Golden>
{};

/** Bit-level equality of two full metric trees: same keys, and every
 *  double payload identical down to the last mantissa bit. */
void
expectMetricsBitIdentical(const sim::MetricSet &cold,
                          const sim::MetricSet &forked, const char *what)
{
    ASSERT_EQ(cold.entries().size(), forked.entries().size()) << what;
    auto it = forked.entries().begin();
    for (const auto &[key, v] : cold.entries()) {
        ASSERT_EQ(key, it->first) << what;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                  std::bit_cast<std::uint64_t>(it->second))
            << what << ": metric '" << key << "' diverged (cold " << v
            << " vs forked " << it->second << ")";
        ++it;
    }
}

std::string
roiKeyOf(const driver::Experiment &e)
{
    return driver::spec::roiFingerprint(
        driver::campaign::canonicalConfig(e));
}

} // namespace

TEST_P(GoldenDeterminism, MakespanIsByteIdenticalToSeedKernel)
{
    const Golden &g = GetParam();
    driver::Experiment e;
    e.workload = g.workload;
    e.runtime = g.runtime;
    e.config.scheduler = g.scheduler;
    driver::RunSummary s = driver::run(e);
    ASSERT_TRUE(s.completed);
    EXPECT_EQ(s.makespan, g.makespan)
        << "event kernel changed the execution order for " << g.workload
        << "/" << g.scheduler;
}

TEST_P(GoldenDeterminism, ForkedRunsReproduceColdRunsBitForBit)
{
    // The fork contract: a member differing from the last cold leg
    // only in a `power.*` key is served by re-pricing a copy of the
    // leader's metric tree, and must reproduce a cold run of the same
    // experiment bit-for-bit, makespan and the entire metric tree
    // alike. The chain re-prices one leader once per Final key, so a
    // new power key is covered without an edit here.
    const Golden &g = GetParam();
    driver::Experiment leader;
    leader.workload = g.workload;
    leader.runtime = g.runtime;
    leader.config.scheduler = g.scheduler;

    driver::ForkGroupRunner runner(nullptr);
    bool forked = true;
    const driver::RunSummary lead =
        runner.run(leader, roiKeyOf(leader), nullptr, &forked);
    EXPECT_FALSE(forked) << "first member must run cold";
    ASSERT_TRUE(lead.completed);
    EXPECT_EQ(lead.makespan, g.makespan);

    std::size_t visited = 0, powerKeys = 0;
    for (const driver::spec::Binding &b : driver::spec::allBindings()) {
        if (b.key.rfind("power.", 0) == 0)
            ++powerKeys;
        if (b.phase != driver::spec::KeyPhase::Final)
            continue;
        SCOPED_TRACE(b.key);
        ++visited;
        ASSERT_EQ(b.kind, driver::spec::ValueKind::Double);
        const double def = std::stod(b.defaultValue);
        driver::Experiment variant = leader;
        driver::spec::applyKey(
            variant, b.key,
            driver::spec::formatDouble(def != 0.0 ? 2.0 * def : 1.0));
        ASSERT_EQ(roiKeyOf(variant), roiKeyOf(leader));

        const driver::RunSummary cold = driver::run(variant);
        ASSERT_TRUE(cold.completed);
        const driver::RunSummary fork =
            runner.run(variant, roiKeyOf(variant), nullptr, &forked);
        EXPECT_TRUE(forked) << "must fork, not re-simulate cold";
        EXPECT_EQ(fork.makespan, cold.makespan);
        expectMetricsBitIdentical(cold.metrics(), fork.metrics(),
                                  b.key.c_str());
    }
    EXPECT_GT(visited, 0u);
    EXPECT_EQ(visited, powerKeys);
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldens, GoldenDeterminism, ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(core::traitsOf(info.param.runtime).name) + "_"
             + info.param.workload + "_" + info.param.scheduler;
    });

TEST(GoldenDeterminism, SharedGraphCampaignReproducesAllGoldens)
{
    // The same twelve pinned runs through the campaign engine's
    // shared-graph path: each distinct workload graph is built once
    // and read concurrently by four workers, and every makespan must
    // still match the seed kernel bit-for-bit — graph sharing (and the
    // flat LRU/DMU containers underneath) are pure optimizations.
    std::vector<driver::SweepPoint> points;
    for (const Golden &g : goldens) {
        driver::Experiment e;
        e.workload = g.workload;
        e.runtime = g.runtime;
        e.config.scheduler = g.scheduler;
        points.push_back(driver::SweepPoint{
            std::string(core::traitsOf(g.runtime).name) + "/"
                + g.workload + "/" + g.scheduler,
            e});
    }

    driver::campaign::EngineOptions opts;
    opts.threads = 4;
    driver::campaign::CampaignEngine engine(opts);
    auto rep = engine.run("goldens", points);

    // 3 workloads, each with equal SW and TDM optima: one graph each.
    EXPECT_EQ(rep.graphBuilds, 3u);
    EXPECT_EQ(rep.graphShares, 9u);

    ASSERT_EQ(rep.jobs.size(), std::size(goldens));
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        ASSERT_TRUE(rep.jobs[i].ok()) << rep.jobs[i].label;
        EXPECT_EQ(rep.jobs[i].summary.makespan, goldens[i].makespan)
            << "shared-graph path changed the simulation for "
            << rep.jobs[i].label;
    }
}

namespace {

/**
 * A pinned run on a scaled-up machine: fine-grained fig13 shapes on
 * 256 and 1024 cores, where 54-133 events are pending at peak.
 */
struct ScaledGolden
{
    const char *workload;
    const char *cores;
    const char *mesh; ///< side of the square mesh
    const char *runtime;
    sim::Tick makespan;
    std::uint64_t digest; ///< metricDigest() of the full metric tree
};

const ScaledGolden scaledGoldens[] = {
    {"cholesky", "256", "17", "sw", 882748961ull,
     18327077666689421253ull},
    {"cholesky", "256", "17", "tdm", 130857996ull,
     9086250344445520710ull},
    {"cholesky", "1024", "33", "sw", 882749009ull,
     13326757804109426056ull},
    {"cholesky", "1024", "33", "tdm", 143794630ull,
     5892030960072821004ull},
    {"histogram", "256", "17", "sw", 199646051ull,
     15218515482939868493ull},
    {"histogram", "256", "17", "tdm", 64167324ull,
     15555186619147539404ull},
    {"histogram", "1024", "33", "sw", 199646051ull,
     17133331911231835093ull},
    {"histogram", "1024", "33", "tdm", 73576729ull,
     7527169626247058169ull},
};

/** 64-bit FNV-1a over every key and the bit pattern of its value. */
std::uint64_t
metricDigest(const sim::MetricSet &m)
{
    std::string bytes;
    for (const auto &[key, v] : m.entries()) {
        bytes += key;
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 64; i += 8)
            bytes += static_cast<char>(bits >> i);
    }
    return driver::campaign::fnv1a64(bytes);
}

} // namespace

TEST(GoldenDeterminism, ScaledMachinesMatchPinnedRuns)
{
    // Each point runs cold, then is served again by a finalize fork:
    // both legs must reproduce the pin.
    for (const ScaledGolden &g : scaledGoldens) {
        driver::Experiment e;
        driver::spec::applyKey(e, "workload", g.workload);
        driver::spec::applyKey(e, "workload.granularity", "4096");
        driver::spec::applyKey(e, "machine.cores", g.cores);
        driver::spec::applyKey(e, "mesh.width", g.mesh);
        driver::spec::applyKey(e, "mesh.height", g.mesh);
        driver::spec::applyKey(e, "runtime", g.runtime);
        driver::ForkGroupRunner runner(nullptr);
        const std::string roi = roiKeyOf(e);
        const std::pair<const char *, std::string> legs[] = {
            {"cold", roi},
            {"finalize fork", roi},
        };
        for (const auto &[leg, label] : legs) {
            bool forked = false;
            const driver::RunSummary s =
                runner.run(e, label, nullptr, &forked);
            const std::string what = std::string(g.workload) + "/c"
                                   + g.cores + "/" + g.runtime + " "
                                   + leg;
            EXPECT_EQ(forked, leg != legs[0].first) << what;
            ASSERT_TRUE(s.completed) << what;
            EXPECT_EQ(s.makespan, g.makespan) << what;
            EXPECT_EQ(metricDigest(s.metrics()), g.digest) << what;
        }
    }
}
