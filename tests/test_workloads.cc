/**
 * @file
 * Workload-generator tests: Table II task counts and durations, graph
 * well-formedness, and granularity scaling.
 */

#include <gtest/gtest.h>

#include "workloads/registry.hh"

using namespace tdm;

namespace {

/** Check the graph is consistent: deps reference declared regions. */
void
checkWellFormed(const rt::TaskGraph &g)
{
    ASSERT_GT(g.numTasks(), 0u);
    for (const rt::Task &t : g.tasks()) {
        for (const rt::DepSpec &d : t.deps)
            ASSERT_LT(d.region, g.regions().size());
    }
    // Edges only point forward (acyclic by construction); validate via
    // a full derivation.
    auto e = g.buildEdges();
    for (rt::TaskId t = 0; t < g.numTasks(); ++t)
        for (rt::TaskId s : e.successors[t])
            ASSERT_GT(s, t);
}

struct Expectation
{
    const char *name;
    std::uint32_t swTasks;
    double swAvgUs;
    std::uint32_t tdmTasks;
    double tdmAvgUs;
    double tolTasks;  // relative tolerance on counts
    double tolUs;     // relative tolerance on durations
};

class WorkloadTableII : public ::testing::TestWithParam<Expectation>
{};

} // namespace

// Table II of the paper; count tolerances cover our documented
// deviations (e.g. blackscholes 3264 vs 3300).
INSTANTIATE_TEST_SUITE_P(
    TableII, WorkloadTableII,
    ::testing::Values(
        Expectation{"blackscholes", 3300, 1770, 6500, 823, 0.02, 0.10},
        Expectation{"cholesky", 5984, 183, 5984, 183, 0.0, 0.15},
        Expectation{"dedup", 244, 27748, 244, 27748, 0.0, 0.10},
        Expectation{"ferret", 1536, 7667, 1536, 7667, 0.0, 0.10},
        Expectation{"fluidanimate", 2560, 1804, 2560, 1804, 0.0, 0.10},
        Expectation{"histogram", 512, 3824, 512, 3824, 0.0, 0.10},
        Expectation{"lu", 1496, 424, 1496, 424, 0.02, 0.15},
        Expectation{"qr", 1496, 997, 11440, 96, 0.0, 0.40},
        Expectation{"streamcluster", 42115, 376, 42115, 376, 0.01, 0.10}),
    [](const ::testing::TestParamInfo<Expectation> &info) {
        return info.param.name;
    });

TEST_P(WorkloadTableII, SwOptimalMatchesPaper)
{
    const Expectation &e = GetParam();
    rt::TaskGraph g = wl::buildWorkload(e.name, {});
    checkWellFormed(g);
    EXPECT_NEAR(static_cast<double>(g.numTasks()),
                static_cast<double>(e.swTasks),
                e.tolTasks * e.swTasks + 0.5);
    EXPECT_NEAR(g.avgTaskUs(), e.swAvgUs, e.tolUs * e.swAvgUs);
}

TEST_P(WorkloadTableII, TdmOptimalMatchesPaper)
{
    const Expectation &e = GetParam();
    wl::WorkloadParams p;
    p.granularity = wl::findWorkload(e.name).tdmGranularity;
    rt::TaskGraph g = wl::buildWorkload(e.name, p);
    checkWellFormed(g);
    EXPECT_NEAR(static_cast<double>(g.numTasks()),
                static_cast<double>(e.tdmTasks),
                e.tolTasks * e.tdmTasks + 0.5);
    EXPECT_NEAR(g.avgTaskUs(), e.tdmAvgUs, e.tolUs * e.tdmAvgUs);
}

TEST(Workloads, RegistryHasNine)
{
    EXPECT_EQ(wl::allWorkloads().size(), 9u);
    EXPECT_EQ(wl::findWorkload("cho").name, "cholesky");
    EXPECT_EQ(wl::findWorkload("QR").name, "qr");
}

TEST(Workloads, GranularityChangesTaskCount)
{
    wl::WorkloadParams coarse, fine;
    coarse.granularity = 65536; // cholesky tile bytes
    fine.granularity = 4096;
    rt::TaskGraph gc = wl::buildWorkload("cholesky", coarse);
    rt::TaskGraph gf = wl::buildWorkload("cholesky", fine);
    EXPECT_GT(gf.numTasks(), gc.numTasks());
    // Total work is roughly preserved across granularities.
    double wc = sim::ticksToUs(gc.totalComputeCycles());
    double wf = sim::ticksToUs(gf.totalComputeCycles());
    EXPECT_NEAR(wf / wc, 1.0, 0.2);
}

TEST(Workloads, DurationNoiseIsDeterministic)
{
    rt::TaskGraph a = wl::buildWorkload("ferret", {});
    rt::TaskGraph b = wl::buildWorkload("ferret", {});
    ASSERT_EQ(a.numTasks(), b.numTasks());
    for (rt::TaskId t = 0; t < a.numTasks(); ++t)
        EXPECT_EQ(a.task(t).computeCycles, b.task(t).computeCycles);
}

TEST(Workloads, SeedChangesDurations)
{
    wl::WorkloadParams p1, p2;
    p1.seed = 1;
    p2.seed = 2;
    rt::TaskGraph a = wl::buildWorkload("ferret", p1);
    rt::TaskGraph b = wl::buildWorkload("ferret", p2);
    bool any_diff = false;
    for (rt::TaskId t = 0; t < a.numTasks(); ++t)
        any_diff |= a.task(t).computeCycles != b.task(t).computeCycles;
    EXPECT_TRUE(any_diff);
}

TEST(Workloads, DedupIoTasksHaveTwoSuccessors)
{
    // The bounded-window buffer recycling gives I/O tasks 2 successors
    // (the next I/O task and the compute task whose buffer they free).
    rt::TaskGraph g = wl::buildWorkload("dedup", {});
    auto e = g.buildEdges();
    // Task 1 is the first I/O task.
    EXPECT_EQ(e.successors[1].size(), 2u);
}

TEST(Workloads, BlackscholesIsChains)
{
    rt::TaskGraph g = wl::buildWorkload("blackscholes", {});
    auto e = g.buildEdges();
    // Every task has at most one predecessor and one successor.
    for (rt::TaskId t = 0; t < g.numTasks(); ++t) {
        EXPECT_LE(e.successors[t].size(), 1u);
        EXPECT_LE(e.numPreds[t], 1u);
    }
    // 64 chains at the SW-optimal granularity.
    unsigned heads = 0;
    for (rt::TaskId t = 0; t < g.numTasks(); ++t)
        if (e.numPreds[t] == 0)
            ++heads;
    EXPECT_EQ(heads, 64u);
}

TEST(Workloads, StreamclusterHasManyRegions)
{
    rt::TaskGraph g = wl::buildWorkload("streamcluster", {});
    EXPECT_EQ(g.parallelRegions().size(), 658u);
}

TEST(Workloads, QrDepsAreFragmented)
{
    rt::TaskGraph g = wl::buildWorkload("qr", {});
    for (const rt::Task &t : g.tasks())
        for (const rt::DepSpec &d : t.deps)
            EXPECT_TRUE(d.fragmented);
}

TEST(Workloads, HistogramInFlightNearTotal)
{
    rt::TaskGraph g = wl::buildWorkload("histogram", {});
    EXPECT_EQ(g.maxTasksInRegion(), g.numTasks());
}
