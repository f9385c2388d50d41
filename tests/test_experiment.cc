/**
 * @file
 * Driver-level tests: experiments, sweeps and report helpers.
 */

#include <gtest/gtest.h>

#include "driver/campaign/engine.hh"
#include "driver/experiment.hh"
#include "driver/report/aggregate.hh"
#include "driver/spec/grid.hh"

using namespace tdm;

namespace {

driver::Experiment
smallExperiment(core::RuntimeType rt_, const std::string &sched = "fifo")
{
    driver::Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks
    e.runtime = rt_;
    e.config.scheduler = sched;
    e.config.numCores = 8;
    return e;
}

} // namespace

TEST(Experiment, RunsAllRuntimes)
{
    for (core::RuntimeType rt_ : core::allRuntimeTypes()) {
        auto s = driver::run(smallExperiment(rt_));
        EXPECT_TRUE(s.completed) << core::traitsOf(rt_).name;
        EXPECT_EQ(s.numTasks, 120u);
        EXPECT_GT(s.timeMs, 0.0);
    }
}

TEST(Experiment, RunsAllSchedulers)
{
    for (const std::string &sched : rt::allSchedulerNames()) {
        auto s = driver::run(
            smallExperiment(core::RuntimeType::Tdm, sched));
        EXPECT_TRUE(s.completed) << sched;
    }
}

TEST(Experiment, SpeedupHelpers)
{
    auto base = driver::run(smallExperiment(core::RuntimeType::Software));
    auto test = driver::run(smallExperiment(core::RuntimeType::Tdm));
    double sp = driver::speedup(base, test);
    EXPECT_GT(sp, 0.5);
    EXPECT_LT(sp, 5.0);
    double edp = driver::normalizedEdp(base, test);
    EXPECT_GT(edp, 0.0);
}

TEST(Experiment, TdmImpliesTdmOptimalGranularity)
{
    driver::Experiment e;
    e.workload = "qr";
    e.runtime = core::RuntimeType::Tdm;
    e.config.numCores = 8;
    e.params.granularity = 128; // N=8 -> small graph; explicit wins
    auto s = driver::run(e);
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.numTasks, 204u); // 8 + 2*28 + 140
}

TEST(Sweep, RunsLabeledPoints)
{
    driver::Experiment a = smallExperiment(core::RuntimeType::Software);
    driver::Experiment b = a;
    a.config.dmu.accessCycles = 1;
    b.config.dmu.accessCycles = 4;
    driver::campaign::CampaignEngine engine; // one worker thread
    const auto rep = engine.run("sweep", {{"a", a}, {"b", b}});
    ASSERT_EQ(rep.jobs.size(), 2u);
    EXPECT_EQ(rep.jobs[0].label, "a");
    EXPECT_TRUE(rep.jobs[1].summary.completed);
}

TEST(Sweep, RunsGridPoints)
{
    // The declarative form of the sweep above: the axis is a spec
    // key, the points come straight out of the grid.
    auto points = driver::spec::Grid()
                      .set("workload", "cholesky")
                      .set("workload.granularity", "262144")
                      .set("machine.cores", "8")
                      .axis("dmu.access_cycles", {"1", "4"})
                      .label("dmu{dmu.access_cycles}")
                      .points();
    driver::campaign::CampaignEngine engine; // one worker thread
    const auto results = engine.run("grid", points).jobs;
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "dmu1");
    EXPECT_EQ(results[1].label, "dmu4");
    EXPECT_TRUE(results[0].summary.completed);
    EXPECT_TRUE(results[1].summary.completed);
    // A faster DMU can't be slower.
    EXPECT_LE(results[0].summary.makespan, results[1].summary.makespan);
}

TEST(Report, Geomean)
{
    EXPECT_DOUBLE_EQ(driver::report::geomean({1.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(driver::report::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(driver::report::geomean({2.0, 0.0, 8.0}), 4.0);
}

TEST(Report, MeanAndPercent)
{
    EXPECT_DOUBLE_EQ(driver::report::mean({1.0, 3.0}), 2.0);
    EXPECT_EQ(driver::report::percent(0.123), "12.3%");
    EXPECT_EQ(driver::report::percent(-0.204), "-20.4%");
}
