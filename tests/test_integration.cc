/**
 * @file
 * Full-stack integration: every benchmark under every runtime model at
 * the paper's configuration must complete, execute every task, respect
 * the critical-path lower bound, and keep time accounting consistent.
 * Also checks the headline cross-runtime relationships on the
 * creation-bound benchmarks.
 */

#include <gtest/gtest.h>

#include "driver/experiment.hh"
#include "driver/report/aggregate.hh"

using namespace tdm;

namespace {

struct IntegrationParam
{
    const char *workload;
    core::RuntimeType runtime;
};

class FullStack : public ::testing::TestWithParam<IntegrationParam>
{};

std::vector<IntegrationParam>
allCombos()
{
    std::vector<IntegrationParam> out;
    for (const auto &w : wl::allWorkloads())
        for (auto rt_ : core::allRuntimeTypes())
            out.push_back({w.name.c_str(), rt_});
    return out;
}

} // namespace

TEST_P(FullStack, CompletesAndAccountsTime)
{
    const IntegrationParam &p = GetParam();
    driver::Experiment e;
    e.workload = p.workload;
    e.runtime = p.runtime;
    e.config.scheduler = "fifo";
    auto s = driver::run(e);
    ASSERT_TRUE(s.completed);
    EXPECT_EQ(s.tasksExecuted, s.numTasks);
    EXPECT_GT(s.timeMs, 0.0);
    EXPECT_GT(s.energyJ, 0.0);

    // Makespan can never beat the dependence-graph critical path.
    wl::WorkloadParams params;
    params.tdmOptimal = core::traitsOf(p.runtime).usesDmu();
    rt::TaskGraph g = wl::buildWorkload(p.workload, params);
    EXPECT_GE(s.makespan, g.criticalPathCycles());
    // ... nor the perfectly parallel work bound.
    EXPECT_GE(s.makespan,
              g.totalComputeCycles() / e.config.numCores);

    // Chip-wide accounted time stays within the physical budget.
    const sim::MetricSet &m = s.metrics();
    EXPECT_LE(m.at("cpu.chip.deps_ticks") + m.at("cpu.chip.sched_ticks")
                  + m.at("cpu.chip.exec_ticks"),
              static_cast<double>(s.makespan * e.config.numCores));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllRuntimes, FullStack,
    ::testing::ValuesIn(allCombos()),
    [](const ::testing::TestParamInfo<IntegrationParam> &info) {
        return std::string(info.param.workload) + "_"
             + core::traitsOf(info.param.runtime).name;
    });

TEST(Integration, TdmBeatsSwOnCreationBoundBenchmarks)
{
    for (const char *w : {"cholesky", "qr", "streamcluster"}) {
        driver::Experiment e;
        e.workload = w;
        e.config.scheduler = "fifo";
        e.runtime = core::RuntimeType::Software;
        auto sw = driver::run(e);
        e.runtime = core::RuntimeType::Tdm;
        auto tdm = driver::run(e);
        ASSERT_TRUE(sw.completed && tdm.completed);
        EXPECT_GT(driver::speedup(sw, tdm), 1.05) << w;
    }
}

TEST(Integration, TdmReducesCreationFractionOnAverage)
{
    std::vector<double> sw_frac, tdm_frac;
    for (const auto &w : wl::allWorkloads()) {
        driver::Experiment e;
        e.workload = w.name;
        e.config.scheduler = "fifo";
        e.runtime = core::RuntimeType::Software;
        sw_frac.push_back(
            driver::run(e).masterCreationFraction);
        e.runtime = core::RuntimeType::Tdm;
        tdm_frac.push_back(
            driver::run(e).masterCreationFraction);
    }
    // Figure 10's claim: average creation time drops substantially.
    EXPECT_LT(driver::report::mean(tdm_frac), 0.6 * driver::report::mean(sw_frac));
}

TEST(Integration, FlexibleSchedulingBeatsFixedHardware)
{
    // Section VI-C: the best TDM scheduler outperforms Task
    // Superscalar on benchmarks where policy matters (dedup).
    driver::Experiment e;
    e.workload = "dedup";
    e.config.scheduler = "fifo";
    e.runtime = core::RuntimeType::TaskSuperscalar;
    auto tss = driver::run(e);
    e.runtime = core::RuntimeType::Tdm;
    e.config.scheduler = "successor";
    auto tdm = driver::run(e);
    ASSERT_TRUE(tss.completed && tdm.completed);
    EXPECT_GT(driver::speedup(tss, tdm), 1.05);
}

TEST(Integration, DmuPowerIsNegligible)
{
    // The DMU adds well under 1% to the chip energy (paper: <0.01% of
    // power). Compare TDM energy against the same machine with the
    // accelerator contributions subtracted via the SW run's ratio.
    driver::Experiment e;
    e.workload = "cholesky";
    e.config.scheduler = "fifo";
    e.runtime = core::RuntimeType::Tdm;
    auto s = driver::run(e);
    ASSERT_TRUE(s.completed);
    // DMU dynamic energy: accesses x ~3 pJ; leakage ~2 mW.
    double dmu_j = static_cast<double>(s.dmuAccesses) * 3e-12
                 + 2e-3 * s.timeMs * 1e-3;
    EXPECT_LT(dmu_j / s.energyJ, 0.01);
}
