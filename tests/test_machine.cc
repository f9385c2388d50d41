/**
 * @file
 * End-to-end machine tests: all four runtime models execute task
 * graphs to completion, respect dependence semantics, account time
 * consistently, and reproduce the qualitative behaviours the paper
 * builds on (TDM cuts creation cost; locality scheduling helps
 * consumer placement).
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "driver/experiment.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

cpu::MachineConfig
testConfig(unsigned cores = 8)
{
    cpu::MachineConfig cfg;
    cfg.numCores = cores;
    return cfg;
}

/** A small fork-join graph with a serial creation-heavy prologue. */
rt::TaskGraph
forkJoinGraph(unsigned n, sim::Tick dur = sim::usToTicks(200),
              bool fragmented = false)
{
    rt::TaskGraph g("forkjoin");
    std::vector<rt::RegionId> r;
    for (unsigned i = 0; i < n; ++i)
        r.push_back(g.addRegion(4096));
    g.beginParallel();
    for (unsigned i = 0; i < n; ++i) {
        g.createTask(dur);
        g.dep(r[i], rt::DepDir::InOut, fragmented);
    }
    return g;
}

rt::TaskGraph
chainGraph(unsigned n, sim::Tick dur = sim::usToTicks(50))
{
    rt::TaskGraph g("chain");
    rt::RegionId r = g.addRegion(64 * 1024);
    g.beginParallel();
    for (unsigned i = 0; i < n; ++i) {
        g.createTask(dur);
        g.dep(r, rt::DepDir::InOut);
    }
    return g;
}

class MachineAllRuntimes
    : public ::testing::TestWithParam<core::RuntimeType>
{};

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Runtimes, MachineAllRuntimes,
    ::testing::Values(core::RuntimeType::Software, core::RuntimeType::Tdm,
                      core::RuntimeType::Carbon,
                      core::RuntimeType::TaskSuperscalar),
    [](const ::testing::TestParamInfo<core::RuntimeType> &info) {
        return core::traitsOf(info.param).name;
    });

TEST_P(MachineAllRuntimes, CompletesForkJoin)
{
    rt::TaskGraph g = forkJoinGraph(64);
    core::Machine m(testConfig(), g, GetParam());
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 64u);
    EXPECT_GT(res.makespan, 0u);
}

TEST_P(MachineAllRuntimes, CompletesChain)
{
    rt::TaskGraph g = chainGraph(40);
    core::Machine m(testConfig(), g, GetParam());
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    // A chain serializes: makespan at least the total compute time.
    EXPECT_GE(res.makespan, g.totalComputeCycles());
}

TEST_P(MachineAllRuntimes, CompletesCholeskyMini)
{
    wl::WorkloadParams p;
    p.granularity = 262144; // 8x8 tiles -> 120 tasks
    rt::TaskGraph g = wl::buildWorkload("cholesky", p);
    core::Machine m(testConfig(), g, GetParam());
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, g.numTasks());
    EXPECT_GE(res.makespan, g.criticalPathCycles());
}

TEST_P(MachineAllRuntimes, CompletesMultiRegionGraph)
{
    rt::TaskGraph g("rounds");
    rt::RegionId shared = g.addRegion(4096);
    std::vector<rt::RegionId> loc;
    for (int i = 0; i < 8; ++i)
        loc.push_back(g.addRegion(4096));
    for (int round = 0; round < 5; ++round) {
        g.beginParallel(sim::usToTicks(10));
        for (int i = 0; i < 8; ++i) {
            g.createTask(sim::usToTicks(100));
            g.dep(shared, rt::DepDir::In);
            g.dep(loc[i], rt::DepDir::Out);
        }
    }
    core::Machine m(testConfig(), g, GetParam());
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 40u);
}

TEST_P(MachineAllRuntimes, Deterministic)
{
    wl::WorkloadParams p;
    p.granularity = 262144;
    rt::TaskGraph g1 = wl::buildWorkload("cholesky", p);
    rt::TaskGraph g2 = wl::buildWorkload("cholesky", p);
    core::Machine m1(testConfig(), g1, GetParam());
    core::Machine m2(testConfig(), g2, GetParam());
    EXPECT_EQ(driver::summarize(m1.run(), g1).makespan,
              driver::summarize(m2.run(), g2).makespan);
}

TEST_P(MachineAllRuntimes, PhaseTimeAddsUpToMakespan)
{
    rt::TaskGraph g = forkJoinGraph(64);
    cpu::MachineConfig cfg = testConfig();
    core::Machine m(cfg, g, GetParam());
    auto res = driver::summarize(m.run(), g);
    ASSERT_TRUE(res.completed);
    // Every core's accounted time must not exceed the makespan, and
    // the chip total must be close to cores x makespan (small slack
    // for segments cut off at the end of the run).
    sim::Tick chip = m.phases().chipTotal().total();
    sim::Tick full = res.makespan * cfg.numCores;
    EXPECT_LE(chip, full + cfg.numCores * 1000);
    EXPECT_GE(static_cast<double>(chip), 0.95 * full);
}

TEST_P(MachineAllRuntimes, EnergyAndEdpPositive)
{
    rt::TaskGraph g = forkJoinGraph(32);
    core::Machine m(testConfig(), g, GetParam());
    auto res = driver::summarize(m.run(), g);
    EXPECT_GT(res.energyJ, 0.0);
    EXPECT_GT(res.edp, 0.0);
    EXPECT_GT(res.avgWatts, 0.0);
}

// ---- runtime-specific behaviours ----

TEST(Machine, TdmReducesCreationTimeVsSw)
{
    // Creation-heavy: many tasks with fragmented deps (expensive in
    // software, cheap for the DMU).
    rt::TaskGraph g1 = forkJoinGraph(256, sim::usToTicks(60), true);
    rt::TaskGraph g2 = forkJoinGraph(256, sim::usToTicks(60), true);
    core::Machine sw(testConfig(), g1, core::RuntimeType::Software);
    core::Machine tdm(testConfig(), g2, core::RuntimeType::Tdm);
    auto rs = driver::summarize(sw.run(), g1);
    auto rt_ = driver::summarize(tdm.run(), g2);
    ASSERT_TRUE(rs.completed);
    ASSERT_TRUE(rt_.completed);
    EXPECT_LT(tdm.phases().master().deps, sw.phases().master().deps);
    EXPECT_LT(rt_.makespan, rs.makespan);
}

TEST(Machine, DmuEmptyAfterRun)
{
    rt::TaskGraph g = forkJoinGraph(64);
    core::Machine m(testConfig(), g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    ASSERT_TRUE(res.completed);
    ASSERT_NE(m.dmuUnit(), nullptr);
    EXPECT_EQ(m.dmuUnit()->tasksInFlight(), 0u);
    EXPECT_EQ(m.dmuUnit()->depsInFlight(), 0u);
}

TEST(Machine, UndersizedDmuBlocksButCompletes)
{
    // A TAT smaller than the task count forces the master to stall on
    // capacity; workers drain tasks and the run still completes.
    rt::TaskGraph g = forkJoinGraph(100);
    cpu::MachineConfig cfg = testConfig();
    cfg.dmu.tatEntries = 16;
    cfg.dmu.tatAssoc = 8;
    cfg.dmu.readyQueueEntries = 16;
    core::Machine m(cfg, g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.dmuBlockedOps, 0u);
}

TEST(Machine, ImpossibleDmuDeadlocksGracefully)
{
    // A single task with more dependences than the DAT can ever hold
    // can never be created: the run must end incomplete, not hang.
    rt::TaskGraph g("impossible");
    std::vector<rt::RegionId> r;
    for (int i = 0; i < 8; ++i)
        r.push_back(g.addRegion(4096));
    g.beginParallel();
    g.createTask(1000);
    for (int i = 0; i < 8; ++i)
        g.dep(r[i], rt::DepDir::In);
    cpu::MachineConfig cfg = testConfig();
    cfg.dmu.datEntries = 4;
    cfg.dmu.datAssoc = 4;
    core::Machine m(cfg, g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    EXPECT_FALSE(res.completed);
}

TEST(Machine, CarbonUsesSteals)
{
    // All creation-ready tasks land on the master's queue; other cores
    // must steal them.
    rt::TaskGraph g = forkJoinGraph(64);
    core::Machine m(testConfig(), g, core::RuntimeType::Carbon);
    auto res = driver::summarize(m.run(), g);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.steals, 0u);
}

TEST(Machine, MemoryModelAddsStallTime)
{
    rt::TaskGraph g1 = forkJoinGraph(32);
    rt::TaskGraph g2 = forkJoinGraph(32);
    cpu::MachineConfig with = testConfig();
    cpu::MachineConfig without = testConfig();
    without.enableMemModel = false;
    core::Machine m1(with, g1, core::RuntimeType::Software);
    core::Machine m2(without, g2, core::RuntimeType::Software);
    m1.run();
    m2.run();
    EXPECT_GT(m1.phases().chipTotal().exec, m2.phases().chipTotal().exec);
}

TEST(Machine, WorkersMostlyExecuteOnBalancedLoad)
{
    rt::TaskGraph g = forkJoinGraph(512, sim::usToTicks(500));
    core::Machine m(testConfig(), g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    ASSERT_TRUE(res.completed);
    // Workers should spend the bulk of their time executing.
    EXPECT_GT(m.phases().workersTotal().fraction(cpu::Phase::Exec), 0.5);
}
