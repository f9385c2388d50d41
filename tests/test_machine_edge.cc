/**
 * @file
 * Machine edge cases: minimal graphs, empty regions, tiny machines,
 * sequential-only programs, and configuration corner cases.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "driver/experiment.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

cpu::MachineConfig
tiny()
{
    cpu::MachineConfig cfg;
    cfg.numCores = 2;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    return cfg;
}

/** A broken user policy that loses every task it is handed. */
class DroppingScheduler : public rt::Scheduler
{
  public:
    const char *name() const override { return "drop"; }
    void push(const rt::ReadyTask &) override {}
    std::optional<rt::ReadyTask> pop(sim::CoreId) override { return {}; }
    bool empty() const override { return true; }
    std::size_t size() const override { return 0; }
};

} // namespace

TEST(MachineEdge, SingleTaskGraph)
{
    for (auto rt_ : core::allRuntimeTypes()) {
        rt::TaskGraph g("one");
        rt::RegionId r = g.addRegion(1024);
        g.beginParallel();
        g.createTask(sim::usToTicks(100));
        g.dep(r, rt::DepDir::Out);
        core::Machine m(tiny(), g, rt_);
        auto res = driver::summarize(m.run(), g);
        EXPECT_TRUE(res.completed) << core::traitsOf(rt_).name;
        EXPECT_EQ(res.tasksExecuted, 1u);
        EXPECT_GE(res.makespan, sim::usToTicks(100));
    }
}

TEST(MachineEdge, TaskWithNoDeps)
{
    rt::TaskGraph g("nodeps");
    g.beginParallel();
    g.createTask(sim::usToTicks(50));
    g.createTask(sim::usToTicks(50));
    core::Machine m(tiny(), g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 2u);
}

TEST(MachineEdge, EmptyParallelRegionBetweenWork)
{
    rt::TaskGraph g("gap");
    rt::RegionId r = g.addRegion(1024);
    g.beginParallel();
    g.createTask(sim::usToTicks(50));
    g.dep(r, rt::DepDir::Out);
    g.beginParallel(sim::usToTicks(500)); // sequential-only section
    g.beginParallel();
    g.createTask(sim::usToTicks(50));
    g.dep(r, rt::DepDir::In);
    core::Machine m(tiny(), g, core::RuntimeType::Software);
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 2u);
    // The sequential section appears as master EXEC time.
    EXPECT_GE(m.phases().master().exec, sim::usToTicks(500));
}

TEST(MachineEdge, PrologueCountsAsMasterExec)
{
    rt::TaskGraph g("pro");
    g.beginParallel(sim::usToTicks(300));
    g.createTask(sim::usToTicks(10));
    core::Machine m(tiny(), g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    ASSERT_TRUE(res.completed);
    EXPECT_GE(m.phases().master().exec, sim::usToTicks(300));
}

TEST(MachineEdge, TwoCoreMachineRunsRealBenchmark)
{
    wl::WorkloadParams p;
    p.granularity = 262144;
    rt::TaskGraph g = wl::buildWorkload("cholesky", p);
    core::Machine m(tiny(), g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, g.numTasks());
}

TEST(MachineEdge, ThrottleOfOneStillCompletes)
{
    cpu::MachineConfig cfg = tiny();
    cfg.throttleTasks = 1; // pathological: one task in flight at a time
    rt::TaskGraph g("chain");
    rt::RegionId r = g.addRegion(1024);
    g.beginParallel();
    for (int i = 0; i < 20; ++i) {
        g.createTask(sim::usToTicks(10));
        g.dep(r, rt::DepDir::InOut);
    }
    core::Machine m(cfg, g, core::RuntimeType::Tdm);
    auto res = driver::summarize(m.run(), g);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 20u);
}

TEST(MachineEdge, ManyRegionsManyBarriers)
{
    rt::TaskGraph g("barriers");
    rt::RegionId r = g.addRegion(1024);
    for (int round = 0; round < 50; ++round) {
        g.beginParallel(sim::usToTicks(5));
        g.createTask(sim::usToTicks(20));
        g.dep(r, rt::DepDir::InOut);
    }
    for (auto rt_ : core::allRuntimeTypes()) {
        core::Machine m(tiny(), g, rt_);
        auto res = driver::summarize(m.run(), g);
        EXPECT_TRUE(res.completed) << core::traitsOf(rt_).name;
        EXPECT_EQ(res.tasksExecuted, 50u);
    }
}

TEST(MachineEdge, HigherDmuLatencySlowsButCompletes)
{
    wl::WorkloadParams p;
    p.granularity = 262144;
    rt::TaskGraph g1 = wl::buildWorkload("cholesky", p);
    rt::TaskGraph g2 = wl::buildWorkload("cholesky", p);
    cpu::MachineConfig fast = tiny();
    cpu::MachineConfig slow = tiny();
    slow.dmu.accessCycles = 64;
    core::Machine mf(fast, g1, core::RuntimeType::Tdm);
    core::Machine ms(slow, g2, core::RuntimeType::Tdm);
    auto rf = driver::summarize(mf.run(), g1);
    auto rs = driver::summarize(ms.run(), g2);
    ASSERT_TRUE(rf.completed && rs.completed);
    EXPECT_GE(rs.makespan, rf.makespan);
}

TEST(MachineEdge, SchedulerPolicyChangesNoHardware)
{
    // Same DMU accesses regardless of software policy on a fixed graph
    // shape would be too strong (drain order varies), but the DMU
    // access count must stay within a tight band: scheduling is
    // software-only.
    wl::WorkloadParams p;
    p.granularity = 262144;
    std::vector<std::uint64_t> accesses;
    for (const auto &s : rt::allSchedulerNames()) {
        rt::TaskGraph g = wl::buildWorkload("cholesky", p);
        cpu::MachineConfig cfg;
        cfg.numCores = 8;
        cfg.scheduler = s;
        core::Machine m(cfg, g, core::RuntimeType::Tdm);
        auto res = driver::summarize(m.run(), g);
        ASSERT_TRUE(res.completed);
        accesses.push_back(res.dmuAccesses);
    }
    auto [lo, hi] = std::minmax_element(accesses.begin(), accesses.end());
    EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 1.05);
}

TEST(MachineEdge, DeadlockWarningCountsTasksWithoutBlamingTheDmu)
{
    // The Software runtime has no DMU: a run that stalls there must
    // say how far it got, not that it is blocked on DMU capacity.
    rt::registerScheduler("test-drop", [](unsigned, std::uint32_t) {
        return std::make_unique<DroppingScheduler>();
    });
    rt::TaskGraph g("two");
    rt::RegionId r = g.addRegion(1024);
    g.beginParallel();
    for (int i = 0; i < 2; ++i) {
        g.createTask(sim::usToTicks(10));
        g.dep(r, rt::DepDir::In);
    }
    cpu::MachineConfig cfg = tiny();
    cfg.scheduler = "test-drop";
    core::Machine m(cfg, g, core::RuntimeType::Software);
    testing::internal::CaptureStderr();
    const auto res = driver::summarize(m.run(), g);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(res.completed);
    EXPECT_NE(err.find("deadlocked after executing 0 of 2 tasks"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("DMU"), std::string::npos) << err;
}

TEST(MachineEdge, OneCoreMachineRejected)
{
    rt::TaskGraph g("x");
    g.beginParallel();
    g.createTask(100);
    cpu::MachineConfig cfg = tiny();
    cfg.numCores = 1;
    EXPECT_THROW(core::Machine(cfg, g, core::RuntimeType::Software),
                 sim::FatalError);
}
