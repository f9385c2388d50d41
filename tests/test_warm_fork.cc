/**
 * @file
 * Unit coverage for the warm-start fork machinery: the event queue's
 * pending-image round trip, the spec key-phase classification and its
 * two fingerprints, the metric-shape guard, forks under a stateful
 * user-defined scheduler, and ForkGroupRunner's degradation paths. The
 * end-to-end bit-for-bit contract over every golden configuration
 * lives in test_golden_determinism.cc.
 */

#include <bit>
#include <queue>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/experiment.hh"
#include "driver/fork_runner.hh"
#include "driver/graph_cache.hh"
#include "driver/spec/spec.hh"
#include "runtime/scheduler.hh"
#include "sim/event_queue.hh"

using namespace tdm;

// ---- EventQueue pending-image round trip ------------------------------

namespace {

struct Recorder
{
    std::vector<std::pair<sim::Tick, int>> log;
    sim::EventQueue *eq = nullptr;

    void
    poke(int v)
    {
        log.emplace_back(eq->now(), v);
    }
};

} // namespace

TEST(WarmForkEventQueue, SnapshotRestoreReplaysIdenticalSequence)
{
    sim::EventQueue eq;
    Recorder r{{}, &eq};
    // Many more pending events than a 32-core machine keeps, with
    // same-tick ties, so the restored heap must rebuild a deep order.
    for (int i = 0; i < 200; ++i)
        eq.post<&Recorder::poke>(10 + 7 * (i / 2), &r, i);
    eq.run(300); // consume a prefix: capture mid-flight state

    const sim::EventQueue::Image img = eq.image();
    const sim::Tick boundary = eq.now();
    const std::size_t consumed = r.log.size();

    eq.run();
    const auto firstTail = std::vector<std::pair<sim::Tick, int>>(
        r.log.begin() + static_cast<std::ptrdiff_t>(consumed),
        r.log.end());
    ASSERT_FALSE(firstTail.empty());

    // Restore twice: every replay must fire the same events at the
    // same ticks in the same order.
    for (int round = 0; round < 2; ++round) {
        r.log.clear();
        eq.restore(img);
        EXPECT_EQ(eq.now(), boundary);
        eq.run();
        EXPECT_EQ(r.log, firstTail) << "replay " << round;
    }
}

// ---- spec key-phase classification ------------------------------------

TEST(WarmForkSpec, KeyPhasesPinTheForkContract)
{
    // The grouping proof depends on this classification: mem.* keys
    // are first consumed at the warmup/ROI boundary, power.* keys
    // only during finalization, and everything else — including the
    // mem-model toggle, which changes the metric-registry shape — is
    // conservatively Warmup.
    for (const driver::spec::Binding &b : driver::spec::allBindings()) {
        driver::spec::KeyPhase want = driver::spec::KeyPhase::Warmup;
        if (b.key.rfind("mem.", 0) == 0)
            want = driver::spec::KeyPhase::Roi;
        else if (b.key.rfind("power.", 0) == 0)
            want = driver::spec::KeyPhase::Final;
        EXPECT_EQ(b.phase, want) << b.key;
    }
    const driver::spec::Binding *toggle =
        driver::spec::findBinding("machine.mem_model");
    ASSERT_NE(toggle, nullptr);
    EXPECT_EQ(toggle->phase, driver::spec::KeyPhase::Warmup);
}

TEST(WarmForkSpec, FingerprintsProjectByPhase)
{
    driver::Experiment base;
    const sim::Config canonBase =
        driver::campaign::canonicalConfig(base);

    driver::Experiment power = base;
    power.config.power.activeWatts *= 2.0;
    const sim::Config canonPower =
        driver::campaign::canonicalConfig(power);

    driver::Experiment mem = base;
    mem.config.mem.l1Bytes /= 2;
    const sim::Config canonMem = driver::campaign::canonicalConfig(mem);

    driver::Experiment sched = base;
    sched.config.scheduler = "locality";
    const sim::Config canonSched =
        driver::campaign::canonicalConfig(sched);

    // Warm fingerprint: blind to mem.* and power.*, sensitive to
    // anything that shapes the warmup trajectory.
    EXPECT_EQ(driver::spec::warmFingerprint(canonBase),
              driver::spec::warmFingerprint(canonPower));
    EXPECT_EQ(driver::spec::warmFingerprint(canonBase),
              driver::spec::warmFingerprint(canonMem));
    EXPECT_NE(driver::spec::warmFingerprint(canonBase),
              driver::spec::warmFingerprint(canonSched));

    // ROI fingerprint: blind only to power.*.
    EXPECT_EQ(driver::spec::roiFingerprint(canonBase),
              driver::spec::roiFingerprint(canonPower));
    EXPECT_NE(driver::spec::roiFingerprint(canonBase),
              driver::spec::roiFingerprint(canonMem));
    EXPECT_NE(driver::spec::roiFingerprint(canonBase),
              driver::spec::roiFingerprint(canonSched));
}

// ---- forked runs against cold runs -----------------------------------

namespace {

std::string
roiKeyOf(const driver::Experiment &e)
{
    return driver::spec::roiFingerprint(
        driver::campaign::canonicalConfig(e));
}

/** Same keys, and every value identical down to the last bit. */
void
expectMetricsBitIdentical(const sim::MetricSet &cold,
                          const sim::MetricSet &forked)
{
    ASSERT_EQ(cold.entries().size(), forked.entries().size());
    auto it = forked.entries().begin();
    for (const auto &[key, v] : cold.entries()) {
        ASSERT_EQ(key, it->first);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                  std::bit_cast<std::uint64_t>(it->second))
            << "metric '" << key << "' diverged (cold " << v
            << " vs forked " << it->second << ")";
        ++it;
    }
}

/**
 * The custom_scheduler example's criticality-then-age policy: a
 * user-defined policy whose ready heap is state a fork must carry.
 */
class CriticalFirstScheduler : public rt::Scheduler
{
  public:
    const char *name() const override { return "critical-first"; }

    void push(const rt::ReadyTask &t) override { heap_.push(t); }

    std::optional<rt::ReadyTask>
    pop(sim::CoreId) override
    {
        if (heap_.empty())
            return std::nullopt;
        rt::ReadyTask t = heap_.top();
        heap_.pop();
        return t;
    }

    bool empty() const override { return heap_.empty(); }
    std::size_t size() const override { return heap_.size(); }

    sim::Tick pushExtraCycles() const override { return 60; }
    sim::Tick popExtraCycles() const override { return 60; }

    std::unique_ptr<rt::Scheduler>
    clone() const override
    {
        return std::make_unique<CriticalFirstScheduler>(*this);
    }

  private:
    struct Less
    {
        bool
        operator()(const rt::ReadyTask &a, const rt::ReadyTask &b) const
        {
            if (a.numSuccessors != b.numSuccessors)
                return a.numSuccessors < b.numSuccessors;
            return a.creationSeq > b.creationSeq;
        }
    };

    std::priority_queue<rt::ReadyTask, std::vector<rt::ReadyTask>, Less>
        heap_;
};

} // namespace

TEST(WarmForkScheduler, UserDefinedPolicyForksLikeColdRuns)
{
    // The checkpoint copies the ready pool's policy through clone(),
    // so a user policy's ready tasks survive the fork: an L1-halved
    // member forked from a cold leader must equal its own cold run.
    rt::registerScheduler("test-critical-first",
                          [](unsigned, std::uint32_t) {
                              return std::make_unique<
                                  CriticalFirstScheduler>();
                          });
    for (const char *workload : {"blackscholes", "histogram"}) {
        SCOPED_TRACE(workload);
        driver::Experiment leader;
        leader.workload = workload;
        leader.runtime = core::RuntimeType::Software;
        leader.config.scheduler = "test-critical-first";
        driver::Experiment memVar = leader;
        memVar.config.mem.l1Bytes /= 2;

        const driver::RunSummary cold = driver::run(memVar);
        ASSERT_TRUE(cold.completed);

        driver::ForkGroupRunner runner(nullptr);
        bool forked = true;
        ASSERT_TRUE(
            runner.run(leader, roiKeyOf(leader), nullptr, &forked)
                .completed);
        EXPECT_FALSE(forked);
        const driver::RunSummary fork =
            runner.run(memVar, roiKeyOf(memVar), nullptr, &forked);
        EXPECT_TRUE(forked);
        ASSERT_TRUE(fork.completed);
        EXPECT_EQ(fork.makespan, cold.makespan);
        expectMetricsBitIdentical(cold.metrics(), fork.metrics());
    }
}

TEST(WarmForkGuard, FirstShapeChangingForkThrows)
{
    // Toggling the memory model changes the registry's key set, so the
    // restored phase-window snapshots would no longer line up with it.
    // The very first such fork must throw, not return a short tree.
    driver::Experiment e;
    e.workload = "lu";
    e.runtime = core::RuntimeType::Tdm;
    ASSERT_TRUE(e.config.enableMemModel);
    core::Machine m(e.config, driver::buildGraph(e), e.runtime);
    m.armForkCapture();
    ASSERT_EQ(m.run().metrics.get("machine.completed"), 1.0);
    ASSERT_TRUE(m.hasWarmCheckpoint());

    cpu::MachineConfig noMem = e.config;
    noMem.enableMemModel = false;
    EXPECT_THROW(m.runFromWarm(noMem), sim::MetricError);
}

// ---- ForkGroupRunner degradation --------------------------------------

TEST(ForkGroupRunner, DisabledForkAlwaysRunsCold)
{
    // --no-warm-fork / singleton groups: the runner must be a
    // transparent pass-through to driver::run().
    driver::Experiment e;
    e.workload = "lu";
    const driver::RunSummary cold = driver::run(e);
    const std::string key = driver::spec::roiFingerprint(
        driver::campaign::canonicalConfig(e));

    driver::ForkGroupRunner runner(nullptr, /*enableFork=*/false);
    for (int round = 0; round < 2; ++round) {
        bool forked = true;
        const driver::RunSummary s =
            runner.run(e, key, nullptr, &forked);
        EXPECT_FALSE(forked);
        EXPECT_EQ(s.makespan, cold.makespan);
    }
}

TEST(ForkGroupRunner, ResetForcesAFreshColdLeg)
{
    driver::Experiment e;
    e.workload = "lu";
    const std::string key = driver::spec::roiFingerprint(
        driver::campaign::canonicalConfig(e));

    driver::ForkGroupRunner runner(nullptr);
    bool forked = false;
    const driver::RunSummary first =
        runner.run(e, key, nullptr, &forked);
    EXPECT_FALSE(forked);

    // With a checkpoint available an identical member forks...
    const driver::RunSummary again =
        runner.run(e, key, nullptr, &forked);
    EXPECT_TRUE(forked);
    EXPECT_EQ(again.makespan, first.makespan);

    // ...but after reset() (the engine's error recovery) the machine
    // is gone and the next member starts cold again.
    runner.reset();
    const driver::RunSummary recovered =
        runner.run(e, key, nullptr, &forked);
    EXPECT_FALSE(forked);
    EXPECT_EQ(recovered.makespan, first.makespan);
}
