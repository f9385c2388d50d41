/**
 * @file
 * Unit coverage for the fork machinery: the spec key-phase
 * classification and its fingerprints, finalize forks under a stateful
 * user-defined scheduler and on the Carbon and Task Superscalar
 * runtimes, and ForkGroupRunner's fallback paths. The end-to-end
 * bit-for-bit contract over every golden configuration lives in
 * test_golden_determinism.cc.
 */

#include <bit>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/campaign/fingerprint.hh"
#include "driver/experiment.hh"
#include "driver/fork_runner.hh"
#include "driver/spec/spec.hh"
#include "runtime/scheduler.hh"

using namespace tdm;

// ---- spec key-phase classification ------------------------------------

TEST(WarmForkSpec, KeyPhasesPinTheForkContract)
{
    // The grouping proof depends on this classification: power.* keys
    // are consumed only during finalization, and everything else —
    // the memory model included — is conservatively Warmup.
    for (const driver::spec::Binding &b : driver::spec::allBindings()) {
        const driver::spec::KeyPhase want =
            b.key.rfind("power.", 0) == 0
                ? driver::spec::KeyPhase::Final
                : driver::spec::KeyPhase::Warmup;
        EXPECT_EQ(b.phase, want) << b.key;
    }
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

    // Blind only to power.*: the memory model shapes the trajectory.
    EXPECT_EQ(driver::spec::warmFingerprint(canonBase),
              driver::spec::warmFingerprint(canonPower));
    EXPECT_NE(driver::spec::warmFingerprint(canonBase),
              driver::spec::warmFingerprint(canonMem));
    EXPECT_NE(driver::spec::warmFingerprint(canonBase),
              driver::spec::warmFingerprint(canonSched));

    // The ROI fingerprint is the same projection.
    for (const sim::Config *c :
         {&canonBase, &canonPower, &canonMem, &canonSched})
        EXPECT_EQ(driver::spec::roiFingerprint(*c),
                  driver::spec::warmFingerprint(*c));
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
 * user-defined policy with ready-heap state and no copy support.
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
    // A user policy needs no copy support: a power member re-prices
    // the leader's metric tree, and a memory member (a different
    // trajectory) runs its own cold leg. Both must equal their cold
    // runs.
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
        driver::Experiment powerVar = leader;
        powerVar.config.power.activeWatts *= 2.0;
        driver::Experiment memVar = leader;
        memVar.config.mem.l1Bytes /= 2;

        driver::ForkGroupRunner runner(nullptr);
        bool forked = true;
        ASSERT_TRUE(
            runner.run(leader, roiKeyOf(leader), nullptr, &forked)
                .completed);
        EXPECT_FALSE(forked);
        for (const auto &[variant, wantForked] :
             {std::pair{&powerVar, true}, std::pair{&memVar, false}}) {
            const driver::RunSummary cold = driver::run(*variant);
            ASSERT_TRUE(cold.completed);
            const driver::RunSummary served = runner.run(
                *variant, roiKeyOf(*variant), nullptr, &forked);
            EXPECT_EQ(forked, wantForked);
            ASSERT_TRUE(served.completed);
            EXPECT_EQ(served.makespan, cold.makespan);
            expectMetricsBitIdentical(cold.metrics(), served.metrics());
        }
    }
}

TEST(ForkGroupRunner, AcceleratorRuntimesForkLikeColdRuns)
{
    // Carbon and Task Superscalar price accelerator energy unlike the
    // DMU runtime (hardware-queue ops, the TSS x3 CAM factor, their own
    // storage leakage). Every Final key must re-price their trees
    // exactly as a cold run prices them.
    const std::pair<core::RuntimeType, const char *> cases[] = {
        {core::RuntimeType::Carbon, "cholesky"},
        {core::RuntimeType::TaskSuperscalar, "dedup"},
    };
    for (const auto &[runtime, workload] : cases) {
        SCOPED_TRACE(workload);
        driver::Experiment leader;
        leader.workload = workload;
        leader.runtime = runtime;

        driver::ForkGroupRunner runner(nullptr);
        bool forked = true;
        const driver::RunSummary lead =
            runner.run(leader, roiKeyOf(leader), nullptr, &forked);
        EXPECT_FALSE(forked);
        ASSERT_TRUE(lead.completed);
        EXPECT_GT(lead.metrics().at("power.accel_dynamic_pj"), 0.0);
        EXPECT_GT(lead.metrics().at("power.accel_leakage_mw"), 0.0);

        std::size_t visited = 0;
        for (const driver::spec::Binding &b :
             driver::spec::allBindings()) {
            if (b.phase != driver::spec::KeyPhase::Final)
                continue;
            SCOPED_TRACE(b.key);
            ++visited;
            const double def = std::stod(b.defaultValue);
            driver::Experiment variant = leader;
            driver::spec::applyKey(
                variant, b.key,
                driver::spec::formatDouble(def != 0.0 ? 2.0 * def : 1.0));

            const driver::RunSummary cold = driver::run(variant);
            ASSERT_TRUE(cold.completed);
            const driver::RunSummary fork =
                runner.run(variant, roiKeyOf(variant), nullptr, &forked);
            EXPECT_TRUE(forked);
            expectMetricsBitIdentical(cold.metrics(), fork.metrics());
        }
        EXPECT_GT(visited, 0u);
    }
}

// ---- ForkGroupRunner degradation --------------------------------------

TEST(ForkGroupRunner, IncompleteLeaderRunsCold)
{
    // A leader stopped by the tick watchdog has no finished run to
    // price. Re-pricing its tree would give a wrong number, not an
    // error, so an equal-key power member must run cold.
    driver::Experiment leader;
    leader.workload = "lu";
    leader.config.maxTicks = 1000000;
    driver::Experiment variant = leader;
    variant.config.power.activeWatts *= 2.0;
    ASSERT_EQ(roiKeyOf(variant), roiKeyOf(leader));

    driver::ForkGroupRunner runner(nullptr);
    bool forked = true;
    const driver::RunSummary lead =
        runner.run(leader, roiKeyOf(leader), nullptr, &forked);
    EXPECT_FALSE(forked);
    ASSERT_FALSE(lead.completed);

    const driver::RunSummary cold = driver::run(variant);
    const driver::RunSummary served =
        runner.run(variant, roiKeyOf(variant), nullptr, &forked);
    EXPECT_FALSE(forked);
    EXPECT_FALSE(served.completed);
    EXPECT_EQ(served.energyJ, 0.0);
    expectMetricsBitIdentical(cold.metrics(), served.metrics());
}

TEST(ForkGroupRunner, DisabledForkAlwaysRunsCold)
{
    // EngineOptions::warmFork off / singleton groups: the runner must
    // be a transparent pass-through to driver::run().
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

    // With a completed leader an identical member forks...
    const driver::RunSummary again =
        runner.run(e, key, nullptr, &forked);
    EXPECT_TRUE(forked);
    EXPECT_EQ(again.makespan, first.makespan);

    // ...but after reset() (the engine's error recovery) the leader
    // is gone and the next member starts cold again.
    runner.reset();
    const driver::RunSummary recovered =
        runner.run(e, key, nullptr, &forked);
    EXPECT_FALSE(forked);
    EXPECT_EQ(recovered.makespan, first.makespan);
}
