/**
 * @file
 * Unit coverage for the warm-start fork machinery (PR 10): the
 * Snapshot capture/restore primitive, the event queue's pending-image
 * round trip, the spec key-phase classification and its two
 * fingerprints, and ForkGroupRunner's degradation paths. The
 * end-to-end bit-for-bit contract over every golden configuration
 * lives in test_golden_determinism.cc.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/campaign/fingerprint.hh"
#include "driver/experiment.hh"
#include "driver/fork_runner.hh"
#include "driver/spec/spec.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

using namespace tdm;

// ---- Snapshot primitive -----------------------------------------------

TEST(Snapshot, CaptureRestoresFieldsInPlace)
{
    int a = 1;
    std::vector<int> v{1, 2, 3};
    sim::Snapshot s;
    s.capture(a);
    s.capture(v);
    a = 99;
    v.clear();
    s.restore();
    EXPECT_EQ(a, 1);
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
}

TEST(Snapshot, RestoreIsRepeatable)
{
    // Each fork of a warm group restores the same image again; the
    // snapshot must not be consumed by the first restore.
    int a = 7;
    sim::Snapshot s;
    s.capture(a);
    for (int round = 0; round < 3; ++round) {
        a = 1000 + round;
        s.restore();
        EXPECT_EQ(a, 7);
    }
}

TEST(Snapshot, RngRoundTripReplaysTheStream)
{
    sim::Rng rng(12345);
    (void)rng.next();
    (void)rng.next();

    sim::Snapshot s;
    rng.snapshotState(s);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(rng.next());

    s.restore();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(rng.next(), first[i]) << "draw " << i;
}

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
    eq.run(300); // consume a prefix: snapshot mid-flight state

    sim::Snapshot s;
    eq.snapshotState(s);
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
        s.restore();
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

    // With snapshots available an identical member forks...
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
