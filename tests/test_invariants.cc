/**
 * @file
 * Tests for the SIM_ASSERT invariant layer (src/sim/assert.hh).
 *
 * Armed builds (Debug, sanitizer, or -DTDM_INVARIANTS=ON) must abort
 * with a diagnostic on a violated invariant; Release builds must
 * compile the whole statement — condition and message arguments — to
 * nothing. Both halves are covered here, so whichever way the suite
 * was configured, the intended behavior for THAT configuration is
 * pinned, and CI's sanitizer jobs cover the armed half while the
 * tier-1 Release job covers the compiled-out half.
 */

#include <gtest/gtest.h>

#include "mem/memory_model.hh"
#include "sim/assert.hh"
#include "sim/event_queue.hh"

using namespace tdm;

TEST(SimAssert, EnabledMatchesBuildConfiguration)
{
#ifdef TDM_INVARIANTS
    EXPECT_EQ(SIM_INVARIANTS_ENABLED, 1);
#else
    EXPECT_EQ(SIM_INVARIANTS_ENABLED, 0);
#endif
}

TEST(SimAssert, PassingConditionIsSilent)
{
    int touched = 0;
    SIM_ASSERT(1 + 1 == 2, "never printed ", touched);
    (void)touched;
    SUCCEED();
}

#if SIM_INVARIANTS_ENABLED

TEST(SimAssertDeathTest, ViolationAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH({ SIM_ASSERT(1 == 2, "forced failure"); },
                 "invariant '1 == 2' violated: forced failure");
}

TEST(SimAssertDeathTest, MessageArgumentsAreOptional)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH({ SIM_ASSERT(false); }, "invariant 'false' violated");
}

#else // !SIM_INVARIANTS_ENABLED

TEST(SimAssert, DisabledAssertEvaluatesNothing)
{
    // In Release the condition and message args must not even be
    // evaluated — they can be arbitrarily expensive in hot paths.
    int evaluations = 0;
    auto expensive = [&evaluations] {
        ++evaluations;
        return false;
    };
    SIM_ASSERT(expensive(), "cost: ", expensive());
    (void)expensive;
    EXPECT_EQ(evaluations, 0);
}

#endif

namespace {

struct Counter
{
    int fired = 0;
    void bump() { ++fired; }
};

} // namespace

TEST(SimAssert, HotPathInvariantsHoldOnCorrectUsage)
{
    // Drive the instrumented structures through normal operation: in
    // armed builds every SIM_ASSERT in the event queue and the memory
    // model's line table fires on each operation and must stay quiet;
    // in Release this doubles as a smoke test that instrumentation
    // didn't change behavior.
    sim::EventQueue eq;
    Counter c;
    for (int i = 0; i < 400; ++i) {
        // Scattered ticks with repeats, so heap order and same-tick
        // ties run under the monotonicity checks.
        eq.post<&Counter::bump>((i * 7919) % 300 * 10000, &c);
    }
    eq.run();
    EXPECT_EQ(c.fired, 400);

    mem::MemConfig cfg;
    cfg.l1Bytes = 64 * 1024;
    cfg.l2Bytes = 128 * 1024;
    mem::MemoryModel mm(cfg, 2);
    for (std::uint32_t i = 0; i < 1000; ++i) {
        // Hits, misses and LRU evictions in both levels, and writes
        // that invalidate the other core's copy.
        const mem::MemAccess a[] = {{i % 96, 1024, false},
                                    {(i * 31) % 192, 1024, i % 3 == 0}};
        mm.taskAccessTime(i % 2, a);
    }
    EXPECT_GT(mm.l1Misses(), 0u);
    EXPECT_GT(mm.l1Hits(), 0u);
}
