/**
 * @file
 * Unit tests for the five scheduling policies.
 */

#include <gtest/gtest.h>

#include "runtime/ready_pool.hh"
#include "runtime/scheduler.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"

using namespace tdm;

namespace {

rt::ReadyTask
task(rt::TaskId id, std::uint32_t succ = 0,
     sim::CoreId hint = sim::invalidCore)
{
    rt::ReadyTask t;
    t.id = id;
    t.numSuccessors = succ;
    t.producerHint = hint;
    t.creationSeq = id;
    return t;
}

} // namespace

TEST(SchedulerFactory, AllPoliciesConstruct)
{
    for (const std::string &name : rt::allSchedulerNames()) {
        auto s = rt::makeScheduler(name, 4);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->name(), name);
        EXPECT_TRUE(s->empty());
    }
    EXPECT_EQ(rt::allSchedulerNames().size(), 5u);
}

TEST(Fifo, PopsInReadyOrder)
{
    auto s = rt::makeScheduler("fifo", 4);
    s->push(task(3));
    s->push(task(1));
    s->push(task(2));
    EXPECT_EQ(s->pop(0)->id, 3u);
    EXPECT_EQ(s->pop(0)->id, 1u);
    EXPECT_EQ(s->pop(0)->id, 2u);
    EXPECT_FALSE(s->pop(0).has_value());
}

TEST(Lifo, PopsNewestFirst)
{
    auto s = rt::makeScheduler("lifo", 4);
    s->push(task(1));
    s->push(task(2));
    s->push(task(3));
    EXPECT_EQ(s->pop(0)->id, 3u);
    EXPECT_EQ(s->pop(0)->id, 2u);
    EXPECT_EQ(s->pop(0)->id, 1u);
}

TEST(Locality, PrefersOwnProducerList)
{
    auto s = rt::makeScheduler("locality", 4);
    s->push(task(1, 0, 2));                  // produced on core 2
    s->push(task(2, 0, sim::invalidCore));   // global
    s->push(task(3, 0, 1));                  // produced on core 1
    EXPECT_EQ(s->pop(2)->id, 1u); // core 2 takes its successor
    EXPECT_EQ(s->pop(2)->id, 2u); // falls back to global
    EXPECT_EQ(s->pop(2)->id, 3u); // finally steals core 1's task
    EXPECT_TRUE(s->empty());
}

TEST(Locality, StealsFromFullestList)
{
    auto s = rt::makeScheduler("locality", 4);
    s->push(task(1, 0, 1));
    s->push(task(2, 0, 3));
    s->push(task(3, 0, 3));
    auto t = s->pop(0); // no own work, no global: steals from core 3
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->id, 2u);
}

TEST(Locality, OwnerPopsNewestThiefStealsOldest)
{
    // Section VI rationale: the owner's newest successor is the one
    // whose inputs are hottest in its cache; a thief should take the
    // oldest (coldest) entry so the owner keeps its hot work.
    auto s = rt::makeScheduler("locality", 4);
    s->push(task(1, 0, 2)); // oldest on core 2
    s->push(task(2, 0, 2));
    s->push(task(3, 0, 2)); // newest on core 2
    // Owner pops newest-first (LIFO over its own list).
    EXPECT_EQ(s->pop(2)->id, 3u);
    // A thief takes the oldest remaining entry of the victim's list.
    EXPECT_EQ(s->pop(0)->id, 1u);
    // The owner still finds its (now) newest entry next.
    EXPECT_EQ(s->pop(2)->id, 2u);
    EXPECT_TRUE(s->empty());
}

TEST(Successor, HighPriorityAboveThreshold)
{
    auto s = rt::makeScheduler("successor", 4, /*threshold=*/1);
    s->push(task(1, 1)); // low (not above threshold)
    s->push(task(2, 5)); // high
    s->push(task(3, 0)); // low
    EXPECT_EQ(s->pop(0)->id, 2u);
    EXPECT_EQ(s->pop(0)->id, 1u);
    EXPECT_EQ(s->pop(0)->id, 3u);
}

TEST(Successor, ThresholdConfigurable)
{
    auto s = rt::makeScheduler("successor", 4, /*threshold=*/0);
    s->push(task(1, 0)); // low
    s->push(task(2, 1)); // high with threshold 0
    EXPECT_EQ(s->pop(0)->id, 2u);
}

TEST(Age, OldestCreationFirst)
{
    auto s = rt::makeScheduler("age", 4);
    // Ready order differs from creation order.
    s->push(task(5));
    s->push(task(2));
    s->push(task(9));
    s->push(task(1));
    EXPECT_EQ(s->pop(0)->id, 1u);
    EXPECT_EQ(s->pop(0)->id, 2u);
    EXPECT_EQ(s->pop(0)->id, 5u);
    EXPECT_EQ(s->pop(0)->id, 9u);
}

TEST(ReadyPool, CountsAndPeak)
{
    rt::ReadyPool pool(rt::makeScheduler("fifo", 2));
    sim::MetricRegistry reg;
    pool.regMetrics(reg.context("runtime.pool"));
    pool.push(task(1));
    pool.push(task(2));
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(reg.value("runtime.pool.peak_size"), 2.0);
    EXPECT_TRUE(pool.pop(0).has_value());
    EXPECT_TRUE(pool.pop(0).has_value());
    EXPECT_FALSE(pool.pop(0).has_value());
    EXPECT_EQ(pool.pushes(), 2u);
    EXPECT_EQ(pool.pops(), 2u);
    EXPECT_EQ(pool.emptyPops(), 1u);
}

TEST(Scheduler, UnknownPolicyFatal)
{
    EXPECT_THROW((void)rt::makeScheduler("best", 4), sim::FatalError);
}
