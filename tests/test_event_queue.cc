/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace tdm;

namespace {

/** Target of typed test events: logs what fired and when. */
struct Recorder
{
    explicit Recorder(sim::EventQueue *q) : eq(q) {}

    sim::EventQueue *eq;
    std::vector<int> order;
    std::vector<sim::Tick> ticks;

    void
    mark(int v)
    {
        order.push_back(v);
        ticks.push_back(eq->now());
    }

    void nop() {}

    /** Mark @p v now, then again @p left - 1 more times 10 ticks apart. */
    void
    chain(int v, int left)
    {
        mark(v);
        if (left > 1)
            eq->postIn<&Recorder::chain>(10, this, v + 1, left - 1);
    }

    /** Schedule a mark of @p v @p delay ticks from now. */
    void
    markIn(sim::Tick delay, int v)
    {
        eq->postIn<&Recorder::mark>(delay, this, v);
    }
};

} // namespace

TEST(EventQueue, StartsAtZero)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::mark>(30, &r, 3);
    eq.post<&Recorder::mark>(10, &r, 1);
    eq.post<&Recorder::mark>(20, &r, 2);
    eq.run();
    EXPECT_EQ(r.order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesFireInScheduleOrder)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    for (int i = 0; i < 10; ++i)
        eq.post<&Recorder::mark>(5, &r, i);
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.order[i], i);
}

TEST(EventQueue, PostInUsesRelativeDelay)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::markIn>(100, &r, sim::Tick{50}, 7);
    eq.run();
    EXPECT_EQ(r.order, (std::vector<int>{7}));
    EXPECT_EQ(r.ticks, (std::vector<sim::Tick>{150}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::chain>(0, &r, 0, 5);
    eq.run();
    EXPECT_EQ(r.order.size(), 5u);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunHonorsLimit)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::mark>(10, &r, 1);
    eq.post<&Recorder::mark>(1000, &r, 2);
    eq.run(100);
    EXPECT_EQ(r.order.size(), 1u);
    EXPECT_EQ(eq.now(), 100u);
    eq.run();
    EXPECT_EQ(r.order.size(), 2u);
}

// ---- run(limit) end-time semantics (regression tests) -----------------
//
// Documented behavior: events with when <= limit fire; if events remain
// pending the clock advances to exactly `limit`; if the queue drains the
// clock stays at the last executed event; the clock never moves
// backwards.

TEST(EventQueue, RunDrainBeforeLimitStopsAtLastEvent)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::nop>(40, &r);
    eq.post<&Recorder::nop>(70, &r);
    EXPECT_EQ(eq.run(10000), 70u);
    EXPECT_EQ(eq.now(), 70u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunStopAtLimitClampsClockExactly)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::mark>(10, &r, 1);
    eq.post<&Recorder::mark>(500, &r, 2);
    EXPECT_EQ(eq.run(123), 123u);
    EXPECT_EQ(r.order.size(), 1u);
    EXPECT_EQ(eq.pending(), 1u);
    // An event before the held-back one takes the next-event slot; a
    // limit below it clamps the clock the same way.
    eq.post<&Recorder::mark>(400, &r, 3);
    EXPECT_EQ(eq.run(350), 350u);
    EXPECT_EQ(r.order.size(), 1u);
    EXPECT_EQ(eq.pending(), 2u);
    // The held-back events keep their original order and still fire.
    eq.run();
    EXPECT_EQ(r.order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, EventExactlyAtLimitFires)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::mark>(100, &r, 1);
    eq.post<&Recorder::mark>(101, &r, 2);
    EXPECT_EQ(eq.run(100), 100u);
    EXPECT_EQ(r.order.size(), 1u);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunNeverMovesClockBackwards)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::nop>(100, &r);
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
    // A limit in the past executes nothing and leaves now() alone.
    EXPECT_EQ(eq.run(50), 100u);
    EXPECT_EQ(eq.now(), 100u);
    eq.post<&Recorder::nop>(200, &r);
    EXPECT_EQ(eq.run(50), 100u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunOnEmptyQueueKeepsClock)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.run(1000), 0u);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, StepExecutesSingleEvent)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::mark>(30, &r, 3); // slot
    eq.post<&Recorder::mark>(10, &r, 1); // slot; 30 moves to the heap
    eq.post<&Recorder::mark>(20, &r, 2); // heap
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 2u);
    eq.post<&Recorder::mark>(15, &r, 4); // slot again, before the heap
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(r.order, (std::vector<int>{1, 4, 2, 3}));
    EXPECT_EQ(r.ticks, (std::vector<sim::Tick>{10, 15, 20, 30}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DistantEventIsReachedAndLimitClampsBelowIt)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    constexpr sim::Tick eon = sim::Tick{1} << 45; // ~3.5e13
    eq.post<&Recorder::mark>(eon, &r, 1);
    EXPECT_EQ(eq.run(), eon);
    EXPECT_EQ(r.order.size(), 1u);
    eq.post<&Recorder::nop>(eon * 2, &r);
    EXPECT_EQ(eq.run(eon * 2 - 1000), eon * 2 - 1000);
    EXPECT_EQ(eq.pending(), 1u);
}

// ---- typed pooled events ----------------------------------------------

namespace {

struct Widget
{
    sim::EventQueue *eq = nullptr;
    std::vector<int> log;

    void poke(int v) { log.push_back(v); }

    void
    pokeTwice(int v)
    {
        log.push_back(v);
        eq->postIn<&Widget::poke>(5, this, v + 1);
    }
};

/** Records where each fired event stored its argument. */
struct Locator
{
    std::set<const int *> blocks;
    int fired = 0;

    void
    locate(int &stored)
    {
        ++fired;
        blocks.insert(&stored);
    }
};

struct Holder
{
    void take(std::shared_ptr<int>) {}
};

} // namespace

TEST(EventQueue, TypedMemberEventsFire)
{
    sim::EventQueue eq;
    Widget w{&eq, {}};
    eq.post<&Widget::poke>(20, &w, 2);
    eq.post<&Widget::poke>(10, &w, 1);
    eq.post<&Widget::pokeTwice>(30, &w, 3);
    eq.run();
    EXPECT_EQ(w.log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 35u);
}

TEST(EventQueue, PooledEventsAreRecycled)
{
    sim::EventQueue eq;
    Locator l;
    for (int round = 0; round < 100; ++round) {
        eq.post<&Locator::locate>(eq.now() + 1, &l, round);
        eq.run();
    }
    EXPECT_EQ(l.fired, 100);
    // Steady state reuses freed blocks instead of touching the heap:
    // every post after the first recycles the same block, so every
    // event stored its argument at the same address.
    EXPECT_EQ(l.blocks.size(), 1u);
}

namespace {

/** Logs (tick, schedule index) per firing; every other firing posts a
 *  follow-up that ties or nearly ties with events already pending. */
struct OrderLog
{
    explicit OrderLog(sim::EventQueue *q) : eq(q) {}

    sim::EventQueue *eq;
    int nextIdx = 0;
    struct Fired
    {
        sim::Tick when;
        int idx;
    };
    std::vector<Fired> fired;

    void
    at(sim::Tick t)
    {
        eq->post<&OrderLog::hit>(t, this, t, nextIdx++);
    }

    void
    hit(sim::Tick t, int idx)
    {
        fired.push_back({t, idx});
        if (idx % 2 == 0)
            at(t + static_cast<sim::Tick>(idx % 3));
    }
};

} // namespace

TEST(EventQueue, RandomScheduleFiresInTickSeqOrder)
{
    sim::EventQueue eq;
    OrderLog log{&eq};
    // Deterministic LCG.
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    // Far more events pending at once than any machine keeps, mixing
    // dense same-tick ties, a wide near range and far-future ticks.
    constexpr int initial = 4000;
    for (int i = 0; i < initial; ++i) {
        switch (next() % 3) {
          case 0: log.at(next() % 64); break;
          case 1: log.at(next() % 6000000); break;
          default:
            log.at((sim::Tick{1} << 45) + next() % 16);
            break;
        }
    }
    EXPECT_EQ(eq.pending(), static_cast<std::size_t>(initial));
    eq.run();
    ASSERT_EQ(log.fired.size(), static_cast<std::size_t>(log.nextIdx));
    EXPECT_GT(log.fired.size(), static_cast<std::size_t>(initial));
    for (std::size_t i = 1; i < log.fired.size(); ++i) {
        ASSERT_GE(log.fired[i].when, log.fired[i - 1].when);
        if (log.fired[i].when == log.fired[i - 1].when) {
            ASSERT_GT(log.fired[i].idx, log.fired[i - 1].idx);
        }
    }
}

namespace {

/**
 * Mirrors the queue's pending set and posts follow-ups relative to its
 * head: strictly before it (the next-event slot), tied with it, and
 * after it. Every schedule goes through at(), so a schedule's index is
 * the queue's sequence number for it.
 */
struct HeadChaser
{
    using Key = std::pair<sim::Tick, int>; ///< (tick, seq)

    explicit HeadChaser(sim::EventQueue *q) : eq(q) {}

    sim::EventQueue *eq;
    int budget = 20000;
    std::uint64_t lcg = 777;
    std::set<Key> pending;
    std::vector<Key> scheduled;
    std::vector<Key> fired;

    std::uint64_t
    next()
    {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    }

    void
    at(sim::Tick t)
    {
        const Key k{t, static_cast<int>(scheduled.size())};
        scheduled.push_back(k);
        pending.insert(k);
        eq->post<&HeadChaser::hit>(t, this, k.second);
    }

    void
    hit(int seq)
    {
        const Key k{eq->now(), seq};
        fired.push_back(k);
        pending.erase(k);
        const sim::Tick now = eq->now();
        const sim::Tick head =
            pending.empty() ? now + 64 : pending.begin()->first;
        for (std::uint64_t n = 1 + next() % 2; n > 0 && budget > 0;
             --n, --budget) {
            switch (next() % 3) {
              case 0: // before the head, or at now when the head is now
                at(now + (head > now ? next() % (head - now) : 0));
                break;
              case 1:
                at(head);
                break;
              default:
                at(head + 1 + next() % 40);
                break;
            }
        }
    }
};

} // namespace

TEST(EventQueue, FireOrderIsExactlySortedScheduleKeys)
{
    sim::EventQueue eq;
    HeadChaser h{&eq};
    for (sim::Tick t : {500, 20, 20, 3000, 0, 999})
        h.at(t);
    eq.run();
    ASSERT_EQ(h.budget, 0);
    EXPECT_TRUE(h.pending.empty());
    std::vector<HeadChaser::Key> want = h.scheduled;
    std::sort(want.begin(), want.end());
    ASSERT_EQ(h.fired.size(), want.size());
    EXPECT_TRUE(h.fired == want);
    EXPECT_EQ(eq.executed(), want.size());
}

TEST(EventQueue, PendingEventsFreedOnDestruction)
{
    // Events left pending must not leak or crash.
    auto eq = std::make_unique<sim::EventQueue>();
    Widget w{eq.get(), {}};
    eq->post<&Widget::poke>(10, &w, 1);
    eq->post<&Widget::poke>(500000, &w, 2);
    eq->post<&Widget::poke>(10000000, &w, 3);
    // A pooled event with a non-trivial payload in the next-event slot.
    Holder h;
    auto token = std::make_shared<int>(7);
    eq->post<&Holder::take>(5, &h, token);
    EXPECT_EQ(token.use_count(), 2);
    eq.reset();
    EXPECT_TRUE(w.log.empty()); // nothing fired
    EXPECT_EQ(token.use_count(), 1); // the slot's payload was destroyed
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    sim::EventQueue eq;
    Recorder r{&eq};
    eq.post<&Recorder::nop>(100, &r);
    eq.run();
    EXPECT_DEATH(eq.post<&Recorder::nop>(50, &r), "past");
}
