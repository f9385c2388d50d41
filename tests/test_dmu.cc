/**
 * @file
 * Unit tests of the DMU's operational semantics (Algorithms 1 and 2):
 * RAW/WAR/WAW ordering, readiness delivery through the Ready Queue,
 * and resource cleanup.
 */

#include <gtest/gtest.h>

#include "dmu/dmu.hh"

using namespace tdm;

namespace {

constexpr std::uint64_t desc(int i) { return 0x8ab000000000ULL + i * 0x140; }
constexpr std::uint64_t addr(int i) { return 0x100000000ULL + i * 16384; }

dmu::DmuConfig
smallConfig()
{
    dmu::DmuConfig c;
    c.tatEntries = 64;
    c.tatAssoc = 8;
    c.datEntries = 64;
    c.datAssoc = 8;
    c.slaEntries = 64;
    c.dlaEntries = 64;
    c.rlaEntries = 64;
    c.readyQueueEntries = 64;
    return c;
}

/** create + deps + commit helper. */
dmu::DmuResult
makeTask(dmu::Dmu &d, int id,
         std::initializer_list<std::pair<int, bool>> deps)
{
    EXPECT_FALSE(d.createTask(desc(id)).blocked);
    for (auto [r, out] : deps)
        EXPECT_FALSE(
            d.addDependence(desc(id), addr(r), 16384, out).blocked);
    return d.commitTask(desc(id));
}

std::vector<std::uint64_t>
drainReady(dmu::Dmu &d)
{
    std::vector<std::uint64_t> out;
    unsigned acc = 0;
    while (auto info = d.getReadyTask(acc))
        out.push_back(info->descAddr);
    return out;
}

} // namespace

TEST(Dmu, IndependentTaskReadyAtCommit)
{
    dmu::Dmu d(smallConfig());
    auto res = makeTask(d, 0, {{0, false}});
    ASSERT_EQ(res.readyDescAddrs.size(), 1u);
    EXPECT_EQ(res.readyDescAddrs[0], desc(0));
    auto ready = drainReady(d);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], desc(0));
    EXPECT_TRUE(drainReady(d).empty());
}

TEST(Dmu, RawDependence)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});   // writer
    auto r = makeTask(d, 1, {{1, false}}); // reader
    EXPECT_TRUE(r.readyDescAddrs.empty()); // blocked on RAW

    drainReady(d); // pop task 0
    auto fin = d.finishTask(desc(0));
    ASSERT_EQ(fin.readyDescAddrs.size(), 1u);
    EXPECT_EQ(fin.readyDescAddrs[0], desc(1));
}

TEST(Dmu, WawDependence)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    auto r = makeTask(d, 1, {{1, true}});
    EXPECT_TRUE(r.readyDescAddrs.empty());
    drainReady(d);
    auto fin = d.finishTask(desc(0));
    ASSERT_EQ(fin.readyDescAddrs.size(), 1u);
}

TEST(Dmu, WarDependence)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, false}}); // reader, ready at commit
    auto w = makeTask(d, 1, {{1, true}}); // writer must wait
    EXPECT_TRUE(w.readyDescAddrs.empty());
    drainReady(d);
    auto fin = d.finishTask(desc(0));
    ASSERT_EQ(fin.readyDescAddrs.size(), 1u);
    EXPECT_EQ(fin.readyDescAddrs[0], desc(1));
}

TEST(Dmu, MultipleReadersRunConcurrently)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    makeTask(d, 1, {{1, false}});
    makeTask(d, 2, {{1, false}});
    makeTask(d, 3, {{1, false}});
    drainReady(d);
    auto fin = d.finishTask(desc(0));
    EXPECT_EQ(fin.readyDescAddrs.size(), 3u); // all readers wake at once
}

TEST(Dmu, WriterWaitsForAllReaders)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, false}});
    makeTask(d, 1, {{1, false}});
    auto w = makeTask(d, 2, {{1, true}});
    EXPECT_TRUE(w.readyDescAddrs.empty());
    drainReady(d);
    EXPECT_TRUE(d.finishTask(desc(0)).readyDescAddrs.empty());
    auto fin = d.finishTask(desc(1));
    ASSERT_EQ(fin.readyDescAddrs.size(), 1u);
    EXPECT_EQ(fin.readyDescAddrs[0], desc(2));
}

TEST(Dmu, DiamondGraph)
{
    //      0
    //    /   \.
    //   1     2
    //    \   /
    //      3
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    makeTask(d, 1, {{1, false}, {2, true}});
    makeTask(d, 2, {{1, false}, {3, true}});
    makeTask(d, 3, {{2, false}, {3, false}});
    drainReady(d);
    auto f0 = d.finishTask(desc(0));
    EXPECT_EQ(f0.readyDescAddrs.size(), 2u);
    EXPECT_TRUE(d.finishTask(desc(1)).readyDescAddrs.empty());
    auto f2 = d.finishTask(desc(2));
    ASSERT_EQ(f2.readyDescAddrs.size(), 1u);
    EXPECT_EQ(f2.readyDescAddrs[0], desc(3));
}

TEST(Dmu, SuccessorCountsTracked)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    makeTask(d, 1, {{1, false}});
    makeTask(d, 2, {{1, false}});
    EXPECT_EQ(d.succCountOf(desc(0)), 2u);
    EXPECT_EQ(d.succCountOf(desc(1)), 0u);
}

TEST(Dmu, GetReadyReturnsSuccessorCount)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    makeTask(d, 1, {{1, false}});
    unsigned acc = 0;
    auto info = d.getReadyTask(acc);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->descAddr, desc(0));
    EXPECT_EQ(info->numSuccessors, 1u);
}

TEST(Dmu, ResourcesFreedAfterFinish)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}, {2, false}});
    makeTask(d, 1, {{1, false}});
    EXPECT_EQ(d.tasksInFlight(), 2u);
    EXPECT_EQ(d.depsInFlight(), 2u);
    drainReady(d);
    d.finishTask(desc(0));
    d.finishTask(desc(1));
    EXPECT_EQ(d.tasksInFlight(), 0u);
    EXPECT_EQ(d.depsInFlight(), 0u);
    EXPECT_EQ(d.sla().entriesInUse(), 0u);
    EXPECT_EQ(d.dla().entriesInUse(), 0u);
    EXPECT_EQ(d.rla().entriesInUse(), 0u);
    EXPECT_EQ(d.tat().liveEntries(), 0u);
    EXPECT_EQ(d.dat().liveEntries(), 0u);
}

TEST(Dmu, FinishedWriterLeavesNoStaleEdge)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    drainReady(d);
    d.finishTask(desc(0));
    // A reader arriving after the writer finished must be ready now.
    auto r = makeTask(d, 1, {{1, false}});
    EXPECT_EQ(r.readyDescAddrs.size(), 1u);
}

TEST(Dmu, ReadyOrderIsFifo)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{0, false}});
    makeTask(d, 1, {{1, false}});
    makeTask(d, 2, {{2, false}});
    auto ready = drainReady(d);
    ASSERT_EQ(ready.size(), 3u);
    EXPECT_EQ(ready[0], desc(0));
    EXPECT_EQ(ready[1], desc(1));
    EXPECT_EQ(ready[2], desc(2));
}

TEST(Dmu, AccessCountsAccumulate)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    const auto &c = d.accessCounts();
    EXPECT_GT(c[dmu::Sram::Tat], 0u);
    EXPECT_GT(c[dmu::Sram::Dat], 0u);
    EXPECT_GT(c[dmu::Sram::TaskTable], 0u);
    EXPECT_GT(c.total(), 5u);
}

TEST(Dmu, UncommittedTaskNotReadyEarly)
{
    // A task whose predecessors all finish before commit_task must not
    // enter the Ready Queue until committed.
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {{1, true}});
    drainReady(d);

    EXPECT_FALSE(d.createTask(desc(1)).blocked);
    EXPECT_FALSE(d.addDependence(desc(1), addr(1), 16384, false).blocked);
    // Writer finishes while task 1 is still being created.
    auto fin = d.finishTask(desc(0));
    EXPECT_TRUE(fin.readyDescAddrs.empty());
    EXPECT_TRUE(drainReady(d).empty());
    // Commit finally publishes it.
    auto c = d.commitTask(desc(1));
    ASSERT_EQ(c.readyDescAddrs.size(), 1u);
    EXPECT_EQ(c.readyDescAddrs[0], desc(1));
}

TEST(DmuDeath, DoubleCreatePanics)
{
    dmu::Dmu d(smallConfig());
    makeTask(d, 0, {});
    EXPECT_DEATH(d.createTask(desc(0)), "live descriptor");
}

TEST(DmuDeath, UnknownFinishPanics)
{
    dmu::Dmu d(smallConfig());
    EXPECT_DEATH(d.finishTask(desc(9)), "unknown task");
}
