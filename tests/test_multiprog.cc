/**
 * @file
 * Tests of the multiprogramming extension (Section III-D): TAT and DAT
 * entries are tagged with the OS process id, so two processes can use
 * the DMU concurrently — even with identical virtual addresses —
 * without interfering and without save/restore at context switches.
 */

#include <gtest/gtest.h>

#include "dmu/dmu.hh"

using namespace tdm;

namespace {

constexpr std::uint64_t desc(int i) { return 0xa000000000ULL + i * 0x140; }
constexpr std::uint64_t addr(int i) { return 0x300000000ULL + i * 4096; }

dmu::DmuConfig
smallConfig()
{
    dmu::DmuConfig c;
    c.tatEntries = 64;
    c.datEntries = 64;
    c.slaEntries = 64;
    c.dlaEntries = 64;
    c.rlaEntries = 64;
    c.readyQueueEntries = 64;
    return c;
}

} // namespace

TEST(Multiprog, SameAddressesDifferentPids)
{
    dmu::Dmu d(smallConfig());
    // Two processes create tasks with the *same* descriptor address.
    EXPECT_FALSE(d.createTask(desc(0), /*pid=*/1).blocked);
    EXPECT_FALSE(d.createTask(desc(0), /*pid=*/2).blocked);
    EXPECT_EQ(d.tasksInFlight(), 2u);

    // Same dependence address in both processes: independent regions.
    EXPECT_FALSE(d.addDependence(desc(0), addr(0), 4096, true, 1).blocked);
    EXPECT_FALSE(d.addDependence(desc(0), addr(0), 4096, true, 2).blocked);
    EXPECT_EQ(d.depsInFlight(), 2u);

    auto c1 = d.commitTask(desc(0), 1);
    auto c2 = d.commitTask(desc(0), 2);
    // No cross-process WAW edge: both tasks are immediately ready.
    EXPECT_EQ(c1.readyDescAddrs.size(), 1u);
    EXPECT_EQ(c2.readyDescAddrs.size(), 1u);

    d.finishTask(desc(0), 1);
    d.finishTask(desc(0), 2);
    EXPECT_EQ(d.tasksInFlight(), 0u);
    EXPECT_EQ(d.depsInFlight(), 0u);
}

TEST(Multiprog, DependencesIsolatedPerProcess)
{
    dmu::Dmu d(smallConfig());
    // Process 1: writer on addr(5).
    d.createTask(desc(1), 1);
    d.addDependence(desc(1), addr(5), 4096, true, 1);
    d.commitTask(desc(1), 1);
    // Process 2: reader on the same virtual address — must NOT order
    // after process 1's writer.
    d.createTask(desc(2), 2);
    d.addDependence(desc(2), addr(5), 4096, false, 2);
    auto c = d.commitTask(desc(2), 2);
    EXPECT_EQ(c.readyDescAddrs.size(), 1u);

    // Within process 1 the RAW edge still exists.
    d.createTask(desc(3), 1);
    d.addDependence(desc(3), addr(5), 4096, false, 1);
    auto c3 = d.commitTask(desc(3), 1);
    EXPECT_TRUE(c3.readyDescAddrs.empty());

    unsigned acc = 0;
    while (d.getReadyTask(acc))
        ;
    auto fin = d.finishTask(desc(1), 1);
    ASSERT_EQ(fin.readyDescAddrs.size(), 1u);
    EXPECT_EQ(fin.readyDescAddrs[0], desc(3));
}

TEST(Multiprog, InterleavedLifecycles)
{
    dmu::Dmu d(smallConfig());
    // Two processes interleave chains on one address each.
    for (int i = 0; i < 4; ++i) {
        d.createTask(desc(10 + i), 1);
        d.addDependence(desc(10 + i), addr(1), 4096, true, 1);
        d.commitTask(desc(10 + i), 1);
        d.createTask(desc(20 + i), 2);
        d.addDependence(desc(20 + i), addr(1), 4096, true, 2);
        d.commitTask(desc(20 + i), 2);
    }
    // Each process has an independent WAW chain: exactly one ready
    // task per process.
    EXPECT_EQ(d.readyCount(), 2u);
    // Drain both chains.
    for (int i = 0; i < 4; ++i) {
        d.finishTask(desc(10 + i), 1);
        d.finishTask(desc(20 + i), 2);
    }
    EXPECT_EQ(d.tasksInFlight(), 0u);
    EXPECT_EQ(d.depsInFlight(), 0u);
}

TEST(Multiprog, AliasTablePidMatch)
{
    dmu::AliasTable t("tat", 16, 4, true, 0);
    auto a = t.insert(0x1000, 64, 7);
    ASSERT_EQ(a.status, dmu::AliasInsertStatus::Ok);
    EXPECT_FALSE(t.lookup(0x1000, 64, 8).has_value());
    EXPECT_TRUE(t.lookup(0x1000, 64, 7).has_value());

    auto b = t.insert(0x1000, 64, 8); // same addr, other process
    ASSERT_EQ(b.status, dmu::AliasInsertStatus::Ok);
    EXPECT_NE(a.id, b.id);
    t.erase(a.id); // process 7's translation
    EXPECT_FALSE(t.lookup(0x1000, 64, 7).has_value());
    EXPECT_TRUE(t.lookup(0x1000, 64, 8).has_value());
}
