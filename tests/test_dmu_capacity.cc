/**
 * @file
 * Tests of DMU capacity blocking: full structures must block creation
 * operations without side effects, and finish_task must unblock them —
 * the mechanism behind Figures 7 and 8.
 */

#include <gtest/gtest.h>

#include "dmu/dmu.hh"

using namespace tdm;

namespace {

constexpr std::uint64_t desc(int i) { return 0x9000000000ULL + i * 0x140; }
constexpr std::uint64_t addr(int i) { return 0x200000000ULL + i * 4096; }

void
makeSimpleTask(dmu::Dmu &d, int id, int region)
{
    ASSERT_FALSE(d.createTask(desc(id)).blocked);
    ASSERT_FALSE(
        d.addDependence(desc(id), addr(region), 4096, false).blocked);
    d.commitTask(desc(id));
}

} // namespace

TEST(DmuCapacity, TatFullBlocksCreate)
{
    dmu::DmuConfig cfg;
    cfg.tatEntries = 8;
    cfg.tatAssoc = 8;
    cfg.datEntries = 64;
    cfg.datAssoc = 8;
    cfg.slaEntries = 64;
    cfg.dlaEntries = 64;
    cfg.rlaEntries = 64;
    cfg.readyQueueEntries = 8;
    dmu::Dmu d(cfg);
    for (int i = 0; i < 8; ++i)
        makeSimpleTask(d, i, i);
    auto res = d.createTask(desc(8));
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(res.reason, dmu::BlockReason::TatFull);
    EXPECT_EQ(d.blockedOps(), 1u);

    // Finishing one task unblocks creation.
    d.finishTask(desc(0));
    EXPECT_FALSE(d.createTask(desc(8)).blocked);
}

TEST(DmuCapacity, BlockedCreateHasNoSideEffects)
{
    dmu::DmuConfig cfg;
    cfg.tatEntries = 4;
    cfg.tatAssoc = 4;
    cfg.readyQueueEntries = 4;
    dmu::Dmu d(cfg);
    for (int i = 0; i < 4; ++i)
        makeSimpleTask(d, i, i);
    unsigned sla_used = d.sla().entriesInUse();
    unsigned dla_used = d.dla().entriesInUse();
    auto res = d.createTask(desc(4));
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(d.sla().entriesInUse(), sla_used);
    EXPECT_EQ(d.dla().entriesInUse(), dla_used);
    EXPECT_EQ(d.tasksInFlight(), 4u);
}

TEST(DmuCapacity, DatFullBlocksAddDependence)
{
    dmu::DmuConfig cfg;
    cfg.datEntries = 4;
    cfg.datAssoc = 4;
    dmu::Dmu d(cfg);
    ASSERT_FALSE(d.createTask(desc(0)).blocked);
    for (int r = 0; r < 4; ++r)
        ASSERT_FALSE(
            d.addDependence(desc(0), addr(r), 4096, false).blocked);
    auto res = d.addDependence(desc(0), addr(4), 4096, false);
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(res.reason, dmu::BlockReason::DatFull);
}

TEST(DmuCapacity, DatSetConflictBlocksEvenWhenIdsRemain)
{
    // 8 entries, 8-way = 1 set... use 16/8 = 2 sets and fill one set.
    dmu::DmuConfig cfg;
    cfg.datEntries = 16;
    cfg.datAssoc = 8;
    cfg.dynamicDatIndex = false;
    cfg.staticDatIndexBit = 0; // aligned regions all map to set 0
    dmu::Dmu d(cfg);
    ASSERT_FALSE(d.createTask(desc(0)).blocked);
    for (int r = 0; r < 8; ++r)
        ASSERT_FALSE(
            d.addDependence(desc(0), addr(r), 4096, false).blocked);
    auto res = d.addDependence(desc(0), addr(8), 4096, false);
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(res.reason, dmu::BlockReason::DatFull);
    EXPECT_EQ(d.depsInFlight(), 8u);

    // The dynamic index avoids exactly this conflict.
    cfg.dynamicDatIndex = true;
    dmu::Dmu d2(cfg);
    ASSERT_FALSE(d2.createTask(desc(0)).blocked);
    for (int r = 0; r < 9; ++r)
        EXPECT_FALSE(
            d2.addDependence(desc(0), addr(r), 4096, false).blocked);
}

TEST(DmuCapacity, SlaExhaustionBlocks)
{
    dmu::DmuConfig cfg;
    cfg.slaEntries = 2;
    cfg.elemsPerEntry = 2;
    dmu::Dmu d(cfg);
    // Every in-flight task owns one successor-list entry; two tasks
    // exhaust a 2-entry SLA.
    ASSERT_FALSE(d.createTask(desc(0)).blocked);
    d.commitTask(desc(0));
    ASSERT_FALSE(d.createTask(desc(1)).blocked);
    d.commitTask(desc(1));
    auto res = d.createTask(desc(2));
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(res.reason, dmu::BlockReason::SlaFull);
    // Retiring a task frees its list and unblocks creation.
    unsigned acc = 0;
    d.getReadyTask(acc);
    d.getReadyTask(acc);
    d.finishTask(desc(0));
    EXPECT_FALSE(d.createTask(desc(2)).blocked);
}

TEST(DmuCapacity, RlaGrowthBlocksReaders)
{
    dmu::DmuConfig cfg;
    cfg.rlaEntries = 2;
    cfg.elemsPerEntry = 2;
    cfg.slaEntries = 64;
    cfg.dlaEntries = 64;
    dmu::Dmu d(cfg);
    // Many readers of one region: the reader list needs continuation
    // entries beyond the RLA capacity.
    int i = 0;
    bool blocked = false;
    for (; i < 8; ++i) {
        ASSERT_FALSE(d.createTask(desc(i)).blocked);
        auto res = d.addDependence(desc(i), addr(0), 4096, false);
        if (res.blocked) {
            EXPECT_EQ(res.reason, dmu::BlockReason::RlaFull);
            blocked = true;
            break;
        }
        d.commitTask(desc(i));
    }
    EXPECT_TRUE(blocked);
    EXPECT_GE(i, 2);
}
