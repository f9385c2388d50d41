/**
 * @file
 * Unit tests for the Carbon hardware queues and the hardware-cost
 * models of Carbon and Task Superscalar (the 7.3x storage comparison
 * of Section VI-C).
 */

#include <gtest/gtest.h>

#include "dmu/geometry.hh"
#include "hwbaselines/carbon.hh"
#include "hwbaselines/hw_task_queue.hh"
#include "hwbaselines/task_superscalar.hh"

using namespace tdm;

namespace {

rt::ReadyTask
task(rt::TaskId id)
{
    rt::ReadyTask t;
    t.id = id;
    return t;
}

} // namespace

TEST(HwTaskQueues, LocalFifoOrder)
{
    hw::HwTaskQueues q(4, 8);
    q.push(0, task(1));
    q.push(0, task(2));
    EXPECT_EQ(q.popLocal(0)->id, 1u);
    EXPECT_EQ(q.popLocal(0)->id, 2u);
    EXPECT_FALSE(q.popLocal(0).has_value());
}

TEST(HwTaskQueues, StealFromFullestVictim)
{
    hw::HwTaskQueues q(4, 8);
    q.push(1, task(10));
    q.push(2, task(20));
    q.push(2, task(21));
    auto t = q.steal(0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->id, 20u); // core 2 had the most
    EXPECT_EQ(q.steals(), 1u);
}

TEST(HwTaskQueues, StealExcludesThief)
{
    hw::HwTaskQueues q(2, 8);
    q.push(0, task(1));
    EXPECT_FALSE(q.steal(0).has_value());
    EXPECT_EQ(q.failedSteals(), 1u);
    EXPECT_TRUE(q.steal(1).has_value());
}

TEST(HwTaskQueues, CapacityEnforced)
{
    hw::HwTaskQueues q(1, 2);
    EXPECT_TRUE(q.push(0, task(1)));
    EXPECT_TRUE(q.push(0, task(2)));
    EXPECT_FALSE(q.push(0, task(3)));
    EXPECT_EQ(q.totalSize(), 2u);
}

TEST(HwTaskQueues, TotalSizeTracksState)
{
    hw::HwTaskQueues q(2, 4);
    EXPECT_EQ(q.totalSize(), 0u);
    q.push(1, task(5));
    EXPECT_EQ(q.totalSize(), 1u);
    q.popLocal(1);
    EXPECT_EQ(q.totalSize(), 0u);
}

TEST(TssModel, PaperStorageIs769KB)
{
    hw::TssConfig cfg;
    // 1 KB gateway + 3 x 256 KB (2048 entries x 128 B).
    EXPECT_NEAR(hw::tssStorageKB(cfg), 769.0, 0.5);
}

TEST(TssModel, StorageRatioVsDmuIs7x)
{
    // Section VI-C: "the DMU requires 7.3x lower hardware complexity".
    double tss = hw::tssStorageKB(hw::TssConfig{});
    double dmu = dmu::totalStorageKB(dmu::DmuConfig{});
    EXPECT_NEAR(tss / dmu, 7.3, 0.1);
}

TEST(TssModel, AreaDominatedByCam)
{
    double tss_area = hw::tssAreaMm2(hw::TssConfig{});
    double dmu_area = dmu::totalAreaMm2(dmu::DmuConfig{});
    EXPECT_GT(tss_area, dmu_area * 7.0);
}

TEST(CarbonModel, StorageScalesWithCores)
{
    hw::CarbonConfig cfg;
    EXPECT_DOUBLE_EQ(hw::carbonStorageKB(cfg, 32),
                     2.0 * hw::carbonStorageKB(cfg, 16));
    // Carbon's queues are far cheaper than the DMU or Task Superscalar.
    EXPECT_LT(hw::carbonStorageKB(cfg, 32),
              dmu::totalStorageKB(dmu::DmuConfig{}));
}
