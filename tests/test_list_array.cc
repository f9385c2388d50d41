/**
 * @file
 * Unit tests for the inode-style list arrays.
 */

#include <gtest/gtest.h>

#include "dmu/list_array.hh"

using namespace tdm;

TEST(ListArray, AllocAndPushWithinOneEntry)
{
    dmu::ListArray la("t", 16, 4);
    dmu::ListHead h = la.allocList();
    ASSERT_NE(h, dmu::invalidHwId);
    unsigned acc = 0;
    EXPECT_TRUE(la.push(h, 10, acc));
    EXPECT_TRUE(la.push(h, 11, acc));
    EXPECT_EQ(la.size(h), 2u);
    EXPECT_EQ(la.entriesInUse(), 1u);
}

TEST(ListArray, ChainsAcrossEntries)
{
    dmu::ListArray la("t", 16, 4);
    dmu::ListHead h = la.allocList();
    unsigned acc = 0;
    for (std::uint16_t i = 0; i < 10; ++i)
        ASSERT_TRUE(la.push(h, i, acc));
    EXPECT_EQ(la.size(h), 10u);
    EXPECT_EQ(la.entriesInUse(), 3u); // ceil(10/4)

    std::vector<std::uint16_t> seen;
    la.forEach(h, [&](std::uint16_t v) { seen.push_back(v); });
    for (std::uint16_t i = 0; i < 10; ++i)
        EXPECT_EQ(seen[i], i);
}

TEST(ListArray, TraversalCostGrowsWithChainLength)
{
    dmu::ListArray la("t", 64, 4);
    dmu::ListHead h = la.allocList();
    unsigned acc_first = 0;
    la.push(h, 0, acc_first);
    unsigned acc = 0;
    for (std::uint16_t i = 1; i < 12; ++i)
        la.push(h, i, acc);
    unsigned acc_last = 0;
    la.push(h, 99, acc_last);
    EXPECT_GT(acc_last, acc_first); // tail is 3 entries deep
}

TEST(ListArray, PushFailsWhenNoContinuationEntry)
{
    dmu::ListArray la("t", 1, 2);
    dmu::ListHead h = la.allocList();
    unsigned acc = 0;
    EXPECT_TRUE(la.push(h, 1, acc));
    EXPECT_TRUE(la.push(h, 2, acc));
    EXPECT_TRUE(la.pushNeedsEntry(h));
    EXPECT_FALSE(la.push(h, 3, acc)); // no free entries
    EXPECT_EQ(la.size(h), 2u);        // unchanged
}

TEST(ListArray, RemoveLeavesHole)
{
    dmu::ListArray la("t", 8, 4);
    dmu::ListHead h = la.allocList();
    unsigned acc = 0;
    la.push(h, 1, acc);
    la.push(h, 2, acc);
    la.push(h, 3, acc);
    la.remove(h, 2);
    EXPECT_EQ(la.size(h), 2u);
    std::vector<std::uint16_t> seen;
    la.forEach(h, [&](std::uint16_t v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<std::uint16_t>{1, 3}));
    // The hole is reused by the next push into the same entry.
    la.push(h, 9, acc);
    EXPECT_EQ(la.size(h), 3u);
    EXPECT_EQ(la.entriesInUse(), 1u);
}

TEST(ListArray, ClearKeepsHeadFreesChain)
{
    dmu::ListArray la("t", 8, 2);
    dmu::ListHead h = la.allocList();
    unsigned acc = 0;
    for (std::uint16_t i = 0; i < 6; ++i)
        la.push(h, i, acc);
    EXPECT_EQ(la.entriesInUse(), 3u);
    la.clear(h);
    EXPECT_EQ(la.size(h), 0u);
    EXPECT_EQ(la.entriesInUse(), 1u);
    // Still usable after clear.
    la.push(h, 42, acc);
    EXPECT_EQ(la.size(h), 1u);
}

TEST(ListArray, FreeListRecyclesEntries)
{
    dmu::ListArray la("t", 4, 2);
    dmu::ListHead h1 = la.allocList();
    unsigned acc = 0;
    for (std::uint16_t i = 0; i < 8; ++i)
        la.push(h1, i, acc);
    EXPECT_EQ(la.entriesInUse(), 4u);
    EXPECT_EQ(la.allocList(), dmu::invalidHwId); // full
    la.freeList(h1);
    EXPECT_EQ(la.entriesInUse(), 0u);
    EXPECT_NE(la.allocList(), dmu::invalidHwId);
}

TEST(ListArray, InUseCountsContinuationEntries)
{
    dmu::ListArray la("t", 8, 2);
    dmu::ListHead h = la.allocList();
    unsigned acc = 0;
    for (std::uint16_t i = 0; i < 6; ++i)
        la.push(h, i, acc);
    EXPECT_EQ(la.entriesInUse(), 3u);
    la.freeList(h);
    EXPECT_EQ(la.entriesInUse(), 0u);
}
