/**
 * @file
 * Unit tests for the inode-style list arrays.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "dmu/list_array.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

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

TEST(ListArray, IdSpaceIsSixteenBitsWithAllOnesReserved)
{
    // 70,000 entries used to wrap entries 65,536+ onto ids 0..4,463.
    EXPECT_THROW(dmu::ListArray("t", 70000, 8), sim::FatalError);
    EXPECT_THROW(dmu::ListArray("t", 65536, 1), sim::FatalError);
    EXPECT_THROW(dmu::ListArray("t", 4, 65536), sim::FatalError);
    // 65,535 entries hand out 65,535 distinct valid heads, then none.
    dmu::ListArray la("t", 65535, 1);
    std::set<dmu::ListHead> heads;
    for (unsigned i = 0; i < 65535; ++i) {
        const dmu::ListHead h = la.allocList();
        ASSERT_NE(h, dmu::invalidHwId) << i;
        heads.insert(h);
    }
    EXPECT_EQ(heads.size(), 65535u);
    EXPECT_EQ(la.entriesInUse(), 65535u);
    EXPECT_EQ(la.allocList(), dmu::invalidHwId);
}

namespace {

/**
 * Walking reference list array: every query walks the chain, as the
 * hardware would (and as the simulator's list array did before it kept
 * per-list metadata).
 */
struct RefListArray
{
    unsigned elemsPer;
    std::vector<std::vector<std::uint16_t>> slots; // per entry
    std::vector<std::uint16_t> next;
    std::deque<std::uint16_t> freeEntries;
    unsigned inUse = 0;

    RefListArray(unsigned entries, unsigned elems)
        : elemsPer(elems), slots(entries), next(entries)
    {
        for (unsigned i = 0; i < entries; ++i) {
            next[i] = static_cast<std::uint16_t>(i);
            freeEntries.push_back(static_cast<std::uint16_t>(i));
        }
    }

    std::uint16_t
    take()
    {
        std::uint16_t e = freeEntries.front();
        freeEntries.pop_front();
        slots[e].assign(elemsPer, dmu::invalidHwId);
        next[e] = e;
        ++inUse;
        return e;
    }

    std::uint16_t
    tailOf(std::uint16_t head) const
    {
        while (next[head] != head)
            head = next[head];
        return head;
    }

    unsigned
    tailFreeSlots(std::uint16_t head) const
    {
        unsigned free = 0;
        for (std::uint16_t v : slots[tailOf(head)])
            free += v == dmu::invalidHwId;
        return free;
    }

    unsigned
    entriesNeededFor(std::uint16_t head, unsigned pushes) const
    {
        unsigned free = tailFreeSlots(head);
        return pushes <= free ? 0 : (pushes - free + elemsPer - 1) / elemsPer;
    }

    bool
    push(std::uint16_t head, std::uint16_t value, unsigned &accesses)
    {
        std::uint16_t cur = head;
        ++accesses;
        while (next[cur] != cur) {
            cur = next[cur];
            ++accesses;
        }
        for (std::uint16_t &v : slots[cur]) {
            if (v == dmu::invalidHwId) {
                v = value;
                return true;
            }
        }
        if (freeEntries.empty())
            return false;
        std::uint16_t e = take();
        slots[e][0] = value;
        next[cur] = e;
        ++accesses;
        return true;
    }

    /** Elements in order; @p accesses gets the entries walked. */
    std::vector<std::uint16_t>
    elements(std::uint16_t head, unsigned &accesses) const
    {
        std::vector<std::uint16_t> out;
        accesses = 0;
        for (std::uint16_t cur = head;; cur = next[cur]) {
            ++accesses;
            for (std::uint16_t v : slots[cur])
                if (v != dmu::invalidHwId)
                    out.push_back(v);
            if (next[cur] == cur)
                break;
        }
        return out;
    }

    unsigned
    remove(std::uint16_t head, std::uint16_t value)
    {
        unsigned accesses = 0;
        for (std::uint16_t cur = head;; cur = next[cur]) {
            ++accesses;
            for (std::uint16_t &v : slots[cur]) {
                if (v == value) {
                    v = dmu::invalidHwId;
                    return accesses;
                }
            }
            if (next[cur] == cur)
                break;
        }
        return accesses;
    }

    unsigned
    clear(std::uint16_t head)
    {
        unsigned accesses = 1;
        std::uint16_t cur = next[head];
        while (cur != head) {
            std::uint16_t nx = next[cur];
            next[cur] = cur;
            freeEntries.push_back(cur);
            --inUse;
            ++accesses;
            if (nx == cur)
                break;
            cur = nx;
        }
        slots[head].assign(elemsPer, dmu::invalidHwId);
        next[head] = head;
        return accesses;
    }

    unsigned
    freeList(std::uint16_t head)
    {
        unsigned accesses = clear(head);
        freeEntries.push_back(head);
        --inUse;
        return accesses;
    }
};

/** Drives a list array and the walking reference with one seeded op
 *  stream and compares every result and query after each op. */
void
replayListArray(unsigned entries, unsigned elems, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << entries << " entries x " << elems
                                    << " seed " << seed);
    dmu::ListArray la("t", entries, elems);
    RefListArray ref(entries, elems);
    sim::Rng rng(seed);
    std::vector<dmu::ListHead> lists;
    auto compare = [&](unsigned step) {
        ASSERT_EQ(la.entriesInUse(), ref.inUse) << "step " << step;
        for (unsigned n = 0; n <= entries + 1; ++n)
            ASSERT_EQ(la.hasFree(n), ref.freeEntries.size() >= n);
        for (dmu::ListHead h : lists) {
            unsigned want_acc = 0;
            const std::vector<std::uint16_t> want = ref.elements(h, want_acc);
            std::vector<std::uint16_t> got;
            const unsigned got_acc =
                la.forEach(h, [&](std::uint16_t v) { got.push_back(v); });
            ASSERT_EQ(got, want) << "list " << h << " step " << step;
            ASSERT_EQ(got_acc, want_acc) << "list " << h;
            ASSERT_EQ(la.size(h), want.size()) << "list " << h;
            ASSERT_EQ(la.tailFreeSlots(h), ref.tailFreeSlots(h));
            ASSERT_EQ(la.pushNeedsEntry(h), ref.tailFreeSlots(h) == 0);
            for (unsigned k = 0; k <= 2 * elems + 1; ++k)
                ASSERT_EQ(la.entriesNeededFor(h, k),
                          ref.entriesNeededFor(h, k))
                    << "list " << h << " pushes " << k;
        }
    };
    for (unsigned step = 0; step < 3000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.below(16));
        if (lists.empty() || op == 0) {
            const dmu::ListHead h = la.allocList();
            if (ref.freeEntries.empty()) {
                ASSERT_EQ(h, dmu::invalidHwId) << "step " << step;
            } else {
                ASSERT_EQ(h, ref.take()) << "step " << step;
                lists.push_back(h);
            }
        } else {
            const std::size_t li = rng.below(lists.size());
            const dmu::ListHead h = lists[li];
            if (op < 10) {
                const auto v = static_cast<std::uint16_t>(rng.below(24));
                unsigned got_acc = 0, want_acc = 0;
                const bool ok = la.push(h, v, got_acc);
                ASSERT_EQ(ok, ref.push(h, v, want_acc)) << "step " << step;
                // A failed push still reports its walk to the tail.
                ASSERT_EQ(got_acc, want_acc) << "step " << step;
            } else if (op < 14) {
                const auto v = static_cast<std::uint16_t>(rng.below(24));
                ASSERT_EQ(la.remove(h, v), ref.remove(h, v))
                    << "step " << step;
            } else if (op == 14) {
                ASSERT_EQ(la.clear(h), ref.clear(h)) << "step " << step;
            } else {
                ASSERT_EQ(la.freeList(h), ref.freeList(h))
                    << "step " << step;
                lists[li] = lists.back();
                lists.pop_back();
            }
        }
        compare(step);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace

TEST(ListArray, MatchesWalkingReference)
{
    for (unsigned elems : {1u, 2u, 8u}) {
        for (unsigned entries : {3u, 8u, 24u, 64u}) {
            for (std::uint64_t seed : {1u, 2u, 3u}) {
                replayListArray(entries, elems, seed);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}
