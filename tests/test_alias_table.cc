/**
 * @file
 * Unit tests for the TAT/DAT alias tables, including the dynamic
 * index-bit selection that Figure 11 evaluates.
 */

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "dmu/alias_table.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace tdm;

TEST(AliasTable, InsertLookupErase)
{
    dmu::AliasTable t("tat", 64, 8, true, 0);
    auto r = t.insert(0x1000, 64);
    ASSERT_EQ(r.status, dmu::AliasInsertStatus::Ok);
    auto id = t.lookup(0x1000, 64);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, r.id);
    t.erase(r.id);
    EXPECT_FALSE(t.lookup(0x1000, 64).has_value());
    EXPECT_EQ(t.liveEntries(), 0u);
}

TEST(AliasTable, IdsAreRecycled)
{
    // The free-id queue is a FIFO: once all ids have been handed out,
    // an erase makes exactly that id available again.
    dmu::AliasTable t("tat", 2, 2, true, 0);
    auto a = t.insert(0x100, 64);
    auto b = t.insert(0x5000, 64);
    ASSERT_EQ(a.status, dmu::AliasInsertStatus::Ok);
    ASSERT_EQ(b.status, dmu::AliasInsertStatus::Ok);
    t.erase(a.id);
    auto c = t.insert(0x9000, 64);
    EXPECT_EQ(c.status, dmu::AliasInsertStatus::Ok);
    EXPECT_EQ(c.id, a.id);
}

TEST(AliasTable, SetConflictWhenWaysExhausted)
{
    // 8 entries, 2-way => 4 sets. With a 64-byte index granularity,
    // addresses 64*4 apart map to the same set.
    dmu::AliasTable t("dat", 8, 2, false, 6);
    std::uint64_t stride = 64 * 4;
    EXPECT_EQ(t.insert(0 * stride, 64).status,
              dmu::AliasInsertStatus::Ok);
    EXPECT_EQ(t.insert(1 * stride, 64).status,
              dmu::AliasInsertStatus::Ok);
    EXPECT_FALSE(t.canInsert(2 * stride, 64));
    EXPECT_EQ(t.insert(2 * stride, 64).status,
              dmu::AliasInsertStatus::SetConflict);
    EXPECT_EQ(t.conflicts(), 1u);
}

TEST(AliasTable, NoFreeIdWhenFull)
{
    dmu::AliasTable t("tat", 4, 4, false, 6);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(t.insert(0x40 * (i + 1), 64).status,
                  dmu::AliasInsertStatus::Ok);
    EXPECT_EQ(t.insert(0x4000, 64).status,
              dmu::AliasInsertStatus::NoFreeId);
}

TEST(AliasTable, StaticLowIndexBitsCollapseAlignedRegions)
{
    // 16 KB-aligned dependence addresses share their low 14 bits, so a
    // static index at bit 0 maps everything to one set (Section V-E).
    dmu::AliasTable bad("dat", 256, 8, false, 0);
    for (std::uint64_t i = 0; i < 16; ++i)
        ASSERT_NE(bad.insert(0x100000 + i * 16384, 16384).status,
                  dmu::AliasInsertStatus::NoFreeId);
    EXPECT_EQ(bad.occupiedSets(), 1u);
}

TEST(AliasTable, DynamicIndexSpreadsAlignedRegions)
{
    dmu::AliasTable good("dat", 256, 8, true, 0);
    for (std::uint64_t i = 0; i < 16; ++i)
        ASSERT_EQ(good.insert(0x100000 + i * 16384, 16384).status,
                  dmu::AliasInsertStatus::Ok);
    EXPECT_EQ(good.occupiedSets(), 16u);
}

TEST(AliasTable, DynamicIndexAvoidsConflictBlocking)
{
    // 64 contiguous 16 KB tiles in a 64-entry 8-way table: dynamic
    // indexing fills all 8 sets evenly; a bit-0 static index dies after
    // 8 inserts.
    dmu::AliasTable dynamic("dat", 64, 8, true, 0);
    dmu::AliasTable stat("dat", 64, 8, false, 0);
    unsigned dyn_ok = 0, stat_ok = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        std::uint64_t addr = 0x200000 + i * 16384;
        if (dynamic.insert(addr, 16384).status
            == dmu::AliasInsertStatus::Ok)
            ++dyn_ok;
        if (stat.insert(addr, 16384).status == dmu::AliasInsertStatus::Ok)
            ++stat_ok;
    }
    EXPECT_EQ(dyn_ok, 64u);
    EXPECT_EQ(stat_ok, 8u);
}

TEST(AliasTable, OccupancySamplesAveraged)
{
    dmu::AliasTable t("dat", 64, 8, true, 0);
    t.insert(0x1000, 4096);
    EXPECT_GT(t.avgOccupiedSets(), 0.0);
    EXPECT_LE(t.avgOccupiedSets(), 8.0);
}

TEST(AliasTable, IdSpaceIsSixteenBitsWithAllOnesReserved)
{
    // A 65536-entry table would issue 0xffff, the invalid id.
    EXPECT_THROW(dmu::AliasTable("tat", 65536, 8, true, 0),
                 sim::FatalError);
    EXPECT_THROW(dmu::AliasTable("dat", 1u << 20, 16, true, 0),
                 sim::FatalError);
    // 65535 entries (one 65535-way set) stay below it.
    dmu::AliasTable t("tat", 65535, 65535, true, 0);
    auto r = t.insert(0x40, 64);
    ASSERT_EQ(r.status, dmu::AliasInsertStatus::Ok);
    EXPECT_NE(r.id, dmu::invalidHwId);
}

namespace {

/** Naive alias table: scans every way, frees by searching for the id. */
struct RefAliasTable
{
    struct Way
    {
        bool valid = false;
        std::uint64_t addr = 0;
        std::uint32_t pid = 0;
        std::uint16_t id = 0;
    };

    unsigned assoc, sets;
    bool dynamic;
    unsigned staticBit;
    std::vector<Way> ways;
    std::deque<std::uint16_t> freeIds;
    std::uint64_t lookups = 0, hits = 0, conflicts = 0, inserts = 0;
    double occSum = 0.0;

    RefAliasTable(unsigned entries, unsigned assoc_, bool dyn, unsigned bit)
        : assoc(assoc_), sets(entries / assoc_), dynamic(dyn),
          staticBit(bit), ways(entries)
    {
        for (unsigned i = 0; i < entries; ++i)
            freeIds.push_back(static_cast<std::uint16_t>(i));
    }

    unsigned
    setOf(std::uint64_t addr, std::uint64_t size) const
    {
        unsigned start = dynamic ? (size > 1 ? sim::floorLog2(size) : 0)
                                 : staticBit;
        return static_cast<unsigned>((addr >> start) % sets);
    }

    std::optional<std::uint16_t>
    lookup(std::uint64_t addr, std::uint64_t size, std::uint32_t pid)
    {
        ++lookups;
        unsigned s = setOf(addr, size);
        for (unsigned w = 0; w < assoc; ++w) {
            const Way &way = ways[s * assoc + w];
            if (way.valid && way.addr == addr && way.pid == pid) {
                ++hits;
                return way.id;
            }
        }
        return std::nullopt;
    }

    bool
    canInsert(std::uint64_t addr, std::uint64_t size) const
    {
        unsigned s = setOf(addr, size);
        for (unsigned w = 0; w < assoc; ++w)
            if (!ways[s * assoc + w].valid)
                return !freeIds.empty();
        return false;
    }

    dmu::AliasTable::InsertResult
    insert(std::uint64_t addr, std::uint64_t size, std::uint32_t pid)
    {
        if (freeIds.empty())
            return {dmu::AliasInsertStatus::NoFreeId, dmu::invalidHwId};
        unsigned s = setOf(addr, size);
        for (unsigned w = 0; w < assoc; ++w) {
            Way &way = ways[s * assoc + w];
            if (!way.valid) {
                way = Way{true, addr, pid, freeIds.front()};
                freeIds.pop_front();
                ++inserts;
                occSum += occupiedSets();
                return {dmu::AliasInsertStatus::Ok, way.id};
            }
        }
        ++conflicts;
        return {dmu::AliasInsertStatus::SetConflict, dmu::invalidHwId};
    }

    void
    erase(std::uint16_t id)
    {
        for (Way &way : ways) {
            if (way.valid && way.id == id) {
                way.valid = false;
                freeIds.push_back(id);
                return;
            }
        }
        FAIL() << "reference erase of absent id " << id;
    }

    unsigned
    occupiedSets() const
    {
        unsigned n = 0;
        for (unsigned s = 0; s < sets; ++s) {
            bool any = false;
            for (unsigned w = 0; w < assoc; ++w)
                any = any || ways[s * assoc + w].valid;
            n += any;
        }
        return n;
    }

    unsigned
    live() const
    {
        unsigned n = 0;
        for (const Way &way : ways)
            n += way.valid;
        return n;
    }
};

/** Drives a table and the reference with one seeded op stream: a small
 *  address pool (set conflicts), three process tags and several
 *  dependence sizes; erases pick a random live id. */
void
replayAliasTable(unsigned entries, unsigned assoc, bool dynamic,
                 std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << entries << "/" << assoc
                                    << (dynamic ? " dynamic" : " static")
                                    << " seed " << seed);
    dmu::AliasTable t("dat", entries, assoc, dynamic, 6);
    RefAliasTable ref(entries, assoc, dynamic, 6);
    sim::Rng rng(seed);
    std::vector<std::uint16_t> live;
    const std::uint64_t sizes[] = {64, 512, 4096, 16384};
    for (unsigned step = 0; step < 4000; ++step) {
        const std::uint64_t size = sizes[rng.below(4)];
        const std::uint64_t addr = 0x100000 + rng.below(48) * size;
        const std::uint32_t pid = static_cast<std::uint32_t>(rng.below(3));
        const unsigned op = static_cast<unsigned>(rng.below(8));
        if (op < 3) {
            ASSERT_EQ(t.lookup(addr, size, pid), ref.lookup(addr, size, pid))
                << "step " << step;
        } else if (op < 6 || live.empty()) {
            ASSERT_EQ(t.canInsert(addr, size), ref.canInsert(addr, size))
                << "step " << step;
            // The DMU only inserts absent keys.
            if (ref.lookup(addr, size, pid)) {
                ASSERT_TRUE(t.lookup(addr, size, pid).has_value());
                continue;
            }
            (void)t.lookup(addr, size, pid);
            const auto got = t.insert(addr, size, pid);
            const auto want = ref.insert(addr, size, pid);
            ASSERT_EQ(got.status, want.status) << "step " << step;
            ASSERT_EQ(got.id, want.id) << "step " << step;
            if (got.status == dmu::AliasInsertStatus::Ok)
                live.push_back(got.id);
        } else {
            const std::size_t i = rng.below(live.size());
            t.erase(live[i]);
            ref.erase(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(t.lookups(), ref.lookups) << "step " << step;
        ASSERT_EQ(t.hits(), ref.hits);
        ASSERT_EQ(t.conflicts(), ref.conflicts);
        ASSERT_EQ(t.inserts(), ref.inserts);
        ASSERT_EQ(t.occupiedSets(), ref.occupiedSets());
        ASSERT_EQ(t.liveEntries(), ref.live());
        ASSERT_EQ(t.avgOccupiedSets(),
                  ref.inserts ? ref.occSum / static_cast<double>(ref.inserts)
                              : 0.0);
    }
}

} // namespace

TEST(AliasTable, MatchesNaiveTableWhenFreedById)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        replayAliasTable(64, 8, true, seed);
        replayAliasTable(64, 8, false, seed);
        replayAliasTable(32, 2, true, seed);
        replayAliasTable(24, 3, true, seed); // 8 sets of 3 ways
        replayAliasTable(16, 16, true, seed);
        if (testing::Test::HasFatalFailure())
            return;
    }
}
