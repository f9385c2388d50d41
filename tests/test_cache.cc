/**
 * @file
 * Unit tests for the region cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/region_cache.hh"

using namespace tdm;

TEST(RegionCache, HitTracking)
{
    mem::RegionCache rc(1024);
    EXPECT_FALSE(rc.touch(1, 256));
    EXPECT_TRUE(rc.touch(1, 256));
    EXPECT_EQ(rc.hits(), 1u);
    EXPECT_EQ(rc.misses(), 1u);
    EXPECT_EQ(rc.usedBytes(), 256u);
}

TEST(RegionCache, LruEvictionByBytes)
{
    mem::RegionCache rc(1000);
    rc.touch(1, 400);
    rc.touch(2, 400);
    rc.touch(1, 400); // 1 becomes MRU
    rc.touch(3, 400); // evicts 2
    EXPECT_TRUE(rc.contains(1));
    EXPECT_FALSE(rc.contains(2));
    EXPECT_TRUE(rc.contains(3));
    EXPECT_EQ(rc.evictions(), 1u);
}

TEST(RegionCache, OversizedRegionOccupiesWholeCache)
{
    mem::RegionCache rc(1000);
    rc.touch(1, 100);
    rc.touch(2, 5000); // larger than capacity: clamped, evicts all
    EXPECT_FALSE(rc.contains(1));
    EXPECT_TRUE(rc.contains(2));
    EXPECT_LE(rc.usedBytes(), 1000u);
}

TEST(RegionCache, InvalidateAndFlush)
{
    mem::RegionCache rc(1024);
    rc.touch(7, 64);
    EXPECT_TRUE(rc.invalidate(7));
    EXPECT_FALSE(rc.invalidate(7));
    rc.touch(8, 64);
    rc.flush();
    EXPECT_EQ(rc.residentRegions(), 0u);
    EXPECT_EQ(rc.usedBytes(), 0u);
}

TEST(RegionCache, ResizeOnRetouch)
{
    mem::RegionCache rc(1024);
    rc.touch(1, 100);
    rc.touch(1, 300);
    EXPECT_EQ(rc.usedBytes(), 300u);
}

namespace {

/** Minimal reference LRU with the pre-flat semantics: a std::list of
 *  (id, bytes) nodes and an iterator map. The fuzz test below drives
 *  it in lockstep with the open-addressed implementation. */
class NaiveLru
{
  public:
    explicit NaiveLru(std::uint64_t cap) : cap_(cap) {}

    bool
    touch(mem::RegionId id, std::uint64_t bytes,
          std::vector<mem::RegionId> &evicted)
    {
        bool hit = erase(id);
        std::uint64_t eff = std::min(bytes, cap_);
        while (used_ + eff > cap_ && !lru_.empty()) {
            evicted.push_back(lru_.back().first);
            used_ -= lru_.back().second;
            map_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
        }
        lru_.push_front({id, eff});
        map_[id] = lru_.begin();
        used_ += eff;
        return hit;
    }

    bool erase(mem::RegionId id)
    {
        auto it = map_.find(id);
        if (it == map_.end())
            return false;
        used_ -= it->second->second;
        lru_.erase(it->second);
        map_.erase(it);
        return true;
    }

    bool contains(mem::RegionId id) const { return map_.count(id) != 0; }

    void
    clear()
    {
        lru_.clear();
        map_.clear();
        used_ = 0;
    }

    std::uint64_t used() const { return used_; }
    std::size_t resident() const { return map_.size(); }
    std::uint64_t evictions() const { return evictions_; }

  private:
    std::uint64_t cap_, used_ = 0, evictions_ = 0;
    std::list<std::pair<mem::RegionId, std::uint64_t>> lru_;
    std::unordered_map<
        mem::RegionId,
        std::list<std::pair<mem::RegionId, std::uint64_t>>::iterator>
        map_;
};

} // namespace

TEST(RegionCache, FuzzAgainstNaiveLru)
{
    // Drives the open-addressed index through its interesting regimes
    // — growth/rehash, backward-shift deletion under clustering, slot
    // recycling, whole-cache flushes — and checks every observable
    // against a naive list-based LRU after each operation, including
    // the ids each touch reports evicted, in eviction order.
    mem::RegionCache rc(4096);
    NaiveLru ref(4096);
    std::uint64_t rng = 12345;
    auto next = [&] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    for (int op = 0; op < 20000; ++op) {
        std::uint64_t r = next();
        // Skewed id space: heavy reuse plus a long tail so the index
        // churns through inserts and deletes of clustered keys.
        mem::RegionId id = (r & 1) ? r % 13 : r % 4093;
        std::uint64_t bytes = 1 + next() % 2048;
        switch (next() % 8) {
          case 0:
            EXPECT_EQ(rc.invalidate(id), ref.erase(id));
            break;
          case 1:
            EXPECT_EQ(rc.contains(id), ref.contains(id));
            break;
          case 2:
            if (op % 977 == 0) {
                rc.flush();
                ref.clear();
                break;
            }
            [[fallthrough]];
          default: {
            std::vector<mem::RegionId> got, want;
            EXPECT_EQ(rc.touch(id, bytes, &got),
                      ref.touch(id, bytes, want));
            EXPECT_EQ(got, want) << "op " << op;
            EXPECT_EQ(rc.evictions(), ref.evictions());
            break;
          }
        }
        ASSERT_EQ(rc.usedBytes(), ref.used()) << "op " << op;
        ASSERT_EQ(rc.residentRegions(), ref.resident()) << "op " << op;
    }
}
