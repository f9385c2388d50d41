/**
 * @file
 * Unit tests for the memory hierarchy model: residency levels,
 * invalidation on writes, the locality effect the Locality scheduler
 * exploits, and a lockstep fuzz of the line table against a reference
 * built from naive list-based LRUs that invalidates every other L1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/memory_model.hh"

using namespace tdm;

namespace {

mem::MemConfig
smallConfig()
{
    mem::MemConfig c;
    c.l1Bytes = 4 * 1024;
    c.l2Bytes = 64 * 1024;
    return c;
}

} // namespace

TEST(MemoryModel, ColdAccessGoesToDram)
{
    mem::MemoryModel m(smallConfig(), 2);
    EXPECT_EQ(m.levelOf(0, 1), 3);
    mem::MemAccess a{1, 1024, false};
    m.taskAccessTime(0, std::span(&a, 1));
    EXPECT_EQ(m.levelOf(0, 1), 1);
    EXPECT_EQ(m.levelOf(1, 1), 2); // other core: L2
}

TEST(MemoryModel, DramCostsMoreThanL1)
{
    mem::MemoryModel m(smallConfig(), 2);
    mem::MemAccess a{1, 2048, false};
    sim::Tick cold = m.taskAccessTime(0, std::span(&a, 1));
    sim::Tick warm = m.taskAccessTime(0, std::span(&a, 1));
    EXPECT_GT(cold, warm);
}

TEST(MemoryModel, WriteInvalidatesOtherL1s)
{
    mem::MemoryModel m(smallConfig(), 2);
    mem::MemAccess rd{1, 1024, false};
    m.taskAccessTime(0, std::span(&rd, 1));
    m.taskAccessTime(1, std::span(&rd, 1));
    EXPECT_EQ(m.levelOf(0, 1), 1);
    EXPECT_EQ(m.levelOf(1, 1), 1);
    mem::MemAccess wr{1, 1024, true};
    m.taskAccessTime(0, std::span(&wr, 1));
    EXPECT_EQ(m.levelOf(0, 1), 1);
    EXPECT_EQ(m.levelOf(1, 1), 2); // invalidated from core 1's L1
}

TEST(MemoryModel, ConsumerOnProducerCoreIsFaster)
{
    // The locality-scheduler effect: running the consumer where the
    // producer ran hits in L1; elsewhere it pays L2.
    mem::MemoryModel m(smallConfig(), 2);
    mem::MemAccess wr{1, 2048, true};
    m.taskAccessTime(0, std::span(&wr, 1));

    mem::MemAccess rd{1, 2048, false};
    sim::Tick same_core = m.taskAccessTime(0, std::span(&rd, 1));

    mem::MemoryModel m2(smallConfig(), 2);
    m2.taskAccessTime(0, std::span(&wr, 1));
    sim::Tick other_core = m2.taskAccessTime(1, std::span(&rd, 1));
    EXPECT_GT(other_core, same_core);
}

TEST(MemoryModel, CountsLineTraffic)
{
    mem::MemoryModel m(smallConfig(), 1);
    mem::MemAccess a{1, 640, false}; // 10 lines
    m.taskAccessTime(0, std::span(&a, 1));
    EXPECT_EQ(m.l1LineAccesses(), 10u);
    EXPECT_EQ(m.dramLineAccesses(), 10u);
    m.taskAccessTime(0, std::span(&a, 1));
    EXPECT_EQ(m.l1LineAccesses(), 20u);
    EXPECT_EQ(m.dramLineAccesses(), 10u); // second touch hits L1
}

TEST(MemoryModel, ZeroByteAccessIsFree)
{
    mem::MemoryModel m(smallConfig(), 1);
    mem::MemAccess a{1, 0, false};
    EXPECT_EQ(m.taskAccessTime(0, std::span(&a, 1)), 0u);
}

namespace {

/** Reference LRU over regions bounded by bytes: a std::list of
 *  (id, bytes) nodes, most recent first, and an iterator map. */
class NaiveLru
{
  public:
    explicit NaiveLru(std::uint64_t cap) : cap_(cap) {}

    /** @return true if @p id was resident. */
    bool
    touch(mem::RegionId id, std::uint64_t bytes)
    {
        const bool hit = erase(id);
        const std::uint64_t eff = std::min(bytes, cap_);
        while (used_ + eff > cap_ && !lru_.empty()) {
            used_ -= lru_.back().second;
            map_.erase(lru_.back().first);
            lru_.pop_back();
        }
        lru_.push_front({id, eff});
        map_[id] = lru_.begin();
        used_ += eff;
        return hit;
    }

    bool
    erase(mem::RegionId id)
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

  private:
    std::uint64_t cap_, used_ = 0;
    std::list<std::pair<mem::RegionId, std::uint64_t>> lru_;
    std::unordered_map<
        mem::RegionId,
        std::list<std::pair<mem::RegionId, std::uint64_t>>::iterator>
        map_;
};

/** Brute-force reference with the broadcast semantics: every write
 *  probes and invalidates the region in all other cores' L1s. */
class BroadcastModel
{
  public:
    BroadcastModel(const mem::MemConfig &cfg, unsigned cores)
        : cfg_(cfg), l1_(cores, NaiveLru(cfg.l1Bytes)), l2_(cfg.l2Bytes)
    {
    }

    int
    levelOf(sim::CoreId core, mem::RegionId region) const
    {
        if (l1_[core].contains(region))
            return 1;
        return l2_.contains(region) ? 2 : 3;
    }

    sim::Tick
    access(sim::CoreId core, const mem::MemAccess &a)
    {
        const std::uint64_t lines =
            (a.bytes + cfg_.lineBytes - 1) / cfg_.lineBytes;
        const int level = levelOf(core, a.region);
        double per_line = cfg_.dramCycles;
        l1Line_ += lines;
        if (level == 1) {
            per_line = cfg_.l1HitCycles;
            ++l1Hits_;
        } else {
            ++l1Misses_;
            l2Line_ += lines;
            if (level == 2) {
                per_line = cfg_.l2HitCycles;
                ++l2Hits_;
            } else {
                ++l2Misses_;
                dramLine_ += lines;
            }
        }
        const double overlap = level == 1 ? 2.0 : cfg_.mlp;
        l1_[core].touch(a.region, a.bytes);
        l2_.touch(a.region, a.bytes);
        if (a.write) {
            for (std::size_t c = 0; c < l1_.size(); ++c) {
                if (c != core)
                    l1_[c].erase(a.region);
            }
        }
        return static_cast<sim::Tick>(static_cast<double>(lines)
                                      * per_line / overlap);
    }

    std::array<std::uint64_t, 7>
    counters() const
    {
        return {l1Hits_, l1Misses_, l2Hits_, l2Misses_,
                l1Line_, l2Line_,   dramLine_};
    }

  private:
    mem::MemConfig cfg_;
    std::vector<NaiveLru> l1_;
    NaiveLru l2_;
    std::uint64_t l1Hits_ = 0, l1Misses_ = 0, l2Hits_ = 0, l2Misses_ = 0;
    std::uint64_t l1Line_ = 0, l2Line_ = 0, dramLine_ = 0;
};

std::array<std::uint64_t, 7>
countersOf(const mem::MemoryModel &m)
{
    return {m.l1Hits(),         m.l1Misses(),       m.l2Hits(),
            m.l2Misses(),       m.l1LineAccesses(), m.l2LineAccesses(),
            m.dramLineAccesses()};
}

testing::AssertionResult
sameState(const mem::MemoryModel &m, const BroadcastModel &ref,
          unsigned cores, unsigned regions)
{
    for (sim::CoreId c = 0; c < cores; ++c) {
        for (mem::RegionId r = 0; r < regions; ++r) {
            if (m.levelOf(c, r) != ref.levelOf(c, r))
                return testing::AssertionFailure()
                       << "levelOf(core " << c << ", region " << r
                       << ") = " << m.levelOf(c, r) << ", reference "
                       << ref.levelOf(c, r);
        }
    }
    if (countersOf(m) != ref.counters())
        return testing::AssertionFailure() << "counters differ";
    return testing::AssertionSuccess();
}

} // namespace

TEST(MemoryModel, SharerInvalidationMatchesBroadcastFuzz)
{
    // Two access shapes, each at 4, 17 and 64 cores:
    //  - mixed: a 4 KiB L1 over ~1 KiB regions evicts on almost every
    //    miss, and every eleventh region is larger than the L1, so
    //    touching it evicts everything else. Three in four accesses go
    //    to a hot set of eight regions, so regions gather many sharers
    //    before a write (one access in three) invalidates them. One
    //    access in four re-declares its region's size, so hits shrink
    //    lines and grow them, evicting others or the whole L1.
    //  - thrash: a working set twice the L1 (sixteen 512-byte regions)
    //    swept in order, four sweeps per core before the next core
    //    takes over, so every L1 access misses and evicts its LRU
    //    region while writes strip the previous core's copies.
    constexpr unsigned regions = 96;
    constexpr unsigned thrashRegions = 16;
    constexpr int steps = 6000;
    for (bool thrash : {false, true}) {
        for (unsigned cores : {4u, 17u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << (thrash ? "thrash, " : "mixed, ") << cores
                         << " cores");
            mem::MemConfig cfg = smallConfig();
            mem::MemoryModel m(cfg, cores, regions);
            BroadcastModel ref(cfg, cores);

            std::uint64_t rng = 0x5eed0000u + cores;
            auto next = [&] {
                rng = rng * 6364136223846793005ull
                      + 1442695040888963407ull;
                return rng >> 33;
            };
            std::vector<std::uint64_t> bytes(regions);
            for (mem::RegionId r = 0; r < regions; ++r) {
                if (thrash)
                    bytes[r] = 512;
                else
                    bytes[r] = r % 11 == 5 ? 6 * 1024 : 1 + next() % 2048;
            }

            for (int step = 0; step < steps; ++step) {
                mem::MemAccess a;
                const std::uint64_t r = thrash ? 0 : next();
                a.region = static_cast<mem::RegionId>(
                    thrash ? step % thrashRegions
                           : (r & 3) ? r % 8 : r % regions);
                if (!thrash && next() % 4 == 0)
                    bytes[a.region] = 1 + next() % 4096;
                a.bytes = bytes[a.region];
                a.write = next() % 3 == 0;
                const auto core = static_cast<sim::CoreId>(
                    thrash ? step / (4 * thrashRegions) % cores
                           : next() % cores);

                ASSERT_EQ(m.taskAccessTime(core, std::span(&a, 1)),
                          ref.access(core, a))
                    << "step " << step;
                ASSERT_TRUE(sameState(m, ref, cores,
                                      thrash ? thrashRegions : regions))
                    << "step " << step << ": core " << core
                    << (a.write ? " wrote" : " read") << " region "
                    << a.region;
            }
            if (thrash) {
                EXPECT_EQ(m.l1Hits(), 0u);
            }
        }
    }
}
