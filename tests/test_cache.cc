/**
 * @file
 * Unit tests for the region-granularity LRU of each cache in the
 * memory model, observed through levelOf and the hit/miss counters.
 */

#include <gtest/gtest.h>

#include "mem/memory_model.hh"

using namespace tdm;

namespace {

/** A model whose L1s hold @p l1 bytes each and whose L2 is large
 *  enough never to evict in these tests. */
mem::MemoryModel
model(std::uint64_t l1, unsigned cores = 1)
{
    mem::MemConfig c;
    c.l1Bytes = l1;
    c.l2Bytes = 1024 * 1024;
    return mem::MemoryModel(c, cores);
}

void
access(mem::MemoryModel &m, sim::CoreId core, mem::RegionId region,
       std::uint64_t bytes, bool write = false)
{
    const mem::MemAccess a{region, bytes, write};
    m.taskAccessTime(core, std::span(&a, 1));
}

} // namespace

TEST(CacheLru, HitTracking)
{
    mem::MemoryModel m = model(1024);
    access(m, 0, 1, 256);
    access(m, 0, 1, 256);
    EXPECT_EQ(m.l1Hits(), 1u);
    EXPECT_EQ(m.l1Misses(), 1u);
    EXPECT_EQ(m.l2Misses(), 1u);
    EXPECT_EQ(m.levelOf(0, 1), 1);
}

TEST(CacheLru, LruEvictionByBytes)
{
    mem::MemoryModel m = model(1000);
    access(m, 0, 1, 400);
    access(m, 0, 2, 400);
    access(m, 0, 1, 400); // 1 becomes MRU
    access(m, 0, 3, 400); // evicts 2 from the L1
    EXPECT_EQ(m.levelOf(0, 1), 1);
    EXPECT_EQ(m.levelOf(0, 2), 2);
    EXPECT_EQ(m.levelOf(0, 3), 1);
}

TEST(CacheLru, OversizedRegionOccupiesWholeCache)
{
    mem::MemoryModel m = model(1000);
    access(m, 0, 1, 100);
    access(m, 0, 2, 5000); // larger than the L1: clamped, evicts all
    EXPECT_EQ(m.levelOf(0, 1), 2);
    EXPECT_EQ(m.levelOf(0, 2), 1);
    access(m, 0, 2, 5000); // and stays resident
    EXPECT_EQ(m.l1Hits(), 1u);
}

TEST(CacheLru, ResizeOnRetouch)
{
    mem::MemoryModel m = model(1024);
    access(m, 0, 1, 100);
    access(m, 0, 1, 300); // re-declared: occupies 300 bytes, not 400
    access(m, 0, 2, 724); // exactly fills the L1
    EXPECT_EQ(m.levelOf(0, 1), 1);
    EXPECT_EQ(m.levelOf(0, 2), 1);
    access(m, 0, 3, 1); // one byte over: evicts the LRU region 1
    EXPECT_EQ(m.levelOf(0, 1), 2);
    EXPECT_EQ(m.levelOf(0, 2), 1);
    access(m, 0, 3, 400); // a hit that grows evicts the LRU region 2
    EXPECT_EQ(m.levelOf(0, 2), 2);
    EXPECT_EQ(m.levelOf(0, 3), 1);
}

TEST(CacheLru, WriteFromAnotherCoreInvalidates)
{
    mem::MemoryModel m = model(1024, 2);
    access(m, 0, 7, 64);
    access(m, 1, 7, 64, true);
    EXPECT_EQ(m.levelOf(0, 7), 2);
    EXPECT_EQ(m.levelOf(1, 7), 1);
    access(m, 0, 7, 64); // core 0 misses its L1 and hits the L2
    EXPECT_EQ(m.l1Hits(), 0u);
    EXPECT_EQ(m.l2Hits(), 2u);
    EXPECT_EQ(m.levelOf(0, 7), 1);
}
