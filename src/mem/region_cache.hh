/**
 * @file
 * Region-granularity LRU cache model.
 *
 * Task working sets are described as dependence regions (base address +
 * size); tasks touch whole regions. Simulating line-level caches for
 * 42k tasks x 256 KB footprints is wasteful, so the memory model keeps an
 * LRU over *regions* with a byte-capacity budget. A region larger than
 * the capacity occupies the whole cache (and evicts everything else),
 * matching the streaming behaviour of a real cache at task granularity.
 *
 * The recency structure is an intrusive doubly-linked list threaded
 * through a contiguous slot slab, indexed by an open-addressed hash
 * table (linear probing, backward-shift deletion). A touch is a probe
 * plus a handful of index rewires — no node allocation, no pointer
 * chasing through heap-scattered std::list nodes. The slab and index
 * grow geometrically, so steady-state traffic performs zero heap
 * allocations; bench_micro_regioncache measures this against the old
 * std::list + iterator-map implementation kept there as the reference.
 */

#ifndef TDM_MEM_REGION_CACHE_HH
#define TDM_MEM_REGION_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/task.hh"

namespace tdm::mem {

/** Identifier of a data region: the task graph's dense 32-bit id. */
using RegionId = rt::RegionId;

/**
 * LRU set of regions bounded by total bytes.
 */
class RegionCache
{
  public:
    explicit RegionCache(std::uint64_t capacityBytes);

    /**
     * Touch a region: returns true if it was resident (hit). Allocates
     * it (possibly evicting LRU regions) either way. When @p evicted is
     * given, the ids of the regions evicted to make room are appended
     * to it, LRU first. The touched region itself is never evicted.
     */
    bool touch(RegionId id, std::uint64_t bytes,
               std::vector<RegionId> *evicted = nullptr);

    /** Probe without state change. */
    bool contains(RegionId id) const;

    /** Remove a region if present. @return true if it was resident. */
    bool invalidate(RegionId id);

    /** Drop everything. */
    void flush();

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t usedBytes() const { return used_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::size_t residentRegions() const { return live_; }

  private:
    static constexpr std::uint32_t npos = 0xffffffffu;

    /** One resident region, linked into the recency list by index. */
    struct Slot
    {
        std::uint64_t bytes;
        RegionId id;
        std::uint32_t prev; ///< toward MRU; npos at the head
        std::uint32_t next; ///< toward LRU; npos at the tail
    };

    /** One open-addressed index cell; slot == npos marks empty. */
    struct Cell
    {
        RegionId key;
        std::uint32_t slot;
    };

    std::size_t homeOf(RegionId id) const;
    /** Index cell holding @p id, or npos. */
    std::uint32_t findCell(RegionId id) const;
    void indexInsert(RegionId id, std::uint32_t slot);
    void indexErase(std::uint32_t cell);
    void growIndex();

    std::uint32_t allocSlot();
    void linkFront(std::uint32_t s);
    void unlink(std::uint32_t s);
    /** Unlink + index-erase + free the slot of a resident region. */
    void dropSlot(std::uint32_t s);
    void evictFor(std::uint64_t bytes, std::vector<RegionId> *evicted);

    std::uint64_t capacity_;
    std::uint64_t used_ = 0;

    std::vector<Slot> slots_;           ///< contiguous slab
    std::vector<std::uint32_t> free_;   ///< recycled slot indices
    std::uint32_t head_ = npos;         ///< most recently used
    std::uint32_t tail_ = npos;         ///< least recently used
    std::size_t live_ = 0;

    std::vector<Cell> cells_;           ///< power-of-two open table
    std::size_t mask_ = 0;

    std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

} // namespace tdm::mem

#endif // TDM_MEM_REGION_CACHE_HH
