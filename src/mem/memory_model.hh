/**
 * @file
 * Chip memory hierarchy model: per-core L1s, a shared L2, and DRAM,
 * all at region granularity.
 *
 * A task's memory time is computed when it starts executing: every
 * dependence region is classified as L1 / L2 / DRAM resident and charged
 *   lines(region) * latency(level) / memLevelParallelism
 * cycles. The L1s are write-invalidate, which is what makes
 * locality-aware scheduling profitable (a consumer scheduled on the
 * producer's core hits in L1; elsewhere it pays an L2 access).
 *
 * Each cache is an LRU set of regions bounded by bytes. Task working
 * sets are whole dependence regions, so the model keeps recency over
 * regions rather than lines: a region larger than the cache occupies
 * all of it (and evicts everything else), like a streaming footprint.
 *
 * Residency lives in one table of Line records: a Line is one region
 * held by one cache (the L1s are caches 0..cores-1, the L2 is cache
 * `cores`). Every line sits on its cache's doubly linked recency list;
 * an L1 line also sits on its region's singly linked sharer list, so
 * the set of L1s holding a region is exactly that list. An L2 lookup
 * is direct by region id; an L1 lookup walks the region's sharers. An
 * L1 eviction unlinks the line from its sharer list at once, and a
 * write frees the other sharers' lines, leaving the writer as the only
 * sharer: a write costs O(sharers), not O(cores).
 */

#ifndef TDM_MEM_MEMORY_MODEL_HH
#define TDM_MEM_MEMORY_MODEL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/task.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::mem {

/** Identifier of a data region: the task graph's dense 32-bit id. */
using RegionId = rt::RegionId;

/** One region access performed by a task. */
struct MemAccess
{
    RegionId region = 0;
    std::uint64_t bytes = 0;
    bool write = false;
};

/** Memory hierarchy parameters (defaults follow the paper's Table I). */
struct MemConfig
{
    std::uint64_t l1Bytes = 32 * 1024;       ///< per-core data L1
    std::uint64_t l2Bytes = 4 * 1024 * 1024; ///< shared L2
    unsigned lineBytes = 64;
    unsigned l1HitCycles = 2;
    unsigned l2HitCycles = 14;
    unsigned dramCycles = 110;
    /** Effective memory-level parallelism for streaming task footprints. */
    double mlp = 8.0;
};

/**
 * The full hierarchy. Deterministic and purely functional: all methods
 * return cycle costs; the caller integrates them into the event timeline.
 */
class MemoryModel
{
  public:
    /** @p num_regions pre-sizes the per-region index (pass the task
     *  graph's region count); a larger id grows it on first use. */
    MemoryModel(const MemConfig &cfg, unsigned num_cores,
                std::size_t num_regions = 0);

    /**
     * Charge a task's working set touched from @p core.
     * Updates residency state and returns the stall cycles.
     */
    sim::Tick taskAccessTime(sim::CoreId core,
                             std::span<const MemAccess> accesses);

    /** Classify a region for @p core without modifying state: 1/2/3. */
    int levelOf(sim::CoreId core, RegionId region) const;

    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l1Misses() const { return l1Misses_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t l2Misses() const { return l2Misses_; }

    /** Line-grain access counts, for the energy model. */
    std::uint64_t l1LineAccesses() const { return l1LineAcc_; }
    std::uint64_t l2LineAccesses() const { return l2LineAcc_; }
    std::uint64_t dramLineAccesses() const { return dramLineAcc_; }

    /** Register hit/miss and line-traffic metrics under @p ctx's
     *  scope ("mem"). Counters read the live accounting directly, so
     *  snapshots taken mid-run see current values. */
    void regMetrics(sim::MetricContext ctx);

  private:
    static constexpr std::uint32_t npos = 0xffffffffu;

    /** One region held by one cache. */
    struct Line
    {
        std::uint64_t bytes;  ///< effective size: min(declared, capacity)
        RegionId region;
        std::uint32_t cache;  ///< core id, or numCores for the L2
        std::uint32_t prev;   ///< toward MRU; npos at the head
        std::uint32_t next;   ///< toward LRU (or free list); npos at tail
        std::uint32_t sharer; ///< next L1 line of the region; npos: last
    };

    /** One cache's recency list and occupancy. */
    struct Cache
    {
        std::uint32_t head = npos; ///< most recently used
        std::uint32_t tail = npos; ///< least recently used
        std::uint64_t used = 0;
    };

    /** Where a region is held. */
    struct Region
    {
        std::uint32_t l1 = npos; ///< first line of the sharer list
        std::uint32_t l2 = npos; ///< the L2's line
    };

    /** Cache index of the L2 (the L1s are 0..cores-1). */
    std::uint32_t
    l2Cache() const
    {
        return static_cast<std::uint32_t>(caches_.size() - 1);
    }
    std::uint64_t
    capacityOf(std::uint32_t cache) const
    {
        return cache == l2Cache() ? cfg_.l2Bytes : cfg_.l1Bytes;
    }
    /** @p core's line of @p region, or npos. */
    std::uint32_t findL1(sim::CoreId core, RegionId region) const;

    /**
     * Touch @p region in @p cache (whose line of it is @p line, or
     * npos): a hit re-declares its size and makes it MRU, a miss
     * inserts it at MRU. Evicts from the LRU end to make room, never
     * the touched region itself. @return true on a hit.
     */
    bool touch(std::uint32_t cache, std::uint32_t line, RegionId region,
               std::uint64_t bytes);
    /** Evict LRU lines of @p cache until @p bytes more fit. */
    void evictFor(std::uint32_t cache, std::uint64_t bytes);
    void linkFront(std::uint32_t line);
    void unlink(std::uint32_t line);
    /** Take @p line off its cache and free it; the caller has already
     *  unlinked it from its region. */
    void release(std::uint32_t line);
    /** Free every L1 line of @p region except @p writer's. */
    void invalidateSharers(RegionId region, sim::CoreId writer);

    MemConfig cfg_;
    std::vector<Line> lines_;
    std::uint32_t freeLine_ = npos; ///< free-list head, through next
    std::vector<Cache> caches_;     ///< per core, then the L2
    std::vector<Region> regions_;   ///< per region id

    std::uint64_t l1Hits_ = 0, l1Misses_ = 0;
    std::uint64_t l2Hits_ = 0, l2Misses_ = 0;
    std::uint64_t l1LineAcc_ = 0, l2LineAcc_ = 0, dramLineAcc_ = 0;
};

} // namespace tdm::mem

#endif // TDM_MEM_MEMORY_MODEL_HH
