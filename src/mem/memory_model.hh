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
 * Invalidation is directed by an exact sharer list per region: the set
 * of cores whose L1 currently holds it. An L1 miss adds the core, an L1
 * eviction (reported by RegionCache::touch) removes it, and a write
 * invalidates the region in the listed L1s only and leaves the writer
 * as the sole sharer. A write therefore costs O(sharers) rather than
 * O(cores), and the node count is bounded by total L1 residency. The
 * lists are singly linked through one node slab with a free list, with
 * one head index per region id (region ids are the task graph's dense
 * ids, so the head array is sized from the graph's region count).
 */

#ifndef TDM_MEM_MEMORY_MODEL_HH
#define TDM_MEM_MEMORY_MODEL_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mem/region_cache.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::mem {

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
    /** @p num_regions pre-sizes the per-region sharer index (pass the
     *  task graph's region count); a larger id grows it on first use. */
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

    const MemConfig &config() const { return cfg_; }

    /** Register hit/miss and line-traffic metrics under @p ctx's
     *  scope ("mem"). Counters read the live accounting directly, so
     *  snapshots taken mid-run see current values. */
    void regMetrics(sim::MetricContext ctx);

  private:
    static constexpr std::uint32_t npos = 0xffffffffu;

    /** One L1 holding a region, linked into that region's list. */
    struct Sharer
    {
        sim::CoreId core;
        std::uint32_t next; ///< next node of the list (or free list)
    };

    void addSharer(RegionId region, sim::CoreId core);
    void dropSharer(RegionId region, sim::CoreId core);
    /** Invalidate @p region in every listed L1 except @p writer's. */
    void invalidateSharers(RegionId region, sim::CoreId writer);
    /** True iff @p region's list is exactly the set of L1s holding it,
     *  without duplicates (checked by SIM_ASSERT only). */
    bool sharersExact(RegionId region) const;

    MemConfig cfg_;
    std::vector<std::unique_ptr<RegionCache>> l1_;
    RegionCache l2_;

    std::vector<std::uint32_t> sharerHead_; ///< per region id; npos: none
    std::vector<Sharer> sharers_;           ///< node slab
    std::uint32_t freeSharer_ = npos;       ///< free-list head
    std::vector<RegionId> evicted_;         ///< L1 touch scratch

    std::uint64_t l1Hits_ = 0, l1Misses_ = 0;
    std::uint64_t l2Hits_ = 0, l2Misses_ = 0;
    std::uint64_t l1LineAcc_ = 0, l2LineAcc_ = 0, dramLineAcc_ = 0;
};

} // namespace tdm::mem

#endif // TDM_MEM_MEMORY_MODEL_HH
