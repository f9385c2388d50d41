/**
 * @file
 * The application-level task dependence graph (TDG).
 *
 * A workload builds a TaskGraph: it declares data regions (with realistic
 * virtual base addresses, since the DMU's DAT indexes on address bits),
 * opens parallel regions, and creates tasks with dependence annotations
 * in program order. The graph also derives, via sequential reference
 * semantics, the ground-truth dependence edges that both the software
 * tracker and the DMU must reproduce.
 */

#ifndef TDM_RUNTIME_TASK_GRAPH_HH
#define TDM_RUNTIME_TASK_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/task.hh"
#include "sim/types.hh"

namespace tdm::rt {

/** A data region the program declares dependences on. */
struct DataRegion
{
    std::uint64_t baseAddr = 0;
    std::uint64_t bytes = 0;
};

/** A parallel region: tasks between two global synchronization points. */
struct ParallelRegion
{
    std::uint32_t firstTask = 0;
    std::uint32_t numTasks = 0;
    /** Sequential (master-only) cycles executed before the region. */
    sim::Tick prologueCycles = 0;
};

/** Ground-truth edges derived from program order. */
struct TdgEdges
{
    /** successors[t] = tasks that must wait for t (deduplicated). */
    std::vector<std::vector<TaskId>> successors;
    /** Number of predecessors of each task. */
    std::vector<std::uint32_t> numPreds;
    /** Total number of edges. */
    std::uint64_t edgeCount = 0;
};

/**
 * A complete benchmark task graph.
 */
class TaskGraph
{
  public:
    /**
     * Descriptor-address stride: task i's descriptor lives at
     * firstDescAddr + i * descStride (createTask mimics a bump
     * allocator). Consumers exploit the affine layout to map a
     * descriptor address back to its TaskId with arithmetic instead of
     * a hash lookup.
     */
    static constexpr std::uint64_t descStride = 0x140;

    explicit TaskGraph(std::string name);

    const std::string &name() const { return name_; }

    /**
     * Declare a data region of @p bytes; regions are laid out
     * contiguously in a virtual address space, mimicking blocked array
     * storage (consecutive tiles at size-strided addresses).
     */
    RegionId addRegion(std::uint64_t bytes);

    /** Open a new parallel region. */
    void beginParallel(sim::Tick prologue_cycles = 0);

    /** Create a task; returns a reference valid until the next create. */
    Task &createTask(sim::Tick compute_cycles, std::uint16_t kernel = 0);

    /** Add a dependence to the most recently created task. */
    void dep(RegionId region, DepDir dir, bool fragmented = false);

    const std::vector<Task> &tasks() const { return tasks_; }
    const std::vector<DataRegion> &regions() const { return regions_; }
    const std::vector<ParallelRegion> &parallelRegions() const {
        return parRegions_;
    }

    const Task &task(TaskId id) const { return tasks_[id]; }
    const DataRegion &region(RegionId id) const { return regions_[id]; }

    std::uint32_t numTasks() const {
        return static_cast<std::uint32_t>(tasks_.size());
    }

    /** Sum of all task compute cycles. */
    sim::Tick totalComputeCycles() const;

    /** Mean task compute time in microseconds. */
    double avgTaskUs() const;

    /**
     * Derive the ground-truth TDG edges with sequential reference
     * semantics (RAW, WAR, WAW on whole regions), program order.
     */
    TdgEdges buildEdges() const;

    /**
     * Length of the critical path through the TDG in cycles
     * (compute time only). Lower bound on any schedule.
     */
    sim::Tick criticalPathCycles() const;

    /**
     * Maximum number of simultaneously in-flight tasks needed so that
     * no task is created before its region's barrier. Used by capacity
     * sizing tests.
     */
    std::uint32_t maxTasksInRegion() const;

    /** Per-benchmark multiplier on software dependence-matching cost. */
    double swDepCostFactor = 1.0;

  private:
    std::string name_;
    std::vector<Task> tasks_;
    std::vector<DataRegion> regions_;
    std::vector<ParallelRegion> parRegions_;
    std::uint64_t nextAddr_ = 0x100000000ULL; // region allocator cursor
    std::uint64_t nextDescAddr_ = 0x8ab000000000ULL;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_TASK_GRAPH_HH
