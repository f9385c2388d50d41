/**
 * @file
 * The Dependence Management Unit (Section III of the paper).
 *
 * Functional + timing model of the DMU: maintains the TAT/DAT alias
 * tables, Task and Dependence Tables, the three list arrays and the
 * Ready Queue, and executes the four ISA operations. Every SRAM access
 * a hardware implementation would perform (list walks cost one access
 * per chained entry) is recorded once, in a per-structure ledger
 * (DmuAccessCounts) that the energy model integrates. An operation
 * reports its growth of the ledger's total, which the machine
 * multiplies by the structure access latency to obtain the DMU
 * processing time.
 *
 * Capacity semantics follow Section III-D: an operation that needs an
 * unavailable entry blocks (no partial side effects here: the needed
 * resources are pre-checked exactly) until a finish_task frees space.
 * finish_task and get_ready_task never block, which guarantees forward
 * progress.
 */

#ifndef TDM_DMU_DMU_HH
#define TDM_DMU_DMU_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dmu/alias_table.hh"
#include "dmu/geometry.hh"
#include "dmu/list_array.hh"
#include "sim/fixed_ring.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace tdm::dmu {

/** One Task Table entry (Figure 4). */
struct TaskEntry
{
    std::uint64_t descAddr = 0;
    std::uint32_t predCount = 0;
    std::uint32_t succCount = 0;
    ListHead succList = invalidHwId;
    ListHead depList = invalidHwId;
    bool valid = false;

    /**
     * Set once the runtime has finished sending the task's dependences
     * (commit_task). A task whose predecessor count drops to zero
     * before it is committed must not enter the Ready Queue yet, or it
     * could be scheduled while its dependence list is still being
     * built.
     */
    bool committed = false;
};

/** One Dependence Table entry (Figure 4). */
struct DepEntry
{
    TaskHwId lastWriter = invalidHwId; ///< all-ones = invalid
    ListHead readerList = invalidHwId;
    bool valid = false;

    bool hasWriter() const { return lastWriter != invalidHwId; }
};

/**
 * A direct-mapped SRAM table indexed by internal id: the Task Table
 * and the Dependence Table. An entry is live between init() and
 * free(); live() is the occupancy the DMU's invariant checks read.
 */
template <typename Entry>
class EntryTable
{
  public:
    EntryTable(const char *name, unsigned entries)
        : name_(name), entries_(entries)
    {
    }

    Entry &
    operator[](std::size_t id)
    {
        if (id >= entries_.size())
            sim::panic(name_, ": id ", id, " out of range");
        return entries_[id];
    }

    const Entry &
    operator[](std::size_t id) const
    {
        if (id >= entries_.size())
            sim::panic(name_, ": id ", id, " out of range");
        return entries_[id];
    }

    /** Fill the free entry @p id with @p e and mark it live. */
    void
    init(std::size_t id, const Entry &e)
    {
        Entry &slot = (*this)[id];
        if (slot.valid)
            sim::panic(name_, ": double init of id ", id);
        slot = e;
        slot.valid = true;
        ++live_;
    }

    /** Invalidate the live entry @p id. */
    void
    free(std::size_t id)
    {
        Entry &slot = (*this)[id];
        if (!slot.valid)
            sim::panic(name_, ": free of invalid id ", id);
        slot.valid = false;
        --live_;
    }

    unsigned live() const { return live_; }
    unsigned capacity() const {
        return static_cast<unsigned>(entries_.size());
    }

  private:
    const char *name_;
    std::vector<Entry> entries_;
    unsigned live_ = 0;
};

/** Why an operation blocked. */
enum class BlockReason
{
    None,
    TatFull,     ///< TAT set conflict or no free task id
    DatFull,     ///< DAT set conflict or no free dependence id
    SlaFull,
    DlaFull,
    RlaFull,
};

const char *toString(BlockReason r);

/** The DMU's SRAM structures, in sramSpecs() order. */
enum class Sram { TaskTable, DepTable, Tat, Dat, Sla, Dla, Rla, ReadyQueue };

constexpr std::size_t numSrams = 8;

/** Cumulative SRAM accesses per structure (for the energy model). */
struct DmuAccessCounts
{
    std::array<std::uint64_t, numSrams> bySram{};

    std::uint64_t
    operator[](Sram s) const
    {
        return bySram[static_cast<std::size_t>(s)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t n : bySram)
            sum += n;
        return sum;
    }
};

/** Result of a DMU operation. */
struct DmuResult
{
    bool blocked = false;
    BlockReason reason = BlockReason::None;
    unsigned accesses = 0;

    /**
     * Descriptors of the tasks this operation moved into the Ready
     * Queue (commit_task, finish_task). A view of a buffer the Dmu
     * reuses: it stays valid until the next operation on the same Dmu.
     */
    std::span<const std::uint64_t> readyDescAddrs;
};

/** Payload of get_ready_task. */
struct ReadyTaskInfo
{
    std::uint64_t descAddr = 0;
    std::uint32_t numSuccessors = 0;
};

/**
 * The DMU model.
 */
class Dmu
{
  public:
    explicit Dmu(const DmuConfig &cfg);

    /**
     * create_task(task_desc). @p pid is the OS process tag of the
     * multiprogramming extension (Section III-D); single-process
     * callers use the default.
     */
    DmuResult createTask(std::uint64_t desc_addr, std::uint32_t pid = 0);

    /** add_dependence(task_desc, dep_addr, size, direction). */
    DmuResult addDependence(std::uint64_t desc_addr, std::uint64_t dep_addr,
                            std::uint64_t size_bytes, bool is_output,
                            std::uint32_t pid = 0);

    /**
     * commit_task(task_desc): the runtime signals that all of the
     * task's dependences have been registered. If the task has no
     * unresolved predecessors it enters the Ready Queue now. Never
     * blocks. (The paper folds this into the creation sequence; we
     * model it as an explicit cheap operation so that a task whose
     * first dependences are already satisfied cannot enter the Ready
     * Queue before its remaining ones are registered.)
     */
    DmuResult commitTask(std::uint64_t desc_addr, std::uint32_t pid = 0);

    /** finish_task(task_desc). Never blocks. */
    DmuResult finishTask(std::uint64_t desc_addr, std::uint32_t pid = 0);

    /**
     * get_ready_task() -> (task_desc, #succ). Never blocks.
     * @param accesses set to the SRAM accesses performed.
     */
    std::optional<ReadyTaskInfo> getReadyTask(unsigned &accesses);

    /** Tasks currently tracked. */
    unsigned tasksInFlight() const { return taskTable_.live(); }

    /** Dependences currently tracked. */
    unsigned depsInFlight() const { return depTable_.live(); }

    /** Ready tasks queued. */
    std::size_t readyCount() const { return readyQueue_.size(); }

    const DmuAccessCounts &accessCounts() const { return counts_; }

    const AliasTable &tat() const { return tat_; }
    const AliasTable &dat() const { return dat_; }
    const EntryTable<TaskEntry> &taskTable() const { return taskTable_; }
    const ListArray &sla() const { return sla_; }
    const ListArray &dla() const { return dla_; }
    const ListArray &rla() const { return rla_; }

    /** Successor count of an in-flight task (tests/verification). */
    std::uint32_t succCountOf(std::uint64_t desc_addr);

    /** Operations blocked on capacity (the dmu.blocked counter). */
    std::uint64_t blockedOps() const { return blockedOps_; }

    /** Register the DMU's metric tree under @p ctx's scope ("dmu"):
     *  operation/access counters plus tat/dat sub-scopes. */
    void regMetrics(sim::MetricContext ctx);

  private:
    /** Record @p n accesses to @p s: the only writer of counts_. */
    void
    touch(Sram s, unsigned n = 1)
    {
        counts_.bySram[static_cast<std::size_t>(s)] += n;
    }

    /** Accesses recorded since the ledger total was @p before. */
    unsigned
    accessesSince(std::uint64_t before) const
    {
        return static_cast<unsigned>(counts_.total() - before);
    }

    /** Count a capacity block and return its result. */
    DmuResult blocked(BlockReason reason);

    TaskHwId requireTask(std::uint64_t desc_addr, std::uint32_t pid);

    /** Enqueue @p id on the Ready Queue and record its descriptor in
     *  readyBuf_ (the op's DmuResult::readyDescAddrs). */
    void makeReady(TaskHwId id, std::uint64_t desc_addr);

    AliasTable tat_;
    AliasTable dat_;
    EntryTable<TaskEntry> taskTable_;
    EntryTable<DepEntry> depTable_;
    ListArray sla_;
    ListArray dla_;
    ListArray rla_;

    /** Ready Queue: the hardware FIFO of task ids whose predecessors
     *  are all satisfied, a fixed SRAM and so a fixed ring. */
    sim::FixedRing<TaskHwId> readyQueue_;

    DmuAccessCounts counts_;
    std::uint64_t statOps_ = 0;
    std::uint64_t blockedOps_ = 0;

    /**
     * Backing store of DmuResult::readyDescAddrs: one op readies each
     * task at most once, so Task Table capacity bounds it and it never
     * reallocates; readyLen_ counts the current op's entries.
     */
    std::vector<std::uint64_t> readyBuf_;
    std::size_t readyLen_ = 0;

    /**
     * Reusable (list head, push count) scratch for add_dependence's
     * exact SLA capacity pre-check. The handful of target lists per
     * operation makes a linear scan cheaper than the per-call
     * std::unordered_map this replaces — and allocation-free.
     */
    std::vector<std::pair<ListHead, unsigned>> pushScratch_;
};

} // namespace tdm::dmu

#endif // TDM_DMU_DMU_HH
