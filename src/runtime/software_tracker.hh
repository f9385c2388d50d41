/**
 * @file
 * Software dependence tracker — the functional reference for the
 * runtime-managed TDG (what Nanos++ does in software).
 *
 * Semantics intentionally mirror the DMU's Algorithms 1 and 2 at region
 * granularity, so the equivalence property tests can compare the two
 * implementations op by op: same readiness events in the same order.
 *
 * Every operation also reports the observable work a software runtime
 * performs (map lookups, reader scans, fragmented-region splits), which
 * the cost model converts into cycles.
 */

#ifndef TDM_RUNTIME_SOFTWARE_TRACKER_HH
#define TDM_RUNTIME_SOFTWARE_TRACKER_HH

#include <cstdint>
#include <vector>

#include "runtime/task.hh"
#include "runtime/task_graph.hh"
#include "sim/metrics.hh"

namespace tdm::rt {

/** Work performed while registering one task's dependences. */
struct TrackerCreateWork
{
    unsigned depLookups = 0;    ///< region-map lookups
    unsigned edgeInserts = 0;   ///< TDG edge insertions
    unsigned readerScans = 0;   ///< readers visited by WAR scans
    unsigned fragmentSplits = 0;///< region-map splits (fragmented deps)
    bool readyNow = false;      ///< no unresolved predecessors
};

/** Work performed while retiring a task. */
struct TrackerFinishWork
{
    std::vector<TaskId> newlyReady; ///< in wake-up order
    unsigned succVisits = 0;
    unsigned depVisits = 0;
};

/**
 * The tracker. Owns the in-flight dependence state of one parallel
 * region at a time; resetRegion() is called at barriers.
 */
class SoftwareTracker
{
  public:
    explicit SoftwareTracker(const TaskGraph &graph);

    /** Register a task (program order) and all of its dependences. */
    TrackerCreateWork create(TaskId id);

    /** Retire a finished task, waking successors. */
    TrackerFinishWork finish(TaskId id);

    /** Forget all dependence state (global synchronization point). */
    void resetRegion();

    /** Number of unresolved predecessors of an in-flight task. */
    std::uint32_t predCount(TaskId id) const { return numPreds_[id]; }

    /** Current successors of an in-flight task. */
    const std::vector<TaskId> &successors(TaskId id) const {
        return succs_[id];
    }

    std::uint32_t succCount(TaskId id) const {
        return static_cast<std::uint32_t>(succs_[id].size());
    }

    /** Tasks created but not yet finished. */
    unsigned inFlight() const { return inFlight_; }

    /** Register the tracker's cumulative work counters under @p ctx's
     *  scope ("runtime.tracker"). */
    void regMetrics(sim::MetricContext ctx);

  private:
    struct RegState
    {
        TaskId lastWriter = invalidTask;
        std::vector<TaskId> readers;
    };

    const TaskGraph *graph_; ///< immutable and shared; copies share it
    std::vector<RegState> regState_;
    std::vector<std::uint32_t> numPreds_;
    std::vector<std::vector<TaskId>> succs_;
    std::vector<bool> created_;
    std::vector<bool> finished_;
    unsigned inFlight_ = 0;

    // Cumulative work, integrated over per-op TrackerCreateWork /
    // TrackerFinishWork results (those stay per-op for the cost model).
    std::uint64_t creates_ = 0, finishes_ = 0;
    std::uint64_t depLookups_ = 0, edgeInserts_ = 0, readerScans_ = 0,
                  fragmentSplits_ = 0, succVisits_ = 0, depVisits_ = 0;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_SOFTWARE_TRACKER_HH
