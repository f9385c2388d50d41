/**
 * @file
 * Distributed hardware task queues with work stealing, as in Carbon
 * (Kumar et al., ISCA 2007): one hardware FIFO per core; a core pops
 * from its local queue and steals from the fullest remote queue when
 * empty. The policy is fixed FIFO + stealing — that fixedness is the
 * drawback TDM addresses.
 */

#ifndef TDM_HWBASELINES_HW_TASK_QUEUE_HH
#define TDM_HWBASELINES_HW_TASK_QUEUE_HH

#include <deque>
#include <optional>
#include <vector>

#include "runtime/scheduler.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::hw {

/**
 * The set of per-core hardware queues.
 */
class HwTaskQueues
{
  public:
    HwTaskQueues(unsigned num_cores, unsigned capacity_per_core);

    /** Enqueue on @p core's local queue. @return false if full. */
    bool push(sim::CoreId core, const rt::ReadyTask &task);

    /**
     * Enqueue on @p core, spilling to the least-loaded queue when the
     * local one is full (the real Carbon overflows to memory).
     * @return false only when every queue is full.
     */
    bool pushWithSpill(sim::CoreId core, const rt::ReadyTask &task);

    /** Pop from the local queue. */
    std::optional<rt::ReadyTask> popLocal(sim::CoreId core);

    /**
     * Steal: pop the oldest task of the fullest remote queue.
     * @param thief the stealing core (excluded from victims)
     */
    std::optional<rt::ReadyTask> steal(sim::CoreId thief);

    std::size_t totalSize() const;

    std::uint64_t pushes() const { return pushes_; }
    std::uint64_t localPops() const { return localPops_; }
    std::uint64_t steals() const { return steals_; }
    std::uint64_t failedSteals() const { return failedSteals_; }

    /** Register queue traffic metrics under @p ctx's scope
     *  ("runtime.hwq"). */
    void regMetrics(sim::MetricContext ctx);

  private:
    std::vector<std::deque<rt::ReadyTask>> queues_;
    unsigned capacity_;
    std::uint64_t pushes_ = 0, localPops_ = 0, steals_ = 0,
                  failedSteals_ = 0;
};

} // namespace tdm::hw

#endif // TDM_HWBASELINES_HW_TASK_QUEUE_HH
