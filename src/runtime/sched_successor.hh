/**
 * @file
 * Successor (criticality) scheduler (Section VI): tasks whose successor
 * count exceeds a threshold go to a high-priority queue; threads check
 * the high-priority queue first. Both queues are FIFO.
 */

#ifndef TDM_RUNTIME_SCHED_SUCCESSOR_HH
#define TDM_RUNTIME_SCHED_SUCCESSOR_HH

#include <deque>

#include "runtime/scheduler.hh"

namespace tdm::rt {

class SuccessorScheduler : public Scheduler
{
  public:
    explicit SuccessorScheduler(std::uint32_t threshold)
        : threshold_(threshold)
    {}

    const char *name() const override { return "successor"; }

    void
    push(const ReadyTask &task) override
    {
        if (task.numSuccessors > threshold_)
            high_.push_back(task);
        else
            low_.push_back(task);
    }

    std::optional<ReadyTask>
    pop(sim::CoreId) override
    {
        if (!high_.empty()) {
            ReadyTask t = high_.front();
            high_.pop_front();
            return t;
        }
        if (!low_.empty()) {
            ReadyTask t = low_.front();
            low_.pop_front();
            return t;
        }
        return std::nullopt;
    }

    bool empty() const override { return high_.empty() && low_.empty(); }
    std::size_t size() const override { return high_.size() + low_.size(); }

    sim::Tick pushExtraCycles() const override { return 20; }

  private:
    std::uint32_t threshold_;
    std::deque<ReadyTask> high_;
    std::deque<ReadyTask> low_;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_SCHED_SUCCESSOR_HH
