/**
 * @file
 * Age scheduler (Section VI): among ready tasks, the one created
 * earliest runs first. Differs from FIFO because readiness order is not
 * creation order.
 */

#ifndef TDM_RUNTIME_SCHED_AGE_HH
#define TDM_RUNTIME_SCHED_AGE_HH

#include <queue>
#include <vector>

#include "runtime/scheduler.hh"

namespace tdm::rt {

class AgeScheduler : public Scheduler
{
  public:
    const char *name() const override { return "age"; }

    void push(const ReadyTask &task) override { heap_.push(task); }

    std::optional<ReadyTask>
    pop(sim::CoreId) override
    {
        if (heap_.empty())
            return std::nullopt;
        ReadyTask t = heap_.top();
        heap_.pop();
        return t;
    }

    bool empty() const override { return heap_.empty(); }
    std::size_t size() const override { return heap_.size(); }

    /** Heap maintenance is costlier than a deque. */
    sim::Tick pushExtraCycles() const override { return 60; }
    sim::Tick popExtraCycles() const override { return 60; }

  private:
    struct Older
    {
        bool
        operator()(const ReadyTask &a, const ReadyTask &b) const
        {
            return a.creationSeq > b.creationSeq;
        }
    };

    std::priority_queue<ReadyTask, std::vector<ReadyTask>, Older> heap_;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_SCHED_AGE_HH
