/**
 * @file
 * FIFO scheduler: tasks run in the order they became ready.
 */

#ifndef TDM_RUNTIME_SCHED_FIFO_HH
#define TDM_RUNTIME_SCHED_FIFO_HH

#include <deque>

#include "runtime/scheduler.hh"

namespace tdm::rt {

class FifoScheduler : public Scheduler
{
  public:
    const char *name() const override { return "fifo"; }

    void push(const ReadyTask &task) override { q_.push_back(task); }

    std::optional<ReadyTask>
    pop(sim::CoreId) override
    {
        if (q_.empty())
            return std::nullopt;
        ReadyTask t = q_.front();
        q_.pop_front();
        return t;
    }

    bool empty() const override { return q_.empty(); }
    std::size_t size() const override { return q_.size(); }

  private:
    std::deque<ReadyTask> q_;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_SCHED_FIFO_HH
