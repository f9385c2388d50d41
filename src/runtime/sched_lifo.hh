/**
 * @file
 * LIFO scheduler: the most recently readied task runs first.
 */

#ifndef TDM_RUNTIME_SCHED_LIFO_HH
#define TDM_RUNTIME_SCHED_LIFO_HH

#include <vector>

#include "runtime/scheduler.hh"

namespace tdm::rt {

class LifoScheduler : public Scheduler
{
  public:
    const char *name() const override { return "lifo"; }

    void push(const ReadyTask &task) override { stack_.push_back(task); }

    std::optional<ReadyTask>
    pop(sim::CoreId) override
    {
        if (stack_.empty())
            return std::nullopt;
        ReadyTask t = stack_.back();
        stack_.pop_back();
        return t;
    }

    bool empty() const override { return stack_.empty(); }
    std::size_t size() const override { return stack_.size(); }

  private:
    std::vector<ReadyTask> stack_;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_SCHED_LIFO_HH
