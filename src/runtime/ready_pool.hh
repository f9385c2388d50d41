/**
 * @file
 * The software ready-task pool: a scheduler policy plus bookkeeping
 * counters. The machine model serializes access through the modelled
 * runtime lock; this class is the data structure underneath.
 */

#ifndef TDM_RUNTIME_READY_POOL_HH
#define TDM_RUNTIME_READY_POOL_HH

#include <memory>

#include "runtime/scheduler.hh"
#include "sim/metrics.hh"

namespace tdm::rt {

class ReadyPool
{
  public:
    explicit ReadyPool(std::unique_ptr<Scheduler> policy);

    void push(const ReadyTask &task);
    std::optional<ReadyTask> pop(sim::CoreId core);

    bool empty() const { return policy_->empty(); }
    std::size_t size() const { return policy_->size(); }

    const Scheduler &policy() const { return *policy_; }

    std::uint64_t pushes() const { return pushes_; }
    std::uint64_t pops() const { return pops_; }
    std::uint64_t emptyPops() const { return emptyPops_; }

    /** Register pool traffic metrics under @p ctx's scope
     *  ("runtime.pool"). */
    void regMetrics(sim::MetricContext ctx);

  private:
    std::unique_ptr<Scheduler> policy_;
    std::uint64_t pushes_ = 0, pops_ = 0, emptyPops_ = 0;
    std::size_t peak_ = 0;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_READY_POOL_HH
