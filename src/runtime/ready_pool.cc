#include "runtime/ready_pool.hh"

#include "sim/logging.hh"

namespace tdm::rt {

ReadyPool::ReadyPool(std::unique_ptr<Scheduler> policy)
    : policy_(std::move(policy))
{
    if (!policy_)
        sim::fatal("ready pool needs a scheduling policy");
}

void
ReadyPool::push(const ReadyTask &task)
{
    policy_->push(task);
    ++pushes_;
    peak_ = std::max(peak_, policy_->size());
}

std::optional<ReadyTask>
ReadyPool::pop(sim::CoreId core)
{
    auto t = policy_->pop(core);
    if (t)
        ++pops_;
    else
        ++emptyPops_;
    return t;
}

void
ReadyPool::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("pushes", &pushes_, "tasks published to the pool");
    ctx.counter("pops", &pops_, "successful pool pops");
    ctx.counter("empty_pops", &emptyPops_,
                "pool pops that found no ready task");
    ctx.gauge("peak_size",
              [this] { return static_cast<double>(peak_); },
              "largest pool population observed");
}

} // namespace tdm::rt
