#include "hwbaselines/hw_task_queue.hh"

#include "sim/logging.hh"

namespace tdm::hw {

HwTaskQueues::HwTaskQueues(unsigned num_cores, unsigned capacity_per_core)
    : queues_(num_cores), capacity_(capacity_per_core)
{
    if (num_cores == 0 || capacity_per_core == 0)
        sim::fatal("hw task queues: bad geometry");
}

bool
HwTaskQueues::push(sim::CoreId core, const rt::ReadyTask &task)
{
    if (queues_[core].size() >= capacity_)
        return false;
    queues_[core].push_back(task);
    ++pushes_;
    return true;
}

bool
HwTaskQueues::pushWithSpill(sim::CoreId core, const rt::ReadyTask &task)
{
    if (push(core, task))
        return true;
    std::size_t best = queues_.size();
    std::size_t best_len = capacity_;
    for (std::size_t c = 0; c < queues_.size(); ++c) {
        if (queues_[c].size() < best_len) {
            best = c;
            best_len = queues_[c].size();
        }
    }
    if (best == queues_.size())
        return false;
    return push(static_cast<sim::CoreId>(best), task);
}

std::optional<rt::ReadyTask>
HwTaskQueues::popLocal(sim::CoreId core)
{
    auto &q = queues_[core];
    if (q.empty())
        return std::nullopt;
    rt::ReadyTask t = q.front();
    q.pop_front();
    ++localPops_;
    return t;
}

std::optional<rt::ReadyTask>
HwTaskQueues::steal(sim::CoreId thief)
{
    std::size_t best = queues_.size();
    std::size_t best_len = 0;
    for (std::size_t c = 0; c < queues_.size(); ++c) {
        if (c == thief)
            continue;
        if (queues_[c].size() > best_len) {
            best = c;
            best_len = queues_[c].size();
        }
    }
    if (best == queues_.size()) {
        ++failedSteals_;
        return std::nullopt;
    }
    rt::ReadyTask t = queues_[best].front();
    queues_[best].pop_front();
    ++steals_;
    return t;
}

std::size_t
HwTaskQueues::totalSize() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

void
HwTaskQueues::regMetrics(sim::MetricContext ctx)
{
    ctx.counter("pushes", &pushes_, "tasks enqueued");
    ctx.counter("local_pops", &localPops_, "pops from the local queue");
    ctx.counter("steals", &steals_, "successful remote steals");
    ctx.counter("failed_steals", &failedSteals_,
                "steal attempts that found every queue empty");
    ctx.gauge("queued",
              [this] { return static_cast<double>(totalSize()); },
              "tasks currently queued across all cores");
}

} // namespace tdm::hw
