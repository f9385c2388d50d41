/**
 * @file
 * Locality-aware scheduler (Section VI): when a task finishes on a core
 * and readies a successor, that successor is preferred by the same core
 * so it finds its inputs in the local cache. Cores fall back to the
 * global FIFO queue, and finally to stealing another core's local list.
 *
 * Ordering within a local list follows the cache-temperature rationale
 * of Section VI: the owner pops its *newest* successor (whose inputs
 * were produced most recently and are hottest in the local cache),
 * while a thief takes the victim's *oldest* entry (coldest, and hence
 * cheapest to migrate to another core).
 */

#ifndef TDM_RUNTIME_SCHED_LOCALITY_HH
#define TDM_RUNTIME_SCHED_LOCALITY_HH

#include <deque>
#include <vector>

#include "runtime/scheduler.hh"

namespace tdm::rt {

class LocalityScheduler : public Scheduler
{
  public:
    explicit LocalityScheduler(unsigned num_cores)
        : perCore_(num_cores)
    {}

    const char *name() const override { return "locality"; }

    void push(const ReadyTask &task) override;
    std::optional<ReadyTask> pop(sim::CoreId core) override;

    bool empty() const override { return size_ == 0; }
    std::size_t size() const override { return size_; }

    sim::Tick pushExtraCycles() const override { return 30; }
    sim::Tick popExtraCycles() const override { return 40; }

  private:
    /** Dequeue the oldest entry (front) of @p q. */
    std::optional<ReadyTask> takeOldest(std::deque<ReadyTask> &q);

    /** Dequeue the newest entry (back) of @p q. */
    std::optional<ReadyTask> takeNewest(std::deque<ReadyTask> &q);

    std::vector<std::deque<ReadyTask>> perCore_;
    std::deque<ReadyTask> global_;
    std::size_t size_ = 0;
};

} // namespace tdm::rt

#endif // TDM_RUNTIME_SCHED_LOCALITY_HH
