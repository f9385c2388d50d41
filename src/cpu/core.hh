/**
 * @file
 * Core-side state of the machine model: the runtime state machine each
 * hardware thread runs, plus the serialized-resource helper used to
 * model the runtime lock and the DMU's sequential operation processing.
 */

#ifndef TDM_CPU_CORE_HH
#define TDM_CPU_CORE_HH

#include <cstdint>

#include "sim/types.hh"

namespace tdm::cpu {

/**
 * A resource that serves one request at a time (runtime lock, DMU
 * pipeline). Callers reserve an interval; the returned completion time
 * includes queueing delay.
 */
class SerialResource
{
  public:
    /**
     * Reserve the resource for @p duration ticks, starting no earlier
     * than @p earliest. @return the completion tick.
     */
    sim::Tick
    acquire(sim::Tick earliest, sim::Tick duration)
    {
        sim::Tick start = earliest > busyUntil_ ? earliest : busyUntil_;
        busyUntil_ = start + duration;
        return busyUntil_;
    }

  private:
    sim::Tick busyUntil_ = 0;
};

/** Runtime state of one core. */
struct CoreState
{
    bool idle = false;
    sim::Tick idleSince = 0;

    /** Tasks this core has executed. */
    std::uint64_t tasksRun = 0;

    /** Park the core at tick @p now. */
    void
    parkAt(sim::Tick now)
    {
        idle = true;
        idleSince = now;
    }

    /**
     * Resume the core at tick @p now.
     * @return the ticks spent idle (for phase accounting).
     */
    sim::Tick
    wakeAt(sim::Tick now)
    {
        idle = false;
        return now - idleSince;
    }
};

} // namespace tdm::cpu

#endif // TDM_CPU_CORE_HH
