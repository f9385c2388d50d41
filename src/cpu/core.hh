/**
 * @file
 * The serialized-resource helper the machine model uses for the runtime
 * lock and the DMU's sequential operation processing.
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

} // namespace tdm::cpu

#endif // TDM_CPU_CORE_HH
