/**
 * @file
 * Per-core execution phase accounting, matching Figure 2's categories:
 * DEPS (task creation + finalization dependence management), SCHED
 * (scheduling/pool operations), EXEC (task bodies and sequential code),
 * IDLE (waiting for work).
 */

#ifndef TDM_CPU_PHASE_STATS_HH
#define TDM_CPU_PHASE_STATS_HH

#include <vector>

#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::cpu {

/** Execution phase of a thread. */
enum class Phase { Deps, Sched, Exec, Idle };

const char *toString(Phase p);

/** Accumulated ticks per phase. */
struct PhaseBreakdown
{
    sim::Tick deps = 0;
    sim::Tick sched = 0;
    sim::Tick exec = 0;
    sim::Tick idle = 0;

    sim::Tick total() const { return deps + sched + exec + idle; }
    sim::Tick busy() const { return deps + sched + exec; }

    double fraction(Phase p) const;

    PhaseBreakdown &operator+=(const PhaseBreakdown &o);
};

/**
 * Per-core phase time.
 */
class PhaseStats
{
  public:
    explicit PhaseStats(unsigned num_cores);

    void add(sim::CoreId core, Phase p, sim::Tick ticks);

    const PhaseBreakdown &core(sim::CoreId c) const { return per_[c]; }
    unsigned numCores() const {
        return static_cast<unsigned>(per_.size());
    }

    /** Breakdown of the master thread (core 0 by convention). */
    PhaseBreakdown master() const { return per_[0]; }

    /** Average breakdown over the worker threads (cores 1..N-1). */
    PhaseBreakdown workersTotal() const;

    /** Sum over all cores. */
    PhaseBreakdown chipTotal() const;

    /** Register master/workers/chip per-phase tick counters under
     *  @p ctx's scope ("cpu"). */
    void regMetrics(sim::MetricContext ctx);

  private:
    std::vector<PhaseBreakdown> per_;
};

} // namespace tdm::cpu

#endif // TDM_CPU_PHASE_STATS_HH
