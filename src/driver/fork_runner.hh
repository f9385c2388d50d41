/**
 * @file
 * Fork-group execution: one simulated run per group of experiments.
 *
 * The campaign engine groups points whose Warmup-phase spec
 * projections agree (see spec::KeyPhase / spec::warmFingerprint), so
 * members differ only in `power.*` keys, and hands each group to one
 * ForkGroupRunner. The runner simulates the first member cold and
 * keeps its RunSummary and trace. Every further member with an equal
 * fingerprint is a finalize fork: a copy of that leader's metric tree
 * re-priced under the member's power configuration
 * (pwr::EnergyAccountant::reprice) and rebuilt with summaryOf. No
 * machine is kept and none runs twice; a fork re-computes only
 * `power.energy_j`, `power.edp` and `power.avg_watts`.
 *
 * The trace belongs to the leader's run, which later forks share, so
 * every leg hands out a copy of it.
 *
 * Determinism contract: a forked member's RunSummary (makespan and the
 * full metric tree) is bit-for-bit identical to a cold run of the same
 * experiment; test_golden_determinism.cc and test_warm_fork.cc pin
 * this over every `power.*` key on all four runtimes. The runner runs
 * a member cold whenever the leader cannot be shared (an incomplete
 * leader, a different fingerprint), so grouping is always safe,
 * merely sometimes unprofitable.
 */

#ifndef TDM_DRIVER_FORK_RUNNER_HH
#define TDM_DRIVER_FORK_RUNNER_HH

#include <memory>
#include <optional>
#include <string>

#include "driver/experiment.hh"

namespace tdm::driver {

/** Runs the members of one fork group; not thread-safe (the engine
 *  gives each group to exactly one worker). */
class ForkGroupRunner
{
  public:
    /**
     * @param graph      shared task graph of the group, or null (the
     *                   first cold leg builds one)
     * @param enableFork false degrades every member to a plain cold
     *                   driver::run() (singleton groups,
     *                   EngineOptions::warmFork off)
     */
    explicit ForkGroupRunner(std::shared_ptr<const rt::TaskGraph> graph,
                             bool enableFork = true);

    /**
     * Run the next member. A member whose @p roi_key (its
     * spec::roiFingerprint) equals the last completed cold leg's is a
     * finalize fork of it; any other runs a cold leg. Sets @p forked
     * (when non-null) to whether the member was served from a fork
     * rather than a cold simulation.
     */
    RunSummary run(const Experiment &exp, const std::string &roi_key,
                   sim::TraceBuffer *trace_out, bool *forked);

    /** Drop the leader; the next member starts a fresh cold leg. Call
     *  after run() throws. */
    void reset();

  private:
    std::shared_ptr<const rt::TaskGraph> graph_;
    bool enableFork_;

    /** The last cold leg, kept only when it completed, its trace and
     *  its fingerprint. */
    std::optional<RunSummary> leader_;
    sim::TraceBuffer trace_;
    std::string leaderKey_;
};

} // namespace tdm::driver

#endif // TDM_DRIVER_FORK_RUNNER_HH
