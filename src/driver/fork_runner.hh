/**
 * @file
 * Warm-start fork-group execution: one shared warmup (or whole
 * trajectory) leg per group of experiments.
 *
 * The campaign engine groups points whose Warmup-phase spec
 * projections agree (see spec::KeyPhase / spec::warmFingerprint) and
 * hands each group to one ForkGroupRunner. The runner simulates the
 * first member cold with fork capture armed, then serves every further
 * member from the same machine:
 *
 *  - equal ROI fingerprint (the member differs only in `power.*`
 *    keys): Machine::runFromFinal — the last completed trajectory is
 *    shared, only finalization re-runs;
 *  - otherwise: Machine::runFromWarm — the machine's run state is
 *    assigned back from its warmup/ROI checkpoint (a by-value copy)
 *    and the ROI re-simulates under the member's `mem.*`
 *    configuration.
 *
 * The trace buffer belongs to the trajectory, which later final forks
 * share, so every leg hands out a copy of it rather than moving it.
 *
 * Determinism contract: a forked member's RunSummary (makespan and the
 * full metric tree) is bit-for-bit identical to a cold run of the same
 * experiment; test_golden_determinism.cc pins this over every golden
 * configuration. The runner degrades to a cold leg whenever no fork is
 * available (a graph that never dispatches a task, an incomplete
 * leader), so grouping is always safe, merely sometimes unprofitable.
 */

#ifndef TDM_DRIVER_FORK_RUNNER_HH
#define TDM_DRIVER_FORK_RUNNER_HH

#include <memory>
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
     *                   --no-warm-fork)
     */
    explicit ForkGroupRunner(std::shared_ptr<const rt::TaskGraph> graph,
                             bool enableFork = true);

    /**
     * Run the next member. Members must arrive with equal ROI
     * fingerprints adjacent (the engine sorts each group by
     * @p roi_key) so finalize-level forks chain. Sets @p forked (when
     * non-null) to whether the member was served from a fork rather
     * than a cold simulation.
     */
    RunSummary run(const Experiment &exp, const std::string &roi_key,
                   sim::TraceBuffer *trace_out, bool *forked);

    /** Drop the shared machine; the next member starts a fresh cold
     *  leg. Call after run() throws — the machine may be mid-restore. */
    void reset();

  private:
    RunSummary cold(const Experiment &exp, const std::string &roi_key,
                    sim::TraceBuffer *trace_out);

    std::shared_ptr<const rt::TaskGraph> graph_;
    bool enableFork_;
    std::unique_ptr<core::Machine> machine_;

    /** ROI fingerprint of the machine's last trajectory (the last
     *  cold or warm-forked leg). */
    std::string finalRoiKey_;
};

} // namespace tdm::driver

#endif // TDM_DRIVER_FORK_RUNNER_HH
