/**
 * @file
 * Warm-start fork-group execution: one shared warmup (or whole
 * trajectory) leg per group of experiments.
 *
 * The campaign engine groups points whose Warmup-phase spec
 * projections agree (see spec::KeyPhase / spec::warmFingerprint) and
 * hands each group to one ForkGroupRunner. The runner simulates the
 * first member cold with fork capture armed, then serves every further
 * member from the machine's snapshots:
 *
 *  - equal ROI fingerprint (the member differs only in `power.*`
 *    keys): Machine::runFromFinal — the entire simulated trajectory is
 *    shared, only finalization re-runs;
 *  - otherwise: Machine::runFromWarm — the warmup prefix is shared,
 *    the ROI re-simulates under the member's `mem.*` configuration.
 *
 * Determinism contract: a forked member's RunSummary (makespan and the
 * full metric tree) is bit-for-bit identical to a cold run of the same
 * experiment; test_golden_determinism.cc pins this over every golden
 * configuration. The machine degrades to a cold leg whenever a
 * snapshot is unavailable (a graph that never dispatches a task, an
 * incomplete leader), so grouping is always safe, merely sometimes
 * unprofitable.
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
     * non-null) to whether the member was served from a snapshot
     * rather than a cold simulation.
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

    /** ROI fingerprint of the trajectory in the machine's final
     *  snapshot (the last cold or warm-forked leg). */
    std::string finalRoiKey_;
};

} // namespace tdm::driver

#endif // TDM_DRIVER_FORK_RUNNER_HH
