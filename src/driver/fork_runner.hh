/**
 * @file
 * Fork-group execution: one simulated trajectory per group of
 * experiments.
 *
 * The campaign engine groups points whose Warmup-phase spec
 * projections agree (see spec::KeyPhase / spec::warmFingerprint), so
 * members differ only in `power.*` keys, and hands each group to one
 * ForkGroupRunner. The runner simulates the first member cold, then
 * serves every further member with an equal fingerprint by
 * Machine::runFromFinal: the whole trajectory is shared and only
 * finalization re-runs under the member's power configuration.
 *
 * The trace buffer belongs to the trajectory, which later final forks
 * share, so every leg hands out a copy of it rather than moving it.
 *
 * Determinism contract: a forked member's RunSummary (makespan and the
 * full metric tree) is bit-for-bit identical to a cold run of the same
 * experiment; test_golden_determinism.cc pins this over every golden
 * configuration and every `power.*` key. The runner falls back to a
 * cold leg whenever the last trajectory cannot be shared (an
 * incomplete leader, a different fingerprint), so grouping is always
 * safe, merely sometimes unprofitable.
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
     * Run the next member. A member whose @p roi_key (its
     * spec::roiFingerprint) equals the last completed leg's is served
     * by a finalize fork; any other runs a cold leg. Sets @p forked
     * (when non-null) to whether the member was served from a fork
     * rather than a cold simulation.
     */
    RunSummary run(const Experiment &exp, const std::string &roi_key,
                   sim::TraceBuffer *trace_out, bool *forked);

    /** Drop the shared machine; the next member starts a fresh cold
     *  leg. Call after run() throws — the machine may be
     *  mid-trajectory. */
    void reset();

  private:
    RunSummary cold(const Experiment &exp, const std::string &roi_key,
                    sim::TraceBuffer *trace_out);

    std::shared_ptr<const rt::TaskGraph> graph_;
    bool enableFork_;
    std::unique_ptr<core::Machine> machine_;

    /** Fingerprint of the machine's trajectory (the last cold leg). */
    std::string finalRoiKey_;
};

} // namespace tdm::driver

#endif // TDM_DRIVER_FORK_RUNNER_HH
