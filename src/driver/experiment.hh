/**
 * @file
 * Experiment driver: builds a workload, a machine and a runtime model,
 * runs the simulation, and summarizes the metrics the paper reports.
 */

#ifndef TDM_DRIVER_EXPERIMENT_HH
#define TDM_DRIVER_EXPERIMENT_HH

#include <memory>
#include <string>

#include "core/machine.hh"
#include "cpu/machine_config.hh"
#include "workloads/registry.hh"

namespace tdm::driver {

/**
 * One experiment = workload x runtime x scheduler x machine config.
 *
 * The scheduling policy lives in config.scheduler — the Machine reads
 * it from there, and the spec API binds it as the single `scheduler`
 * key. (It used to be duplicated as a second Experiment field that
 * run() stitched over the config one.)
 */
struct Experiment
{
    std::string workload = "cholesky";
    wl::WorkloadParams params{};
    core::RuntimeType runtime = core::RuntimeType::Software;
    cpu::MachineConfig config{};
};

/**
 * Summary of one run: a thin typed view over the run's metric tree.
 *
 * The scalar fields below are populated from machine.metrics in run()
 * (one place), so the MetricSet — not this struct — is the source of
 * truth that flows through the campaign engine, the result cache and
 * the JSON/CSV writers. New measured quantities surface through the
 * metric registry without touching this struct.
 */
struct RunSummary
{
    bool completed = false;
    sim::Tick makespan = 0;
    double timeMs = 0.0;
    double energyJ = 0.0;
    double edp = 0.0;
    double avgWatts = 0.0;

    std::uint32_t numTasks = 0;
    double avgTaskUs = 0.0;

    core::MachineResult machine{};

    /** The run's full flattened metric tree ("dmu.tat.hits", ...,
     *  plus "workload.*" keys and "window.{warmup,roi,drain}.*"). */
    const sim::MetricSet &metrics() const { return machine.metrics; }
};

/**
 * Run one experiment. When the runtime uses the DMU, params.tdmOptimal
 * is implied for default granularities unless explicitly set by the
 * caller.
 */
RunSummary run(const Experiment &exp);

/**
 * Run one experiment on a pre-built shared graph (the campaign
 * engine's hot path: each distinct graph is built once per campaign
 * and shared read-only across worker threads, see driver::GraphCache).
 * @p graph must be the graph @p exp would build — i.e. built from
 * effectiveParams(exp); null falls back to building one. The summary
 * is byte-identical either way.
 */
RunSummary run(const Experiment &exp,
               std::shared_ptr<const rt::TaskGraph> graph);

/**
 * As above, additionally moving the run's time-resolved trace into
 * @p trace_out (see sim/trace.hh; empty unless exp.config.trace
 * enables categories). The summary is identical with or without
 * @p trace_out — capture is a move, not a re-run.
 */
RunSummary run(const Experiment &exp,
               std::shared_ptr<const rt::TaskGraph> graph,
               sim::TraceBuffer *trace_out);

/**
 * Build a RunSummary from a finished machine result: folds the
 * workload-shape facts of @p graph into the metric tree and populates
 * the typed scalar views. The tail of run(), shared with the
 * warm-start ForkGroupRunner so forked and cold summaries are built by
 * the same code.
 */
RunSummary summarize(core::MachineResult mr, const rt::TaskGraph &graph);

/** Speedup of @p test over @p base (makespans). */
double speedup(const RunSummary &base, const RunSummary &test);

/** EDP of @p test normalized to @p base. */
double normalizedEdp(const RunSummary &base, const RunSummary &test);

} // namespace tdm::driver

#endif // TDM_DRIVER_EXPERIMENT_HH
