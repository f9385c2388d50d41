/**
 * @file
 * Experiment driver: builds a workload, a machine and a runtime model,
 * runs the simulation, and summarizes the metrics the paper reports.
 */

#ifndef TDM_DRIVER_EXPERIMENT_HH
#define TDM_DRIVER_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <variant>

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
 * Summary of one run: the run's metric tree plus a thin typed view of
 * its headline fields.
 *
 * Every scalar member is filled from its metric twin by summaryOf()
 * (see kHeadlineFields), so the MetricSet is the only copy of the
 * run's numbers that flows through the campaign engine, the result
 * store and the wire; the members are never set independently of it.
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

    std::uint64_t tasksExecuted = 0;
    std::uint64_t dmuAccesses = 0;
    std::uint64_t dmuBlockedOps = 0;
    std::uint64_t steals = 0;
    /** Master-thread fraction of time spent creating tasks (Fig. 10). */
    double masterCreationFraction = 0.0;

    core::MachineResult machine{};

    /** The run's full flattened metric tree ("dmu.tat.hits", ...,
     *  plus "workload.*" keys and "window.{warmup,roi,drain}.*"). */
    const sim::MetricSet &metrics() const { return machine.metrics; }
};

/**
 * One headline field: its export name (JSON member, CSV column, wire
 * member), the RunSummary member that holds it, and the metric key it
 * is read from (an absent key reads as 0).
 */
struct HeadlineField
{
    const char *name;
    std::variant<bool RunSummary::*, std::uint32_t RunSummary::*,
                 std::uint64_t RunSummary::*, double RunSummary::*>
        member;
    const char *metric;
};

/** Every headline field, in export order. Each consumer (summaryOf,
 *  the JSON/CSV writers, the wire and the dashboard) iterates this. */
inline constexpr HeadlineField kHeadlineFields[] = {
    {"completed", &RunSummary::completed, "machine.completed"},
    {"makespan", &RunSummary::makespan, "machine.makespan_ticks"},
    {"time_ms", &RunSummary::timeMs, "machine.time_ms"},
    {"energy_j", &RunSummary::energyJ, "power.energy_j"},
    {"edp", &RunSummary::edp, "power.edp"},
    {"avg_watts", &RunSummary::avgWatts, "power.avg_watts"},
    {"num_tasks", &RunSummary::numTasks, "workload.num_tasks"},
    {"avg_task_us", &RunSummary::avgTaskUs, "workload.avg_task_us"},
    {"tasks_executed", &RunSummary::tasksExecuted,
     "machine.tasks_executed"},
    {"dmu_accesses", &RunSummary::dmuAccesses, "dmu.accesses"},
    {"dmu_blocked_ops", &RunSummary::dmuBlockedOps, "dmu.blocked"},
    {"steals", &RunSummary::steals, "runtime.hwq.steals"},
    {"master_creation_fraction", &RunSummary::masterCreationFraction,
     "machine.master_creation_fraction"},
};

/**
 * Build a RunSummary around @p metrics, filling every headline member
 * from its metric twin. Nullopt when a twin does not fit its member
 * exactly (a negative, fractional, non-finite or out-of-range count,
 * or a flag other than 0/1) — which a simulated tree never holds, but
 * a damaged stored record can.
 */
std::optional<RunSummary> summaryOf(sim::MetricSet metrics);

/**
 * Run one experiment on a graph built from spec::normalized(exp): a
 * default granularity runs at the runtime's Table II optimum, the
 * value its canonical spec records.
 */
RunSummary run(const Experiment &exp);

/**
 * Run one experiment on a pre-built shared graph (the campaign
 * engine's hot path: each distinct graph is built once per campaign
 * and shared read-only across worker threads, see driver::GraphCache).
 * @p graph must be the graph @p exp would build (buildGraph(exp), or
 * any graph with an equal graphKey); null falls back to building one.
 * The summary is byte-identical either way.
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
 * workload-shape facts of @p graph into the metric tree and fills the
 * headline members from it (summaryOf). The tail of run(); a finalize
 * fork re-prices a copy of its leader's tree and rebuilds the summary
 * with summaryOf (see ForkGroupRunner).
 */
RunSummary summarize(core::MachineResult mr, const rt::TaskGraph &graph);

/** Speedup of @p test over @p base (makespans). */
double speedup(const RunSummary &base, const RunSummary &test);

/** EDP of @p test normalized to @p base. */
double normalizedEdp(const RunSummary &base, const RunSummary &test);

} // namespace tdm::driver

#endif // TDM_DRIVER_EXPERIMENT_HH
