#include "driver/experiment.hh"

#include <cmath>
#include <limits>
#include <type_traits>

#include "driver/graph_cache.hh"
#include "sim/logging.hh"

namespace tdm::driver {

RunSummary
run(const Experiment &exp)
{
    return run(exp, nullptr);
}

RunSummary
run(const Experiment &exp, std::shared_ptr<const rt::TaskGraph> graph)
{
    return run(exp, std::move(graph), nullptr);
}

RunSummary
run(const Experiment &exp, std::shared_ptr<const rt::TaskGraph> graph,
    sim::TraceBuffer *trace_out)
{
    if (!graph)
        graph = buildGraph(exp);

    core::Machine machine(exp.config, graph, exp.runtime);
    core::MachineResult mr = machine.run();
    if (trace_out)
        *trace_out = machine.takeTraceBuffer();
    return summarize(std::move(mr), *graph);
}

std::optional<RunSummary>
summaryOf(sim::MetricSet metrics)
{
    RunSummary s;
    for (const HeadlineField &f : kHeadlineFields) {
        const double v = metrics.get(f.metric);
        const bool fits = std::visit(
            [&](auto member) {
                using T = std::remove_reference_t<decltype(s.*member)>;
                if constexpr (std::is_floating_point_v<T>) {
                    s.*member = v;
                    return true;
                } else {
                    // max + 1 (2, 2^32 or 2^64: the uint64 max rounds
                    // up to 2^64); every whole double below it
                    // converts exactly.
                    constexpr double limit =
                        static_cast<double>(std::numeric_limits<T>::max())
                        + 1.0;
                    if (!(v >= 0.0 && v < limit && v == std::floor(v)))
                        return false;
                    s.*member = static_cast<T>(v);
                    return true;
                }
            },
            f.member);
        if (!fits)
            return std::nullopt;
    }
    s.machine.metrics = std::move(metrics);
    return s;
}

RunSummary
summarize(core::MachineResult mr, const rt::TaskGraph &graph)
{
    // Workload-shape facts live outside the machine's registry; fold
    // them into the tree so exports are self-contained.
    mr.metrics.set("workload.num_tasks",
                   static_cast<double>(graph.numTasks()));
    mr.metrics.set("workload.avg_task_us", graph.avgTaskUs());
    std::optional<RunSummary> s = summaryOf(std::move(mr.metrics));
    if (!s)
        sim::panic("a simulated metric tree does not fit its summary");
    return *std::move(s);
}

double
speedup(const RunSummary &base, const RunSummary &test)
{
    if (test.makespan == 0)
        return 0.0;
    return static_cast<double>(base.makespan)
         / static_cast<double>(test.makespan);
}

double
normalizedEdp(const RunSummary &base, const RunSummary &test)
{
    if (base.edp == 0.0)
        return 0.0;
    return test.edp / base.edp;
}

} // namespace tdm::driver
