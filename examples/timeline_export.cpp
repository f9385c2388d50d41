/**
 * @file
 * Reproduce Figure 1's execution timeline: run Cholesky under the
 * software runtime and under TDM with task tracing on, print a coarse
 * ASCII timeline of the per-core task execution spans, and export
 * Chrome-tracing JSON (open in chrome://tracing or Perfetto).
 *
 * Usage: timeline_export [workload] [sw|tdm] [out.json]
 */

#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "driver/experiment.hh"
#include "driver/graph_cache.hh"
#include "driver/report/trace_writer.hh"
#include "driver/spec/spec.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

/** The run's TaskExec spans: one (core, start, end) per task body. */
struct Span
{
    unsigned core;
    sim::Tick start, end;
};

std::vector<Span>
execSpans(const sim::TraceBuffer &buf)
{
    std::vector<Span> out;
    buf.forEach([&](const sim::TraceRecord &r) {
        if (r.point == static_cast<std::uint16_t>(sim::TracePoint::TaskExec))
            out.push_back({r.core, r.tick, r.tick + r.dur});
    });
    return out;
}

/** Busy time over makespan, and the most tasks ever running at once. */
std::pair<double, unsigned>
parallelism(const std::vector<Span> &spans, sim::Tick makespan)
{
    std::vector<std::pair<sim::Tick, int>> edges;
    double busy = 0;
    for (const Span &s : spans) {
        edges.emplace_back(s.start, +1);
        edges.emplace_back(s.end, -1); // sorts before a start at a tie
        busy += static_cast<double>(s.end - s.start);
    }
    std::sort(edges.begin(), edges.end());
    int cur = 0, peak = 0;
    for (const auto &e : edges)
        peak = std::max(peak, cur += e.second);
    return {makespan ? busy / static_cast<double>(makespan) : 0.0,
            static_cast<unsigned>(peak)};
}

void
asciiTimeline(const std::vector<Span> &spans, unsigned cores,
              sim::Tick makespan, unsigned width = 72)
{
    for (unsigned c = 0; c < cores; ++c) {
        std::string row(width, '.');
        for (const Span &s : spans) {
            if (s.core != c)
                continue;
            auto a = static_cast<std::size_t>(
                static_cast<double>(s.start) / makespan * width);
            auto b = static_cast<std::size_t>(
                static_cast<double>(s.end) / makespan * width);
            for (std::size_t i = a; i <= b && i < width; ++i)
                row[i] = '#';
        }
        std::cout << (c == 0 ? "master " : "core")
                  << (c == 0 ? "" : std::to_string(c))
                  << (c == 0 ? "" : "  ") << "\t" << row << '\n';
    }
}

int
exportTimeline(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "cholesky";
    std::string rt_name = argc > 2 ? argv[2] : "sw";
    std::string out = argc > 3 ? argv[3] : "timeline.json";

    driver::Experiment e;
    e.workload = workload;
    driver::spec::applyKey(e, "runtime", rt_name);
    // Built at the runtime's own optimal granularity, as driver::run
    // would build it.
    const std::shared_ptr<const rt::TaskGraph> g = driver::buildGraph(e);

    cpu::MachineConfig cfg;
    cfg.trace.categories = static_cast<std::uint32_t>(sim::TraceCat::Task);
    core::Machine m(cfg, g, e.runtime);
    const driver::RunSummary res = driver::summarize(m.run(), *g);
    if (!res.completed) {
        std::cerr << "run did not complete\n";
        return 1;
    }

    const std::vector<Span> spans = execSpans(m.traceBuffer());
    const auto [avg, peak] = parallelism(spans, res.makespan);
    std::cout << workload << " on " << rt_name << ": " << res.timeMs
              << " ms, avg parallelism " << avg << ", peak " << peak
              << "\n\n";
    asciiTimeline(spans, cfg.numCores, res.makespan);

    std::ofstream f(out);
    driver::report::TraceMeta meta;
    meta.processName = workload + " on " + rt_name;
    meta.numCores = cfg.numCores;
    meta.graph = g.get();
    driver::report::writeChromeTrace(f, m.traceBuffer(), meta);
    std::cout << "\nwrote " << spans.size() << " task intervals to "
              << out << " (chrome://tracing)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return exportTimeline(argc, argv);
    } catch (const std::exception &e) { // an unknown workload or runtime
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
