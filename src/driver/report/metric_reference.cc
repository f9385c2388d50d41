#include "driver/report/metric_reference.hh"

#include <map>
#include <ostream>
#include <string>

#include "core/machine.hh"
#include "workloads/registry.hh"

namespace tdm::driver::report {

namespace {

struct RefEntry
{
    sim::MetricKind kind;
    std::string desc;
    std::string runtimes; ///< which runtime models register the key
};

const char *
runtimeTag(core::RuntimeType rt)
{
    return core::traitsOf(rt).name;
}

void
collect(std::map<std::string, RefEntry> &out, core::RuntimeType rt)
{
    // The smallest graph that exercises every component keeps
    // discovery cheap; metric identity never depends on the workload.
    rt::TaskGraph graph = wl::buildWorkload("cholesky");
    cpu::MachineConfig cfg;
    core::Machine m(cfg, graph, rt);
    for (const sim::MetricInfo &info : m.metrics().list()) {
        auto it =
            out.emplace(info.key, RefEntry{info.kind, info.desc, ""})
                .first;
        if (!it->second.runtimes.empty())
            it->second.runtimes += ", ";
        it->second.runtimes += runtimeTag(rt);
    }
}

} // namespace

void
writeMetricReference(std::ostream &os)
{
    std::map<std::string, RefEntry> entries;
    for (core::RuntimeType rt :
         {core::RuntimeType::Software, core::RuntimeType::Tdm,
          core::RuntimeType::Carbon, core::RuntimeType::TaskSuperscalar})
        collect(entries, rt);

    os << "| key | kind | runtimes | description |\n"
          "|-----|------|----------|-------------|\n";
    for (const auto &[key, e] : entries)
        os << "| `" << key << "` | " << sim::metricKindName(e.kind)
           << " | " << e.runtimes << " | " << e.desc << " |\n";

    os << "\n"
          "Distributions flatten into `.mean/.stdev/.min/.max/.count/"
          ".underflow/.overflow`\nsubkeys and averages gain a `.count` "
          "subkey in exported trees. Exports also\ncarry synthetic "
          "keys that exist outside the registry: `workload.num_tasks`"
          "\nand `workload.avg_task_us` (graph shape), and "
          "`window.{warmup,roi,drain}.*`\n(per-phase deltas of every "
          "counter, window-local means of averages and\ndistributions, "
          "plus each window's `ticks` length).\n";
}

} // namespace tdm::driver::report
