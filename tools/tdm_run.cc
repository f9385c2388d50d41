/**
 * @file
 * tdm_run — command-line front end to the simulator.
 *
 * Usage:
 *   tdm_run [options]
 *
 * Options:
 *   --workload NAME      benchmark (default cholesky); see --list
 *   --runtime sw|tdm|carbon|tss   (default tdm)
 *   --scheduler NAME     fifo|lifo|locality|successor|age (default fifo)
 *   --cores N            core count (also fits the mesh; default 32)
 *   --granularity G      benchmark-specific granularity (default: optimal)
 *   --seed S             duration-noise seed (default 1)
 *   --tat N --dat N      alias table entries
 *   --lists N            list-array entries (all three)
 *   --access-cycles N    DMU structure latency
 *   --throttle N         runtime creation throttle
 *   --no-mem             disable the memory hierarchy model
 *   --set KEY=VALUE      set any spec key (campaign_run --keys lists
 *                        them); repeatable, applied in order
 *   --describe           print the canonical experiment spec and exit
 *   --trace FILE         write the run's time-resolved trace as Chrome
 *                        trace-event JSON (open in Perfetto or
 *                        chrome://tracing); enables all categories
 *                        unless --trace-categories narrows them
 *   --trace-categories L comma list of task,sched,dmu,noc,mem,core
 *                        (or all/none); shorthand for
 *                        --set trace.categories=L
 *   --trace-events N     buffered-record cap (--set trace.buffer_events)
 *   --log-level LEVEL    quiet|warn|info|debug (default warn)
 *   --stats              dump the metric tree (gem5 stats.txt format;
 *                        campaign_run --metric-keys lists every key)
 *   --list               list workloads and exit
 *
 * The convenience flags are shorthands over the same spec keys that
 * --set (and *.campaign files) address, so every knob of the machine
 * is reachable from here without recompiling:
 *
 *   tdm_run --runtime tdm --set mesh.link_latency=4 --set mem.mlp=4
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/machine.hh"
#include "dmu/geometry.hh"
#include "driver/experiment.hh"
#include "driver/graph_cache.hh"
#include "driver/report/trace_writer.hh"
#include "driver/spec/spec.hh"
#include "sim/logging.hh"
#include "sim/table.hh"

using namespace tdm;
namespace spc = tdm::driver::spec;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--workload W] [--runtime sw|tdm|carbon|tss]"
                 " [--scheduler S] [--cores N] [--granularity G]"
                 " [--seed S] [--tat N] [--dat N] [--lists N]"
                 " [--access-cycles N] [--throttle N] [--no-mem]"
                 " [--set KEY=VALUE] [--describe] [--trace FILE]"
                 " [--trace-categories LIST] [--trace-events N]"
                 " [--log-level LEVEL] [--stats] [--list]\n";
    std::exit(2);
}

/** The tool proper; main() turns a FatalError into exit 1. */
int
run(int argc, char **argv)
{
    driver::Experiment exp;
    exp.runtime = core::RuntimeType::Tdm;
    std::string trace_file;
    bool dump_stats = false;
    bool describe_only = false;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };

    try {
        auto set = [&](const char *key, const std::string &value) {
            spc::applyKey(exp, key, value);
        };
        for (int i = 1; i < argc; ++i) {
            const char *a = argv[i];
            if (!std::strcmp(a, "--workload")) {
                set("workload", need(i));
            } else if (!std::strcmp(a, "--runtime")) {
                set("runtime", need(i));
            } else if (!std::strcmp(a, "--scheduler")) {
                set("scheduler", need(i));
            } else if (!std::strcmp(a, "--cores")) {
                set("machine.cores", need(i));
                // Fit the mesh around cores + the DMU node.
                unsigned dim = 2;
                while (dim * dim < exp.config.numCores + 1)
                    ++dim;
                const std::string d = std::to_string(dim);
                set("mesh.width", d);
                set("mesh.height", d);
            } else if (!std::strcmp(a, "--granularity")) {
                set("workload.granularity", need(i));
            } else if (!std::strcmp(a, "--seed")) {
                set("workload.seed", need(i));
            } else if (!std::strcmp(a, "--tat")) {
                const std::string n = need(i);
                set("dmu.tat_entries", n);
                set("dmu.ready_queue_entries", n);
            } else if (!std::strcmp(a, "--dat")) {
                set("dmu.dat_entries", need(i));
            } else if (!std::strcmp(a, "--lists")) {
                const std::string n = need(i);
                set("dmu.sla_entries", n);
                set("dmu.dla_entries", n);
                set("dmu.rla_entries", n);
            } else if (!std::strcmp(a, "--access-cycles")) {
                set("dmu.access_cycles", need(i));
            } else if (!std::strcmp(a, "--throttle")) {
                set("machine.throttle_tasks", need(i));
            } else if (!std::strcmp(a, "--no-mem")) {
                set("machine.mem_model", "false");
            } else if (!std::strcmp(a, "--set")) {
                const std::string kv = need(i);
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos || eq == 0) {
                    std::cerr << "--set expects KEY=VALUE, got '" << kv
                              << "'\n";
                    return 2;
                }
                set(kv.substr(0, eq).c_str(), kv.substr(eq + 1));
            } else if (!std::strcmp(a, "--describe")) {
                describe_only = true;
            } else if (!std::strcmp(a, "--trace")) {
                trace_file = need(i);
            } else if (!std::strcmp(a, "--trace-categories")) {
                set("trace.categories", need(i));
            } else if (!std::strcmp(a, "--trace-events")) {
                set("trace.buffer_events", need(i));
            } else if (!std::strcmp(a, "--log-level")) {
                const std::string lv = need(i);
                sim::LogLevel level;
                if (!sim::parseLogLevel(lv, level)) {
                    std::cerr << "--log-level expects quiet|warn|info"
                                 "|debug, got '" << lv << "'\n";
                    return 2;
                }
                sim::setLogLevel(level);
            } else if (!std::strcmp(a, "--stats")) {
                dump_stats = true;
            } else if (!std::strcmp(a, "--list")) {
                sim::Table t("workloads");
                t.header({"name", "short", "granularity unit", "SW opt",
                          "TDM opt"});
                for (const auto &w : wl::allWorkloads())
                    t.row().cell(w.name).cell(w.shortName)
                        .cell(w.granUnit).cell(w.swGranularity, 0)
                        .cell(w.tdmGranularity, 0);
                t.print(std::cout);
                return 0;
            } else {
                usage(argv[0]);
            }
        }

        if (describe_only) {
            spc::canonicalSpec(exp).dump(std::cout);
            return 0;
        }
    } catch (const spc::SpecError &e) {
        std::cerr << "spec error: " << e.what() << "\n";
        return 2;
    }

    // --trace with no explicit category selection records everything.
    if (!trace_file.empty() && exp.config.trace.categories == 0)
        exp.config.trace.categories = sim::traceCatAll;

    const std::shared_ptr<const rt::TaskGraph> graph =
        driver::buildGraph(exp);
    core::Machine m(exp.config, graph, exp.runtime);
    const driver::RunSummary res = driver::summarize(m.run(), *graph);

    const std::string runtime = core::traitsOf(exp.runtime).name;
    sim::Table t(exp.workload + " on " + runtime + "+"
                 + exp.config.scheduler);
    t.header({"metric", "value"});
    t.row().cell("completed").cell(res.completed ? "yes" : "NO");
    t.row().cell("tasks").cell(res.tasksExecuted);
    t.row().cell("time ms").cell(res.timeMs, 3);
    t.row().cell("energy J").cell(res.energyJ, 4);
    t.row().cell("EDP J*s").cell(res.edp, 6);
    t.row().cell("avg watts").cell(res.avgWatts, 2);
    t.row().cell("master DEPS %").cell(
        100.0 * m.phases().master().fraction(cpu::Phase::Deps), 1);
    t.row().cell("workers EXEC %").cell(
        100.0 * m.phases().workersTotal().fraction(cpu::Phase::Exec), 1);
    t.row().cell("workers IDLE %").cell(
        100.0 * m.phases().workersTotal().fraction(cpu::Phase::Idle), 1);
    if (core::traitsOf(exp.runtime).usesDmu()) {
        t.row().cell("DMU accesses").cell(res.dmuAccesses);
        t.row().cell("DMU blocked ops").cell(res.dmuBlockedOps);
        t.row().cell("DMU storage KB").cell(
            dmu::totalStorageKB(exp.config.dmu), 2);
    }
    t.print(std::cout);

    if (!trace_file.empty()) {
        std::ofstream f(trace_file);
        if (!f) {
            std::cerr << "cannot write " << trace_file << "\n";
            return 1;
        }
        const sim::TraceBuffer tb = m.takeTraceBuffer();
        driver::report::TraceMeta meta;
        meta.processName = exp.workload + " on " + runtime + "+"
                         + exp.config.scheduler;
        meta.numCores = exp.config.numCores;
        meta.graph = graph.get();
        driver::report::writeChromeTrace(f, tb, meta);
        std::cout << "trace: " << trace_file << " (" << tb.size()
                  << " events, "
                  << sim::formatTraceCategories(
                         exp.config.trace.categories)
                  << ", " << tb.dropped() << " dropped)\n";
    }
    if (dump_stats)
        m.metrics().dump(std::cout);
    return res.completed ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const sim::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
