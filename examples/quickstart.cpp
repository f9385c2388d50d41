/**
 * @file
 * Quickstart: build a small task graph by hand, run it on a 32-core
 * machine with the TDM runtime, and inspect the results.
 *
 * The public API in five steps:
 *   1. rt::TaskGraph       -- declare data regions + tasks + dependences
 *   2. cpu::MachineConfig  -- size the machine (Table I defaults)
 *   3. core::Machine       -- bind graph + runtime model
 *   4. run()               -- simulate; the result is the metric tree
 *   5. driver::summarize() -- typed headline fields (makespan, energy,
 *                             DMU) read off that tree; every other
 *                             number is one metrics().at("key") away
 */

#include <iostream>

#include "core/machine.hh"
#include "driver/experiment.hh"

using namespace tdm;

int
main()
{
    // 1. A blocked vector-sum pipeline: produce -> transform -> reduce.
    rt::TaskGraph graph("quickstart");
    const unsigned blocks = 64;
    std::vector<rt::RegionId> in(blocks), mid(blocks);
    for (unsigned b = 0; b < blocks; ++b) {
        in[b] = graph.addRegion(64 * 1024);
        mid[b] = graph.addRegion(64 * 1024);
    }
    rt::RegionId acc = graph.addRegion(4 * 1024);

    graph.beginParallel();
    for (unsigned b = 0; b < blocks; ++b) {
        graph.createTask(sim::usToTicks(150)); // produce block b
        graph.dep(in[b], rt::DepDir::Out);
    }
    for (unsigned b = 0; b < blocks; ++b) {
        graph.createTask(sim::usToTicks(220)); // transform block b
        graph.dep(in[b], rt::DepDir::In);
        graph.dep(mid[b], rt::DepDir::Out);
    }
    for (unsigned b = 0; b < blocks; ++b) {
        graph.createTask(sim::usToTicks(40)); // reduce into acc
        graph.dep(mid[b], rt::DepDir::In);
        graph.dep(acc, rt::DepDir::InOut);
    }

    std::cout << "graph: " << graph.numTasks() << " tasks, critical path "
              << sim::ticksToUs(graph.criticalPathCycles()) << " us\n";

    // 2-4. Default 32-core machine, TDM runtime, FIFO scheduler.
    cpu::MachineConfig cfg;
    cfg.scheduler = "fifo";
    core::Machine machine(cfg, graph, core::RuntimeType::Tdm);
    const driver::RunSummary res = driver::summarize(machine.run(), graph);

    // 5. Results.
    std::cout << "completed: " << std::boolalpha << res.completed << '\n'
              << "makespan:  " << res.timeMs << " ms\n"
              << "energy:    " << res.energyJ << " J (avg "
              << res.avgWatts << " W)\n"
              << "master DEPS fraction: "
              << machine.phases().master().fraction(cpu::Phase::Deps)
              << '\n'
              << "worker EXEC fraction: "
              << res.metrics().at("cpu.workers.exec_fraction") << '\n'
              << "DMU accesses: " << res.dmuAccesses
              << ", blocked ops: " << res.dmuBlockedOps << '\n';
    return res.completed ? 0 : 1;
}
