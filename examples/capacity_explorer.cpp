/**
 * @file
 * Capacity exploration: how small can the DMU get for a given
 * workload? Sweeps the TAT/DAT and list arrays downward for one
 * benchmark, reporting performance, blocked operations and storage —
 * the sizing study an SoC integrator would run before taping out a
 * DMU for a known workload mix (Section V's methodology applied to one
 * application).
 *
 * Usage: capacity_explorer [workload]   (default: histogram)
 */

#include <iostream>
#include <string>

#include "dmu/geometry.hh"
#include "driver/experiment.hh"
#include "sim/logging.hh"
#include "sim/table.hh"

using namespace tdm;

namespace {

int
explore(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "histogram";
    const auto &info = wl::findWorkload(workload);

    driver::Experiment base;
    base.workload = info.name;
    base.runtime = core::RuntimeType::Tdm;
    base.config.scheduler = "fifo";
    auto ref = driver::run(base);
    if (!ref.completed) {
        std::cout << "reference run failed\n";
        return 1;
    }

    sim::Table t(info.name + ": DMU downsizing");
    t.header({"TAT/DAT", "list arrays", "storage KB", "slowdown",
              "blocked ops", "status"});
    for (unsigned tables : {2048u, 1024u, 512u, 256u, 128u}) {
        for (unsigned lists : {1024u, 256u, 64u}) {
            driver::Experiment e = base;
            e.config.dmu.tatEntries = tables;
            e.config.dmu.datEntries = tables;
            e.config.dmu.readyQueueEntries = tables;
            e.config.dmu.slaEntries = lists;
            e.config.dmu.dlaEntries = lists;
            e.config.dmu.rlaEntries = lists;
            auto s = driver::run(e);
            t.row()
                .cell(static_cast<std::uint64_t>(tables))
                .cell(static_cast<std::uint64_t>(lists))
                .cell(dmu::totalStorageKB(e.config.dmu), 2);
            if (s.completed) {
                t.cell(static_cast<double>(s.makespan)
                           / static_cast<double>(ref.makespan),
                       3)
                    .cell(s.dmuBlockedOps)
                    .cell("ok");
            } else {
                t.cell("-").cell("-").cell("deadlock");
            }
        }
    }
    t.print(std::cout);
    std::cout << "\nreference (2048/1024): " << ref.timeMs << " ms, "
              << dmu::totalStorageKB(cpu::MachineConfig{}.dmu)
              << " KB\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return explore(argc, argv);
    } catch (const sim::FatalError &e) { // e.g. an unknown workload
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}
