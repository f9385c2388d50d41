/**
 * @file
 * Table II: number of tasks and average task duration per benchmark at
 * the optimal granularity for the software runtime and for TDM.
 */

#include <iostream>

#include "sim/table.hh"
#include "workloads/registry.hh"

using namespace tdm;

int
main()
{
    sim::Table t("Table II: benchmark characteristics");
    t.header({"benchmark", "SW #tasks", "SW dur(us)", "TDM #tasks",
              "TDM dur(us)"});

    double sw_tasks = 0, sw_us = 0, tdm_tasks = 0, tdm_us = 0;
    unsigned n = 0;
    for (const auto &w : wl::allWorkloads()) {
        wl::WorkloadParams sp, tp;
        sp.granularity = w.swGranularity;
        tp.granularity = w.tdmGranularity;
        rt::TaskGraph sw = wl::buildWorkload(w.name, sp);
        rt::TaskGraph tdm = wl::buildWorkload(w.name, tp);
        t.row()
            .cell(w.name)
            .cell(static_cast<std::uint64_t>(sw.numTasks()))
            .cell(sw.avgTaskUs(), 0)
            .cell(static_cast<std::uint64_t>(tdm.numTasks()))
            .cell(tdm.avgTaskUs(), 0);
        sw_tasks += sw.numTasks();
        sw_us += sw.avgTaskUs();
        tdm_tasks += tdm.numTasks();
        tdm_us += tdm.avgTaskUs();
        ++n;
    }
    t.row()
        .cell("Average")
        .cell(sw_tasks / n, 0)
        .cell(sw_us / n, 0)
        .cell(tdm_tasks / n, 0)
        .cell(tdm_us / n, 0);
    t.print(std::cout);
    std::cout << "\npaper averages: SW 6584 tasks / 4976 us, "
                 "TDM 8056 tasks / 4771 us\n";
    return 0;
}
