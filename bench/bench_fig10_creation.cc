/**
 * @file
 * Figure 10: percentage of time the master thread spends creating
 * tasks and managing their dependences, software runtime vs TDM.
 *
 * Paper: average reduced from 31.0% to 14.5%; blackscholes improves by
 * 5.2x; idle time drops from 32% to 22% on average.
 */

#include <iostream>

#include "driver/experiment.hh"
#include "driver/report/aggregate.hh"
#include "sim/table.hh"

using namespace tdm;

int
main()
{
    sim::Table t("Figure 10: master task-creation time (% of run)");
    t.header({"bench", "SW", "TDM", "reduction"});

    std::vector<double> sw_frac, tdm_frac, sw_idle, tdm_idle;
    for (const auto &w : wl::allWorkloads()) {
        driver::Experiment e;
        e.workload = w.name;
        e.config.scheduler = "fifo";
        e.runtime = core::RuntimeType::Software;
        auto s_sw = driver::run(e);
        e.runtime = core::RuntimeType::Tdm;
        auto s_tdm = driver::run(e);
        if (!s_sw.completed || !s_tdm.completed)
            continue;
        double a = s_sw.masterCreationFraction * 100.0;
        double b = s_tdm.masterCreationFraction * 100.0;
        t.row().cell(w.shortName).cell(a, 1).cell(b, 1).cell(
            b > 0 ? a / b : 0.0, 2);
        sw_frac.push_back(a);
        tdm_frac.push_back(b);
        sw_idle.push_back(s_sw.metrics().at("cpu.chip.idle_fraction"));
        tdm_idle.push_back(s_tdm.metrics().at("cpu.chip.idle_fraction"));
    }
    t.print(std::cout);
    std::cout << "\naverage creation time: SW "
              << driver::report::mean(sw_frac) << "% -> TDM "
              << driver::report::mean(tdm_frac)
              << "%  (paper: 31.0% -> 14.5%)\n";
    std::cout << "average idle time: SW "
              << driver::report::mean(sw_idle) * 100.0 << "% -> TDM "
              << driver::report::mean(tdm_idle) * 100.0
              << "%  (paper: 32% -> 22%)\n";
    return 0;
}
