/**
 * @file
 * Figure 13: speedup (top) and normalized EDP (bottom) of Carbon, Task
 * Superscalar and TDM (best scheduler per benchmark) over the software
 * runtime with a FIFO scheduler, plus the hardware-cost comparison of
 * Section VI-C.
 *
 * The experiment points come from the registered "fig13" campaign and
 * execute on the campaign engine (multi-threaded, cache-deduplicated);
 * pass --threads N to control the pool (default: all hardware threads).
 *
 * Paper reference points: Carbon +1.9%, Task Superscalar +8.1%,
 * OptTDM +12.3% average speedup; EDP -5.1% / -14.1% / -20.4%;
 * DMU storage 7.3x below Task Superscalar.
 */

#include <iostream>

#include "core/runtime_model.hh"
#include "driver/campaign/campaign.hh"
#include "driver/campaign/engine.hh"
#include "driver/report/aggregate.hh"
#include "runtime/scheduler.hh"
#include "sim/table.hh"

using namespace tdm;
namespace cmp = tdm::driver::campaign;

int
main(int argc, char **argv)
{
    cmp::CampaignEngine engine(cmp::benchEngineOptions(argc, argv));
    cmp::CampaignResult rep = engine.run(cmp::makeCampaign("fig13"));

    sim::Table ts("Figure 13 (top): speedup vs SW+FIFO");
    sim::Table te("Figure 13 (bottom): normalized EDP vs SW+FIFO");
    ts.header({"bench", "Carbon", "TaskSS", "OptTDM"});
    te.header({"bench", "Carbon", "TaskSS", "OptTDM"});

    std::vector<double> sp_carbon, sp_tss, sp_tdm;
    std::vector<double> edp_carbon, edp_tss, edp_tdm;

    for (const auto &w : wl::allWorkloads()) {
        const auto &base =
            rep.at(cmp::pointLabel(w.name, "sw", "fifo")).summary;
        const auto &carbon =
            rep.at(cmp::pointLabel(w.name, "carbon", "fifo")).summary;
        const auto &tss =
            rep.at(cmp::pointLabel(w.name, "tss", "fifo")).summary;

        double best_sp = 0.0, best_edp = 0.0;
        for (const auto &s : rt::allSchedulerNames()) {
            const auto &r =
                rep.at(cmp::pointLabel(w.name, "tdm", s)).summary;
            double sp = driver::speedup(base, r);
            if (sp > best_sp) {
                best_sp = sp;
                best_edp = driver::normalizedEdp(base, r);
            }
        }

        double c_sp = driver::speedup(base, carbon);
        double t_sp = driver::speedup(base, tss);
        ts.row().cell(w.shortName).cell(c_sp, 3).cell(t_sp, 3).cell(
            best_sp, 3);
        te.row()
            .cell(w.shortName)
            .cell(driver::normalizedEdp(base, carbon), 3)
            .cell(driver::normalizedEdp(base, tss), 3)
            .cell(best_edp, 3);
        sp_carbon.push_back(c_sp);
        sp_tss.push_back(t_sp);
        sp_tdm.push_back(best_sp);
        edp_carbon.push_back(driver::normalizedEdp(base, carbon));
        edp_tss.push_back(driver::normalizedEdp(base, tss));
        edp_tdm.push_back(best_edp);
    }
    ts.row()
        .cell("AVG")
        .cell(driver::report::geomean(sp_carbon), 3)
        .cell(driver::report::geomean(sp_tss), 3)
        .cell(driver::report::geomean(sp_tdm), 3);
    te.row()
        .cell("AVG")
        .cell(driver::report::geomean(edp_carbon), 3)
        .cell(driver::report::geomean(edp_tss), 3)
        .cell(driver::report::geomean(edp_tdm), 3);
    ts.print(std::cout);
    std::cout << '\n';
    te.print(std::cout);

    std::cout << "\npaper AVG speedups: Carbon 1.019, TaskSS 1.081, "
                 "TDM 1.123; EDP 0.949 / 0.859 / 0.796\n";

    cpu::MachineConfig cfg;
    std::cout << "\n== Hardware cost (Section VI-C) ==\n";
    sim::Table th;
    th.header({"runtime", "storage KB", "area mm^2"});
    for (auto type : core::allRuntimeTypes()) {
        auto spec = core::runtimeSpec(type, cfg);
        th.row().cell(spec.displayName).cell(spec.hwStorageKB, 2).cell(
            spec.hwAreaMm2, 3);
    }
    th.print(std::cout);
    auto tdm_spec = core::runtimeSpec(core::RuntimeType::Tdm, cfg);
    auto tss_spec =
        core::runtimeSpec(core::RuntimeType::TaskSuperscalar, cfg);
    std::cout << "TaskSS/TDM storage ratio: "
              << tss_spec.hwStorageKB / tdm_spec.hwStorageKB
              << "x (paper: 7.3x)\n";
    std::cout << "campaign: " << rep.jobs.size() << " points, "
              << rep.simulated << " simulated, " << rep.cacheHits
              << " cache hits, " << rep.threads << " threads, "
              << rep.wallMs / 1000.0 << " s\n";
    return rep.allOk() ? 0 : 1;
}
