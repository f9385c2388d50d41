/**
 * @file
 * Figure 7: performance with different TAT and DAT sizes (512..4096),
 * normalized to an ideal DMU with unlimited entries and equal latency.
 * Shown for the sensitive benchmarks (cholesky, ferret, histogram,
 * LU, QR) plus the geometric mean over all nine.
 *
 * The study is declared as a spec grid (the same API behind *.campaign
 * files) and executes on the campaign engine; pass --threads N to
 * control the pool (default: all hardware threads).
 *
 * Paper reference point: 2048-entry TAT and DAT lose only ~0.9% vs the
 * ideal on average.
 */

#include <iostream>
#include <string>

#include "driver/campaign/engine.hh"
#include "driver/report/aggregate.hh"
#include "driver/spec/grid.hh"
#include "sim/table.hh"

using namespace tdm;
namespace cmp = tdm::driver::campaign;
namespace spc = tdm::driver::spec;

namespace {

/**
 * Shared methodology (Section V-A): the Age policy executes tasks in
 * creation order whatever the creation run-ahead, so alias-table
 * capacity is the only variable (FIFO would conflate capacity with its
 * own window-order effects). Unlimited list arrays, no creation
 * throttle, and no memory model, so capacity stalls are isolated.
 */
spc::Grid
baseGrid()
{
    return spc::Grid()
        .set("runtime", "tdm")
        .set("scheduler", "age")
        .set("dmu.sla_entries", "65535")
        .set("dmu.dla_entries", "65535")
        .set("dmu.rla_entries", "65535")
        .set("machine.throttle_tasks", "1073741824")
        .set("machine.mem_model", "false")
        .label("{workload}/tat{dmu.tat_entries}/dat{dmu.dat_entries}");
}

std::string
pointLabel(const std::string &wl_name, unsigned tat, unsigned dat)
{
    return wl_name + "/tat" + std::to_string(tat) + "/dat"
         + std::to_string(dat);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<unsigned> sizes = {512, 1024, 2048, 4096};
    // "Unlimited": the largest 8-way alias tables 16-bit ids allow
    // (65535 entries at most, in a power-of-two number of sets); no
    // workload fills them, so the ideal never blocks.
    const unsigned ideal = 32768;
    const std::vector<std::string> shown = {"cholesky", "ferret",
                                            "histogram", "lu", "qr"};

    std::vector<std::string> workloads;
    for (const auto &w : wl::allWorkloads())
        workloads.push_back(w.name);

    // The Ready Queue tracks the TAT size, so the two zip together.
    std::vector<std::vector<std::string>> tatRows, idealRow;
    for (unsigned tat : sizes)
        tatRows.push_back({std::to_string(tat), std::to_string(tat)});
    idealRow.push_back({std::to_string(ideal), std::to_string(ideal)});

    spc::Grid grid = baseGrid()
        .axis("workload", workloads)
        .zip({"dmu.tat_entries", "dmu.ready_queue_entries"}, tatRows)
        .axis("dmu.dat_entries", spc::valueStrings({512, 1024, 2048,
                                                    4096}));
    spc::Grid idealGrid = baseGrid()
        .axis("workload", workloads)
        .zip({"dmu.tat_entries", "dmu.ready_queue_entries"}, idealRow)
        .axis("dmu.dat_entries", spc::valueStrings({ideal}));

    cmp::CampaignEngine engine(cmp::benchEngineOptions(argc, argv));
    cmp::CampaignResult rep =
        engine.run(grid.toCampaign("fig7", "TAT/DAT sizing sweep"));
    cmp::CampaignResult idealRep = engine.run(
        idealGrid.toCampaign("fig7_ideal", "unlimited-DMU baseline"));

    auto makespan = [](const cmp::JobResult &j) {
        return j.summary.completed
                   ? static_cast<double>(j.summary.makespan)
                   : -1.0;
    };

    for (unsigned tat : sizes) {
        sim::Table t("Figure 7: perf vs ideal, TAT="
                     + std::to_string(tat));
        std::vector<std::string> head = {"bench"};
        for (unsigned dat : sizes)
            head.push_back("DAT " + std::to_string(dat));
        t.header(head);
        auto relPerf = [&](const std::string &name, unsigned dat) {
            const double base = makespan(
                idealRep.at(pointLabel(name, ideal, ideal)));
            const double v =
                makespan(rep.at(pointLabel(name, tat, dat)));
            return v > 0 && base > 0 ? base / v : 0.0;
        };
        for (const auto &name : shown) {
            auto &row = t.row().cell(wl::findWorkload(name).shortName);
            for (unsigned dat : sizes)
                row.cell(relPerf(name, dat), 3);
        }
        auto &avg = t.row().cell("AVG(all 9)");
        for (unsigned dat : sizes) {
            std::vector<double> v;
            for (const auto &name : workloads)
                v.push_back(relPerf(name, dat));
            avg.cell(driver::report::geomean(v), 3);
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "paper: TAT=DAT=2048 -> 0.991 of ideal on average\n";
    std::cout << "campaign: " << rep.jobs.size() + idealRep.jobs.size()
              << " points, " << rep.simulated + idealRep.simulated
              << " simulated, " << rep.threads << " threads\n";
    return rep.allOk() && idealRep.allOk() ? 0 : 1;
}
