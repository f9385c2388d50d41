/**
 * @file
 * Figure 2: execution time breakdown (DEPS / SCHED / EXEC / IDLE) of
 * the master and worker threads under the pure software runtime with a
 * FIFO scheduler, at each benchmark's software-optimal granularity.
 *
 * Paper reference points: master DEPS is dominant for Cholesky (84%),
 * QR (92%) and significant for streamcluster (40%); workers average
 * ~65% EXEC and ~32% IDLE.
 */

#include <iostream>

#include "driver/experiment.hh"
#include "driver/report/aggregate.hh"
#include "sim/table.hh"

using namespace tdm;

namespace {

/** The @p row ("master", "workers") breakdown, read from cpu.* ticks. */
cpu::PhaseBreakdown
phasesOf(const driver::RunSummary &s, const std::string &row)
{
    const auto ticks = [&](const char *phase) {
        return static_cast<sim::Tick>(
            s.metrics().at("cpu." + row + "." + phase + "_ticks"));
    };
    return {ticks("deps"), ticks("sched"), ticks("exec"), ticks("idle")};
}

} // namespace

int
main()
{
    sim::Table t("Figure 2: SW runtime time breakdown (%)");
    t.header({"bench", "M.DEPS", "M.SCHED", "M.EXEC", "M.IDLE",
              "W.DEPS", "W.SCHED", "W.EXEC", "W.IDLE"});

    std::vector<double> wexec, widle;
    for (const auto &w : wl::allWorkloads()) {
        driver::Experiment e;
        e.workload = w.name;
        e.runtime = core::RuntimeType::Software;
        e.config.scheduler = "fifo";
        auto s = driver::run(e);
        if (!s.completed) {
            std::cout << w.shortName << ": run did not complete\n";
            continue;
        }
        const cpu::PhaseBreakdown m = phasesOf(s, "master");
        const cpu::PhaseBreakdown wk = phasesOf(s, "workers");
        t.row()
            .cell(w.shortName)
            .cell(100.0 * m.fraction(cpu::Phase::Deps), 1)
            .cell(100.0 * m.fraction(cpu::Phase::Sched), 1)
            .cell(100.0 * m.fraction(cpu::Phase::Exec), 1)
            .cell(100.0 * m.fraction(cpu::Phase::Idle), 1)
            .cell(100.0 * wk.fraction(cpu::Phase::Deps), 1)
            .cell(100.0 * wk.fraction(cpu::Phase::Sched), 1)
            .cell(100.0 * wk.fraction(cpu::Phase::Exec), 1)
            .cell(100.0 * wk.fraction(cpu::Phase::Idle), 1);
        wexec.push_back(wk.fraction(cpu::Phase::Exec));
        widle.push_back(wk.fraction(cpu::Phase::Idle));
    }
    t.print(std::cout);
    std::cout << "\nworkers avg EXEC "
              << driver::report::percent(driver::report::mean(wexec), 1)
              << " (paper ~65%), avg IDLE "
              << driver::report::percent(driver::report::mean(widle), 1)
              << " (paper ~32%)\n";
    return 0;
}
