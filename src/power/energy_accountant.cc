#include "power/energy_accountant.hh"

#include <string>

namespace tdm::pwr {

namespace {

/** A whole-run total: regMetrics registers it, reprice rewrites it. */
struct Total
{
    const char *name;
    double (EnergyAccountant::*price)(sim::Tick) const;
    const char *desc;
};

constexpr Total kTotals[] = {
    {"energy_j", &EnergyAccountant::totalJoules,
     "total chip energy in joules"},
    {"edp", &EnergyAccountant::edp, "energy-delay product in J*s"},
    {"avg_watts", &EnergyAccountant::avgWatts,
     "average chip power in watts"},
};

} // namespace

void
EnergyAccountant::addCoreTime(sim::Tick active, sim::Tick idle)
{
    activeTicks_ += active;
    idleTicks_ += idle;
}

void
EnergyAccountant::addCacheLines(std::uint64_t l1, std::uint64_t l2,
                                std::uint64_t dram)
{
    l1Lines_ += l1;
    l2Lines_ += l2;
    dramLines_ += dram;
}

void
EnergyAccountant::addAcceleratorPj(double pj)
{
    accelPj_ += pj;
}

double
EnergyAccountant::totalJoules(sim::Tick makespan) const
{
    double j = coreEnergyJ(params_, activeTicks_, idleTicks_);
    j += params_.uncoreWatts * sim::ticksToSeconds(makespan);
    j += static_cast<double>(l1Lines_) * params_.l1LineNj * 1e-9;
    j += static_cast<double>(l2Lines_) * params_.l2LineNj * 1e-9;
    j += static_cast<double>(dramLines_) * params_.dramLineNj * 1e-9;
    j += accelPj_ * 1e-12;
    j += accelLeakMw_ * 1e-3 * sim::ticksToSeconds(makespan);
    return j;
}

double
EnergyAccountant::edp(sim::Tick makespan) const
{
    return totalJoules(makespan) * sim::ticksToSeconds(makespan);
}

double
EnergyAccountant::avgWatts(sim::Tick makespan) const
{
    double s = sim::ticksToSeconds(makespan);
    return s > 0.0 ? totalJoules(makespan) / s : 0.0;
}

void
EnergyAccountant::regMetrics(sim::MetricContext ctx)
{
    // Every accumulator here is charged in one post-run pass (the
    // machine integrates phase breakdowns and memory traffic after
    // the event loop ends), so none is live mid-run. Registering them
    // as counters would put them in phase windows and misattribute
    // the whole run's energy to the drain window; gauges report the
    // end-of-run level and stay out of windows.
    ctx.gauge("core_active_ticks",
              [this] { return static_cast<double>(activeTicks_); },
              "core-busy ticks summed over cores");
    ctx.gauge("core_idle_ticks",
              [this] { return static_cast<double>(idleTicks_); },
              "core-idle ticks summed over cores");
    ctx.gauge("l1_lines",
              [this] { return static_cast<double>(l1Lines_); },
              "L1 lines charged for energy");
    ctx.gauge("l2_lines",
              [this] { return static_cast<double>(l2Lines_); },
              "L2 lines charged for energy");
    ctx.gauge("dram_lines",
              [this] { return static_cast<double>(dramLines_); },
              "DRAM lines charged for energy");
    ctx.gauge("accel_dynamic_pj", [this] { return accelPj_; },
              "accelerator dynamic energy in picojoules");
    ctx.gauge("accel_leakage_mw", [this] { return accelLeakMw_; },
              "accelerator leakage power in milliwatts");
    for (const Total &t : kTotals) {
        ctx.formulaFn(t.name,
                      [this, price = t.price] {
                          return makespan_ ? (this->*price)(*makespan_)
                                           : 0.0;
                      },
                      t.desc);
    }
}

void
EnergyAccountant::reprice(sim::MetricSet &tree, sim::Tick makespan,
                          const CorePowerParams &params)
{
    const std::string p = std::string(scope) + ".";
    auto count = [&](const char *name) {
        return static_cast<std::uint64_t>(tree.at(p + name));
    };
    EnergyAccountant a(params);
    a.activeTicks_ = count("core_active_ticks");
    a.idleTicks_ = count("core_idle_ticks");
    a.l1Lines_ = count("l1_lines");
    a.l2Lines_ = count("l2_lines");
    a.dramLines_ = count("dram_lines");
    a.accelPj_ = tree.at(p + "accel_dynamic_pj");
    a.accelLeakMw_ = tree.at(p + "accel_leakage_mw");
    a.close(makespan);
    for (const Total &t : kTotals)
        tree.set(p + t.name, (a.*t.price)(makespan));
}

} // namespace tdm::pwr
