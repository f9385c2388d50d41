/**
 * @file
 * Whole-chip energy integration and EDP computation.
 */

#ifndef TDM_POWER_ENERGY_ACCOUNTANT_HH
#define TDM_POWER_ENERGY_ACCOUNTANT_HH

#include <cstdint>

#include "power/core_power.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace tdm::pwr {

/**
 * Accumulates per-component energy over a simulation and produces the
 * total energy and energy-delay product.
 */
class EnergyAccountant
{
  public:
    explicit EnergyAccountant(const CorePowerParams &params = {})
        : params_(params)
    {}

    /** Record core busy/idle time (ticks). */
    void addCoreTime(sim::Tick active, sim::Tick idle);

    /** Record cache traffic in lines. */
    void addCacheLines(std::uint64_t l1, std::uint64_t l2,
                       std::uint64_t dram);

    /** Record accelerator (DMU / HW queue) dynamic energy, picojoules. */
    void addAcceleratorPj(double pj);

    /** Set accelerator leakage (milliwatts, integrated over makespan). */
    void setAcceleratorLeakageMw(double mw) { accelLeakMw_ = mw; }

    /** Total energy in joules for a run of @p makespan ticks. */
    double totalJoules(sim::Tick makespan) const;

    /** Energy-delay product, J*s. */
    double edp(sim::Tick makespan) const;

    /** Average power, watts. */
    double avgWatts(sim::Tick makespan) const;

    const CorePowerParams &params() const { return params_; }

    /** Register the energy accumulators under @p ctx's scope
     *  ("power"). Whole-run totals (energy, EDP) depend on the final
     *  makespan, so the machine registers those as formulas itself. */
    void regMetrics(sim::MetricContext ctx);

  private:
    CorePowerParams params_;
    sim::Tick activeTicks_ = 0;
    sim::Tick idleTicks_ = 0;
    std::uint64_t l1Lines_ = 0, l2Lines_ = 0, dramLines_ = 0;
    double accelPj_ = 0.0;
    double accelLeakMw_ = 0.0;
};

} // namespace tdm::pwr

#endif // TDM_POWER_ENERGY_ACCOUNTANT_HH
