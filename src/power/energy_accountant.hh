/**
 * @file
 * Whole-chip energy integration and EDP computation.
 */

#ifndef TDM_POWER_ENERGY_ACCOUNTANT_HH
#define TDM_POWER_ENERGY_ACCOUNTANT_HH

#include <cstdint>
#include <optional>

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
    /** Metric scope the accountant registers under ("power.*"). */
    static constexpr const char *scope = "power";

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

    /** End a completed run at @p makespan ticks. The registered
     *  whole-run totals read 0 until then, so an incomplete run is
     *  never priced. */
    void close(sim::Tick makespan) { makespan_ = makespan; }

    /** Total energy in joules for a run of @p makespan ticks. */
    double totalJoules(sim::Tick makespan) const;

    /** Energy-delay product, J*s. */
    double edp(sim::Tick makespan) const;

    /** Average power, watts. */
    double avgWatts(sim::Tick makespan) const;

    const CorePowerParams &params() const { return params_; }

    /** Register the seven energy accumulators and the three whole-run
     *  totals (energy_j, edp, avg_watts) under @p ctx, which the
     *  machine scopes to `scope`. */
    void regMetrics(sim::MetricContext ctx);

    /**
     * Re-price the flat metric tree of a completed run under
     * @p params: rebuild the accountant from the seven accumulators
     * the tree holds under `scope`, close it at @p makespan, and
     * overwrite the three totals. Each accumulator is an integer below
     * 2^53 or a double stored as charged, so the result is
     * bit-identical to the tree of a run charged under @p params —
     * provided no simulated event reads the power model (the
     * `power.*` keys are spec::KeyPhase::Final).
     */
    static void reprice(sim::MetricSet &tree, sim::Tick makespan,
                        const CorePowerParams &params);

  private:
    CorePowerParams params_;
    sim::Tick activeTicks_ = 0;
    sim::Tick idleTicks_ = 0;
    std::uint64_t l1Lines_ = 0, l2Lines_ = 0, dramLines_ = 0;
    double accelPj_ = 0.0;
    double accelLeakMw_ = 0.0;
    std::optional<sim::Tick> makespan_; ///< set by close()
};

} // namespace tdm::pwr

#endif // TDM_POWER_ENERGY_ACCOUNTANT_HH
