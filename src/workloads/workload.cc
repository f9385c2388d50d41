#include "workloads/workload.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tdm::wl {

sim::Tick
noisyCycles(double base_cycles, std::uint64_t seed, std::uint64_t key,
            double sigma)
{
    if (base_cycles <= 0.0)
        return 1;
    double u = sim::hashUnit(seed * 0x9e3779b97f4a7c15ULL + key);
    // Map u in [0,1) to a symmetric multiplicative factor.
    double factor = 1.0 + sigma * (2.0 * u - 1.0) * 1.7320508; // +-sqrt(3)
    double v = base_cycles * factor;
    return v < 1.0 ? 1 : static_cast<sim::Tick>(v);
}

} // namespace tdm::wl
