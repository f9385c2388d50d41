/**
 * @file
 * Deterministic pseudo-random number generation (SplitMix64 core).
 *
 * Used for workload heterogeneity so that runs are reproducible across
 * platforms independent of libstdc++'s distributions.
 */

#ifndef TDM_SIM_RNG_HH
#define TDM_SIM_RNG_HH

#include <cstdint>

namespace tdm::sim {

/** SplitMix64 PRNG: tiny, fast, and platform-stable. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state_(seed)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). n must be > 0. */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** Stateless hash of a 64-bit key to [0,1); stable across runs. */
double hashUnit(std::uint64_t key);

/** Stateless 64-bit mix (SplitMix64 finalizer). */
std::uint64_t hashMix(std::uint64_t key);

} // namespace tdm::sim

#endif // TDM_SIM_RNG_HH
