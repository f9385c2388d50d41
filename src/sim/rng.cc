#include "sim/rng.hh"

#include <cmath>

namespace tdm::sim {

std::uint64_t
hashMix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
hashUnit(std::uint64_t key)
{
    return static_cast<double>(hashMix(key) >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::next()
{
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return next() % n;
}

double
Rng::noiseFactor(double sigma)
{
    // Sum of 4 uniforms approximates a Gaussian; exponentiate a centered
    // variate to obtain multiplicative noise with mean close to 1.
    double g = 0.0;
    for (int i = 0; i < 4; ++i)
        g += uniform();
    g = (g - 2.0) * std::sqrt(3.0); // ~N(0,1)
    return std::exp(sigma * g - 0.5 * sigma * sigma);
}

} // namespace tdm::sim
