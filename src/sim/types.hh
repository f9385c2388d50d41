/**
 * @file
 * Fundamental simulation types and unit helpers.
 *
 * The simulator counts time in processor cycles ("ticks") of the simulated
 * 2.0 GHz cores. Helpers convert between wall-clock units and ticks.
 */

#ifndef TDM_SIM_TYPES_HH
#define TDM_SIM_TYPES_HH

#include <bit>
#include <cstdint>
#include <limits>

namespace tdm::sim {

/** Simulated time, in core clock cycles. */
using Tick = std::uint64_t;

/** Sentinel for "no tick" / "never". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Identifier of a core (0-based). */
using CoreId = std::uint32_t;

/** Sentinel core id. */
constexpr CoreId invalidCore = std::numeric_limits<CoreId>::max();

/** Simulated clock frequency, cycles per second. */
constexpr double clockFreqHz = 2.0e9;

/** Convert microseconds of simulated time to ticks. */
constexpr Tick
usToTicks(double us)
{
    return static_cast<Tick>(us * (clockFreqHz / 1.0e6));
}

/** Convert ticks to microseconds of simulated time. */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / (clockFreqHz / 1.0e6);
}

/** Convert ticks to seconds of simulated time. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / clockFreqHz;
}

/** Integer ceiling division. */
template <typename T>
constexpr T
divCeil(T a, T b)
{
    return (a + b - 1) / b;
}

/** Number of bits needed to represent values in [0, n-1]. */
constexpr unsigned
bitsFor(std::uint64_t n)
{
    unsigned bits = 0;
    std::uint64_t v = 1;
    while (v < n) {
        v <<= 1;
        ++bits;
    }
    return bits == 0 ? 1 : bits;
}

/** True iff n is a power of two (n > 0). */
constexpr bool
isPowerOf2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** Floor of log2(n) for n > 0; 0 for n == 0. */
constexpr unsigned
floorLog2(std::uint64_t n)
{
    return static_cast<unsigned>(std::bit_width(n | 1)) - 1;
}

} // namespace tdm::sim

#endif // TDM_SIM_TYPES_HH
