/**
 * @file
 * Closed-form SRAM area / energy model in the spirit of CACTI 6.0.
 *
 * The paper models the DMU structures with CACTI 6.0 at 22 nm and reports
 * their area in Table III. We fit a simple linear model
 *
 *   area = fixedOverhead + bits * cellArea
 *        + assoc * compareBits * comparatorArea   (set-associative only)
 *
 * whose three constants reproduce the paper's Table III values to within
 * a few percent for all eight DMU structures. Energy per access and
 * leakage use the same functional form with independently chosen
 * constants at typical 22 nm / 0.6 V magnitudes.
 */

#ifndef TDM_POWER_CACTI_MODEL_HH
#define TDM_POWER_CACTI_MODEL_HH

#include <cstdint>
#include <string>

namespace tdm::pwr {

/** Description of one SRAM structure. */
struct SramSpec
{
    std::string name;
    std::uint64_t entries = 0;
    unsigned bitsPerEntry = 0;
    unsigned assoc = 1;        ///< 1 = direct / FIFO
    unsigned compareBits = 0;  ///< tag comparator width (assoc > 1)

    std::uint64_t totalBits() const { return entries * bitsPerEntry; }
    double storageKB() const {
        return static_cast<double>(totalBits()) / 8.0 / 1024.0;
    }
};

/** Result of an estimate. */
struct SramEstimate
{
    double storageKB = 0.0;
    double areaMm2 = 0.0;
    double readEnergyPj = 0.0;
    double writeEnergyPj = 0.0;
    double leakageMw = 0.0;
};

/**
 * The fitted model, at the paper's 22 nm node. Constants are exposed
 * for tests.
 */
class CactiModel
{
  public:
    SramEstimate estimate(const SramSpec &spec) const;

    /// mm^2 per bit of SRAM storage.
    static constexpr double cellAreaMm2PerBit = 7.95e-8;
    /// mm^2 fixed overhead (decoder, sense amps) per structure.
    static constexpr double fixedAreaMm2 = 0.011;
    /// mm^2 per way-compare-bit for associative lookups.
    static constexpr double comparatorAreaMm2PerBit = 1.5e-5;

    /// pJ fixed per access.
    static constexpr double fixedEnergyPj = 1.0;
    /// pJ per bit read/written.
    static constexpr double bitEnergyPj = 0.015;
    /// pJ per way-compare-bit.
    static constexpr double compareEnergyPj = 0.003;
    /// mW leakage per KB of storage.
    static constexpr double leakageMwPerKB = 0.02;
};

} // namespace tdm::pwr

#endif // TDM_POWER_CACTI_MODEL_HH
